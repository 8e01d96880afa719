"""focusbench: one end-to-end + per-layer benchmark for the FOCUS reproduction.

See ``README.md`` in this directory. The benchmark drives the program only
through ``repro.harness`` / ``repro.workloads`` / ``repro.core.config`` and
measures every layer from outside; it imports nothing from the other
``benchmarks/`` files.
"""
