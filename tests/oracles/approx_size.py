"""The ``isinstance``-chain payload walk: the oracle for ``approx_size``.

What ``repro.sim.network.approx_size`` was before it dispatched on the exact
type and sized a container's leaves inline: every value, leaf or not, goes
onto the stack and through one ``isinstance`` chain. The kernel's walk must
return this integer for every payload (``tests/test_sim_network.py``).
"""

from __future__ import annotations

from repro.sim.network import SizedPayload


def approx_size(payload: object) -> int:
    total = 0
    stack = [payload]
    pop = stack.pop
    extend = stack.extend
    while stack:
        value = pop()
        if value is None:
            total += 4
        elif value is True or value is False:
            total += 5
        elif isinstance(value, (int, float)):
            total += 8
        elif isinstance(value, str):
            total += len(value) + 2
        elif isinstance(value, SizedPayload):
            total += value.size
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, (list, tuple, set, frozenset)):
            total += 2 + len(value)
            extend(value)
        elif isinstance(value, dict):
            total += 2 + 2 * len(value)
            extend(value.keys())
            extend(value.values())
        else:
            # Fallback for unexpected objects: size of their repr.
            total += len(repr(value))
    return total
