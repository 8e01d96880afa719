"""Public API surface: every __all__ entry resolves, every subpackage imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.gossip",
    "repro.store",
    "repro.mq",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.harness",
    "repro.openstack",
    "repro.onap",
]


class TestPublicSurface:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", None)
        assert exported, f"{name} should declare __all__"
        for symbol in exported:
            assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_sorted_and_unique(self, name):
        module = importlib.import_module(name)
        exported = list(getattr(module, "__all__", ()))
        assert exported == sorted(exported), f"{name}.__all__ is not sorted"
        assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"

    def test_oracles_are_not_exported(self):
        """The reference arms live in tests/oracles/, not in the packages."""
        import repro.gossip

        for module, gone in (
            (repro.gossip, "MemberList"),
            (repro.gossip, "RegionProbeBatcher"),
        ):
            assert gone not in module.__all__
            assert not hasattr(module, gone)

    def test_headline_symbols_reachable(self):
        from repro.core import FocusConfig, FocusService, NodeAgent, Query  # noqa: F401
        from repro.gossip import SerfAgent, SwimAgent  # noqa: F401
        from repro.harness import build_focus_cluster, run_query  # noqa: F401
        from repro.sim import Network, Simulator  # noqa: F401

    @pytest.mark.parametrize("cls, options", [
        ("Simulator", ["strict_rng_labels"]),
        ("Network", ["loss_rate", "jitter_fraction"]),
        ("BandwidthMeter", []),
        ("Histogram", []),
    ])
    def test_kernel_keyword_options_are_pinned(self, cls, options):
        """The kernel's constructor knobs, by name: a new one is added here
        on purpose, with a committed benchmark that shows what it buys."""
        import inspect

        import repro.sim

        params = inspect.signature(getattr(repro.sim, cls).__init__).parameters
        keyword_only = [
            name for name, p in params.items() if p.kind is p.KEYWORD_ONLY
        ]
        assert keyword_only == options

    @pytest.mark.parametrize("cls, fields", [
        ("FocusConfig", [
            "schema", "max_group_size", "report_interval", "query_timeout",
            "cache_enabled", "geo_split_km", "delegation_enabled",
            "delegation_threshold", "smallest_group_routing", "serf",
            "fanout_overrides", "shards", "replica_reads",
            "server_queue_enabled", "overload",
        ]),
        ("OverloadConfig", [
            "cpu_model_enabled", "cores", "per_query_cpu",
            "per_registration_cpu", "per_report_cpu",
            "throttle_enabled", "throttle_rate", "throttle_burst",
            "queue_enabled", "queue_capacity", "queue_discipline",
            "queue_deadline", "bulkhead_enabled", "bulkhead_query_share",
            "breaker_enabled", "breaker_failure_threshold",
            "breaker_min_volume", "breaker_latency_threshold",
            "breaker_window", "breaker_cooldown", "breaker_half_open_probes",
        ]),
    ])
    def test_serving_plane_knobs_are_pinned(self, cls, fields):
        """The serving plane's config fields, by name: a new knob is added
        here on purpose, with a caller that sets it to more than one value."""
        import dataclasses

        import repro.core

        assert [f.name for f in dataclasses.fields(getattr(repro.core, cls))] == fields
