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
        import repro.sim

        for module, gone in (
            (repro.sim, "HeapEventQueue"),
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
        ("Network", ["loss_rate", "jitter_fraction", "region_rng"]),
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
