"""Cross-simulation isolation: no interpreter-global mutable state.

Two seeded simulations built in the same process must produce identical
checksums regardless of which ran first (or whether another simulation ran
at all) — the regression this pins is any module-level cache, counter, or
registry that one ``Simulator`` mutates and a later one observes. The same
file holds the ``derive_rng`` label-collision guard tests (a shared stream
between two components is the in-process flavour of the same bug).
"""

import hashlib
import json

import pytest

from repro.errors import SimulationError
from repro.harness import build_focus_cluster, drain
from repro.harness.scenarios import build_single_group_cluster
from repro.sim.loop import Simulator


def _checksum(nodes):
    """Digest of a seeded one-group deployment run for 3 sim-s."""
    scenario = build_single_group_cluster(nodes, seed=5)
    drain(scenario, 3.0)
    metrics = scenario.network.metrics
    summary = {
        "events": scenario.sim.events_processed,
        "counters": {
            name: metrics.counter(name).value
            for name in metrics.names()["counters"]
        },
    }
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


def test_two_sims_same_process_identical_in_both_orders():
    # Order 1: A then B; order 2: B then A — all in this one interpreter.
    a_first = _checksum(24)
    b_second = _checksum(36)
    b_first = _checksum(36)
    a_second = _checksum(24)
    assert a_first == a_second, (
        "a 24-node seeded run changed because a different simulation ran "
        "before it — interpreter-global state is leaking between Simulators"
    )
    assert b_second == b_first


def test_repeated_identical_runs_are_stable():
    assert _checksum(24) == _checksum(24)


# ------------------------------------------------- per-simulation directories
def _focus_run(nodes, seed):
    """A warm FOCUS deployment run for 3 sim-s: its digest and directories."""
    scenario = build_focus_cluster(nodes, seed=seed, warm_start=True, with_store=False)
    drain(scenario, 3.0)
    digest = (
        scenario.sim.events_processed,
        scenario.network.metrics.counter("messages_sent").value,
        scenario.server_bandwidth_bytes(),
        sorted(
            (agent.node_id, membership.group, membership.serf.alive_members()[-1].name)
            for agent in scenario.agents
            for membership in agent.memberships.values()
        ),
    )
    directories = {
        id(membership.serf.members.directory): membership.serf.members.directory
        for agent in scenario.agents
        for membership in agent.memberships.values()
    }
    return digest, directories


def test_focus_scenarios_share_no_directory_and_digest_alike_in_both_orders():
    # The per-group node directories hang off the Simulator: the same group
    # name in two simulations is two directories, and neither run can tell
    # whether the other came first.
    a_first, a_dirs = _focus_run(24, seed=3)
    b_second, b_dirs = _focus_run(32, seed=4)
    b_first, _ = _focus_run(32, seed=4)
    a_second, _ = _focus_run(24, seed=3)
    assert a_first == a_second
    assert b_second == b_first
    assert a_dirs and b_dirs and not a_dirs.keys() & b_dirs.keys()


# ------------------------------------------------------ label-collision guard
def test_strict_mode_raises_on_duplicate_label():
    sim = Simulator(seed=1, strict_rng_labels=True)
    sim.derive_rng("gossip/n0")
    with pytest.raises(SimulationError, match="gossip/n0"):
        sim.derive_rng("gossip/n0")


def test_default_mode_tracks_but_does_not_raise():
    sim = Simulator(seed=1)
    sim.derive_rng("swim/a0")
    sim.derive_rng("swim/a0")  # crash-restart re-derivation is legitimate
    sim.derive_rng("swim/a1")
    assert sim.rng_label_collisions() == {"swim/a0": 2}


def test_derived_streams_are_per_simulator_not_global():
    # Identical labels + identical seeds -> identical streams; a different
    # seed -> a different stream. Neither depends on derivation history.
    a = Simulator(seed=7).derive_rng("x")
    Simulator(seed=7).derive_rng("unrelated")  # must not perturb anything
    b = Simulator(seed=7).derive_rng("x")
    c = Simulator(seed=8).derive_rng("x")
    draws_a = [a.random() for _ in range(4)]
    assert draws_a == [b.random() for _ in range(4)]
    assert draws_a != [c.random() for _ in range(4)]
