"""Serial <-> parallel equivalence of the region-sharded kernel.

The canonical workload (``repro.sim.parallel.workload``) must produce
byte-identical merged summaries whether it runs on the ordinary serial
loop or under N forked region workers with conservative window sync —
including under a chaos plan whose partition and heal both land mid-run,
spanning hundreds of window barriers. A worker that raises or dies must
surface a clear :class:`~repro.errors.SimulationError`, never a hang.
"""

import os

import pytest

from repro.errors import SimulationError
from repro.faults.plan import ChurnBurst, DegradeLink, FaultPlan
from repro.sim.parallel import (
    ParallelSimulation,
    assign_regions,
    fault_owner_regions,
    plan_event_surplus,
    validate_plan_for_parallel,
)
from repro.sim.parallel.workload import (
    _build_shard,
    barrier_spanning_plan,
    run_parallel,
    run_serial,
    summary_checksum,
)
from repro.sim.topology import Topology

#: Small-but-real population: every region hosts endpoints, probes and
#: sweep queries cross regions, and ~170 window barriers fit in the run.
NODES = 48
DURATION = 1.5


@pytest.fixture(scope="module")
def serial_checksum():
    return summary_checksum(run_serial(NODES, DURATION))


# ------------------------------------------------------------- equivalence
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_parallel_matches_serial_byte_for_byte(serial_checksum, workers):
    merged, coordinator = run_parallel(NODES, DURATION, workers=workers)
    assert summary_checksum(merged) == serial_checksum
    # ~1.5 s / ~8.8 ms lookahead windows; and real cross-region traffic.
    assert coordinator.windows_run >= 100
    assert coordinator.messages_exchanged > 0


def test_chaos_partition_and_heal_span_window_barriers():
    plan = barrier_spanning_plan(DURATION)
    serial = summary_checksum(run_serial(NODES, DURATION, plan=plan))
    merged, coordinator = run_parallel(NODES, DURATION, workers=4, plan=plan)
    assert summary_checksum(merged) == serial
    # The partition touches 3 regions -> replicated into 3 of the 4
    # workers; fire + heal each execute twice more than serially.
    assert coordinator.event_surplus() == 4


# --------------------------------------------------------- worker failures
def _tiny_shard(worker_index, owned_regions):
    return _build_shard(
        worker_index, owned_regions,
        nodes=8, duration=0.5, plan=None,
    )


def _raising_builder(worker_index, owned_regions):
    if worker_index == 1:
        raise RuntimeError("builder exploded on purpose")
    return _tiny_shard(worker_index, owned_regions)


def _dying_builder(worker_index, owned_regions):
    if worker_index == 1:
        os._exit(7)
    return _tiny_shard(worker_index, owned_regions)


def test_worker_exception_surfaces_traceback_not_hang():
    coordinator = ParallelSimulation(_raising_builder, workers=2)
    with pytest.raises(SimulationError, match="builder exploded on purpose"):
        coordinator.run(0.05)


def test_worker_death_surfaces_clear_error_not_hang():
    coordinator = ParallelSimulation(_dying_builder, workers=2)
    with pytest.raises(SimulationError, match="workers=1"):
        coordinator.run(0.05)


# ------------------------------------------------------------- validation
def test_window_wider_than_lookahead_rejected():
    lookahead = Topology().min_inter_region_latency()
    with pytest.raises(SimulationError, match="lookahead"):
        ParallelSimulation(_tiny_shard, workers=2, window=lookahead * 2)
    # At or below the lookahead is fine.
    narrow = ParallelSimulation(_tiny_shard, workers=2, window=lookahead / 2)
    assert narrow.window == lookahead / 2


def test_churn_burst_plan_rejected():
    plan = FaultPlan().add(ChurnBurst(at=0.1, joins=2, leaves=1))
    with pytest.raises(SimulationError, match="ChurnBurst"):
        validate_plan_for_parallel(plan, {})


def test_cross_region_latency_speedup_rejected():
    regions = {"a0": "us-east-2", "a1": "us-west-1"}
    fast = FaultPlan().add(
        DegradeLink(at=0.1, src="a0", dst="a1", latency_multiplier=0.5)
    )
    with pytest.raises(SimulationError, match="latency_multiplier"):
        validate_plan_for_parallel(fast, regions)
    # Slowing a link (or speeding an intra-region one) is fine.
    validate_plan_for_parallel(
        FaultPlan().add(
            DegradeLink(at=0.1, src="a0", dst="a1", latency_multiplier=3.0)
        ),
        regions,
    )
    validate_plan_for_parallel(
        FaultPlan().add(
            DegradeLink(at=0.1, src="a0", dst="a1", latency_multiplier=0.5)
        ),
        {"a0": "us-east-2", "a1": "us-east-2"},
    )


def test_assign_regions_round_robin_and_clamp():
    assert assign_regions(["a", "b", "c"], 2) == [("a", "c"), ("b",)]
    # Clamped: a region is the smallest shardable unit.
    assert assign_regions(["a", "b"], 8) == [("a",), ("b",)]
    with pytest.raises(SimulationError):
        assign_regions([], 2)
    with pytest.raises(SimulationError):
        assign_regions(["a"], 0)


def test_fault_owner_regions_and_surplus_accounting():
    regions = {"a0": "us-east-2", "a1": "us-west-1"}
    plan = barrier_spanning_plan(3.0)
    event = plan.sorted_events()[0]
    assert fault_owner_regions(event, regions) == {
        "us-east-2", "us-west-2", "us-west-1"
    }
    # 2 workers over 4 regions: both workers own a touched region, so the
    # fire + heal pair is replicated once -> surplus 2.
    assignments = assign_regions(
        ["us-east-2", "ca-central-1", "us-west-2", "us-west-1"], 2
    )
    assert plan_event_surplus(plan, assignments, regions) == 2


def test_min_inter_region_latency_is_the_floor():
    topology = Topology()
    lookahead = topology.min_inter_region_latency()
    assert lookahead > 0
    names = [r.name for r in topology.regions]
    pairwise = [
        topology.latency(a, b) for a in names for b in names if a != b
    ]
    assert lookahead == min(pairwise)
