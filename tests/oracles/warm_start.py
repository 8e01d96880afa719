"""Per-pair warm-start seeding: the oracle for ``seed_converged``.

Until bulk seeding, a warm start filled the converged full mesh with one
``Member(...)`` + ``upsert`` per (table, peer) pair, in every warm-start
builder: ``harness/scenarios.py::_warm_start`` and
``benchmarks/bench_kernel.py::_swim_full_run``. ``src/`` now has one bulk
path (:func:`repro.gossip.membership.seed_converged`); the loops live on here
as what it is tested against.

* :func:`seed_per_pair` — the loop itself, with ``seed_converged``'s signature.
* :func:`warm_start_tables` — ``_warm_start``'s group/agent scan around that
  loop, kept as it was (both rescans of the agent list per group, the
  ``regions.get(node_id, agent.region)`` fallback), writing into fresh private
  tables instead of the live ones.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.groups import serf_address
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import MembershipTable


def seed_per_pair(
    tables: Sequence[MembershipTable],
    identities: Sequence[Tuple[str, str, str]],
    state_time: float,
) -> None:
    """Every table learns every peer, one ``upsert`` per pair."""
    for table in tables:
        for name, address, region in identities:
            if name == table.self_name:
                continue
            table.upsert(
                Member(
                    name,
                    address,
                    region,
                    incarnation=0,
                    state=MemberState.ALIVE,
                    state_time=state_time,
                )
            )


def warm_start_tables(scenario) -> Dict[Tuple[str, str], MembershipTable]:
    """``(node_id, group) -> table`` as the per-pair ``_warm_start`` left it.

    Each table is private (its own directory) and starts from the agent's own
    self-record, as ``SwimAgent.__init__`` writes it. Call on a warm-started
    scenario before running it.
    """
    sim = scenario.sim
    tables: Dict[Tuple[str, str], MembershipTable] = {}
    for service in scenario.services:
        for group in service.dgm.groups.all_groups():
            node_ids = group.all_node_ids()
            regions = {}
            for agent in scenario.agents:
                if agent.node_id in group.pending or agent.node_id in group.members:
                    regions[agent.node_id] = agent.region
            for agent in scenario.agents:
                membership = next(
                    (m for m in agent.memberships.values() if m.group == group.name),
                    None,
                )
                if membership is None:
                    continue
                table = tables[agent.node_id, group.name] = MembershipTable(
                    agent.node_id
                )
                table.upsert(
                    Member(
                        agent.node_id,
                        membership.serf.address,
                        agent.region,
                        incarnation=0,
                        state=MemberState.ALIVE,
                        state_time=sim.now,
                    )
                )
                seed_per_pair(
                    [table],
                    [
                        (
                            node_id,
                            serf_address(node_id, group.name),
                            regions.get(node_id, agent.region),
                        )
                        for node_id in node_ids
                    ],
                    sim.now,
                )
    return tables
