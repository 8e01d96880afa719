"""Test-side substitution of the kernel's oracles (``tests/oracles/``).

``src/`` has one scheduler, one periodic-timer path, one membership
backend, one probe walk, one retransmit limit and one gossip round, and no
parameter to choose another. The scheduler, a plain binary heap, is its own
reference and has no oracle here.
The equivalence tests swap the oracle in at the construction site instead, by
patching the module global the kernel instantiates or calls (or, for the
probe walk and the gossip round, the methods).
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.gossip.broadcast
import repro.gossip.membership
import repro.gossip.swim
import repro.sim.loop
from tests.oracles import gossip_round
from tests.oracles.member_list import MemberList
from tests.oracles.probe_order import next_probe_target
from tests.oracles.retransmit import retransmit_limit as log2_retransmit_limit
from tests.oracles.self_timer import SelfReschedulingTimer


@contextmanager
def kernel(
    timers: str = "wheel",
    members: str = "table",
    probes: str = "draw",
    retransmit: str = "log10",
    gossip: str = "per-peer",
):
    """Simulators, timers and SWIM agents *built* inside the block use the
    named oracle: ``timers="self"``, ``members="dict"``.
    ``probes="shuffle"`` swaps every SWIM agent's probe walk, and
    ``retransmit="log2"`` the limit of every broadcast queued, built or not,
    while the block runs. ``gossip="shared"`` gives every SWIM agent the
    round memberlist's per-peer one replaced: one take per tick for all
    peers, alive-only targets, no phase. The defaults are the kernel as
    shipped."""
    with pytest.MonkeyPatch.context() as patch:
        if timers == "self":
            patch.setattr(repro.sim.loop, "RepeatingTimer", SelfReschedulingTimer)
        if members == "dict":
            patch.setattr(repro.gossip.swim, "MembershipTable", MemberList)
        if probes == "shuffle":
            patch.setattr(
                repro.gossip.swim.SwimAgent, "_next_probe_target", next_probe_target
            )
        if retransmit == "log2":
            patch.setattr(
                repro.gossip.broadcast, "retransmit_limit", log2_retransmit_limit
            )
        if gossip == "shared":
            swim = repro.gossip.swim.SwimAgent
            patch.setattr(swim, "on_start", gossip_round.on_start)
            patch.setattr(
                swim, "_ensure_gossip_scheduled", gossip_round.ensure_gossip_scheduled
            )
            patch.setattr(swim, "_gossip_tick", gossip_round.gossip_tick)
            patch.setattr(
                repro.gossip.membership.MembershipTable,
                "gossip_targets",
                gossip_round.gossip_targets,
            )
        yield
