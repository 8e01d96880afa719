"""Serf-equivalent gossip fabric.

Implements SWIM (Das et al., DSN 2002) — the membership protocol underneath
HashiCorp Serf, which the paper uses as its p2p fabric (§VIII) — plus
Serf-style user events and queries disseminated over the gossip channel.

Defaults match the paper's node-agent configuration (§VIII-B): gossip fanout
4 and gossip interval 100 ms, which lets a 400-node group converge in about
0.6 s (footnote 2).
"""

from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.broadcast import Broadcast, BroadcastQueue
from repro.gossip.member import Member, MemberState
from repro.gossip.membership import MembershipTable, NodeDirectory
from repro.gossip.swim import SwimAgent, SwimConfig

__all__ = [
    "Broadcast",
    "BroadcastQueue",
    "Member",
    "MemberState",
    "MembershipTable",
    "NodeDirectory",
    "SerfAgent",
    "SerfConfig",
    "SwimAgent",
    "SwimConfig",
]
