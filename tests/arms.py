"""Test-side substitution of the kernel's oracles (``tests/oracles/``).

``src/`` has one scheduler, one periodic-timer path and one membership
backend, and no parameter to choose another. The equivalence tests swap the
oracle in at the construction site instead, by patching the module global the
kernel instantiates.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

import repro.gossip.swim
import repro.sim.loop
from tests.oracles.heap_queue import HeapEventQueue
from tests.oracles.member_list import MemberList
from tests.oracles.self_timer import SelfReschedulingTimer


@contextmanager
def kernel(queue: str = "calendar", timers: str = "wheel", members: str = "table"):
    """Simulators, timers and SWIM agents *built* inside the block use the
    named oracle: ``queue="heap"``, ``timers="self"``, ``members="dict"``.
    The defaults are the kernel as shipped."""
    with pytest.MonkeyPatch.context() as patch:
        if queue == "heap":
            patch.setattr(repro.sim.loop, "EventQueue", HeapEventQueue)
        if timers == "self":
            patch.setattr(repro.sim.loop, "RepeatingTimer", SelfReschedulingTimer)
        if members == "dict":
            patch.setattr(repro.gossip.swim, "MembershipTable", MemberList)
        yield
