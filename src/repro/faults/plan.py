"""Declarative fault schedules.

A :class:`FaultPlan` is a list of fault events pinned to simulation times.
Plans are plain data — building one has zero side effects on the simulation,
so the same plan can be rendered into docs, diffed between experiments, and
executed repeatedly with identical results. The
:class:`~repro.faults.engine.ChaosEngine` turns a plan into scheduled
callbacks.

Every event kind models one failure class from the FOCUS deployment story:

* :class:`CrashNode` — fail-stop crash of one process, with optional
  restart (durable recovery) or restart-after-wipe (state loss);
* :class:`PartitionRegions` — a WAN partition between region sets, with an
  optional scheduled heal;
* :class:`DegradeLink` — a flaky/congested link: latency multiplier and/or
  packet-loss override on one address pair;
* :class:`ChurnBurst` — a batch of node joins/leaves through the workload
  layer (flash crowd / correlated departure);
* :class:`PauseProcess` — a GC stall or frozen VM: the process stays
  registered but goes dark until the scheduled resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class FaultEvent:
    """Base class: something bad happens at simulation time ``at``."""

    at: float

    def describe(self) -> str:
        return f"{type(self).__name__}@{self.at:g}"


@dataclass(frozen=True)
class CrashNode(FaultEvent):
    """Fail-stop crash of the process registered at ``target``.

    ``restart_after`` (seconds after the crash) brings it back via the
    process's ``restart()`` hook; ``lose_state=True`` additionally calls the
    target's ``wipe()`` (if it has one) so recovery must come from peers.
    """

    target: str = ""
    restart_after: Optional[float] = None
    lose_state: bool = False

    def describe(self) -> str:
        tail = ""
        if self.restart_after is not None:
            tail = f" restart+{self.restart_after:g}"
            if self.lose_state:
                tail += " wiped"
        return f"crash {self.target}@{self.at:g}{tail}"


@dataclass(frozen=True)
class PartitionRegions(FaultEvent):
    """WAN partition: every region in ``side_a`` loses every one in ``side_b``."""

    side_a: Tuple[str, ...] = ()
    side_b: Tuple[str, ...] = ()
    heal_after: Optional[float] = None

    def describe(self) -> str:
        tail = f" heal+{self.heal_after:g}" if self.heal_after is not None else ""
        return (
            f"partition {','.join(self.side_a)}|{','.join(self.side_b)}"
            f"@{self.at:g}{tail}"
        )


@dataclass(frozen=True)
class DegradeLink(FaultEvent):
    """Per-link degradation between two addresses (both directions)."""

    src: str = ""
    dst: str = ""
    latency_multiplier: float = 1.0
    loss_rate: float = 0.0
    clear_after: Optional[float] = None

    def describe(self) -> str:
        tail = f" clear+{self.clear_after:g}" if self.clear_after is not None else ""
        return (
            f"degrade {self.src}~{self.dst}@{self.at:g} "
            f"x{self.latency_multiplier:g} loss={self.loss_rate:g}{tail}"
        )


@dataclass(frozen=True)
class ChurnBurst(FaultEvent):
    """A burst of ``joins`` node arrivals and ``leaves`` departures.

    Individual events are spread ``spacing`` seconds apart (0 = all at
    once). Delegated to the engine's churn handler — typically a
    :class:`~repro.workloads.churn.ChurnController` — because only the
    workload layer knows how to build and register new nodes.
    """

    joins: int = 0
    leaves: int = 0
    spacing: float = 0.0

    def describe(self) -> str:
        return f"churn +{self.joins}/-{self.leaves}@{self.at:g}"


@dataclass(frozen=True)
class PauseProcess(FaultEvent):
    """Freeze ``target`` (GC stall); resume ``resume_after`` seconds later."""

    target: str = ""
    resume_after: float = 1.0

    def describe(self) -> str:
        return f"pause {self.target}@{self.at:g} resume+{self.resume_after:g}"


@dataclass
class FaultPlan:
    """An ordered, validated schedule of fault events."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultPlan":
        """Append an event (chainable); rejects negative times up front."""
        if event.at < 0:
            raise ValueError(f"fault scheduled before t=0: {event!r}")
        if isinstance(event, PauseProcess) and event.resume_after <= 0:
            raise ValueError(f"pause must resume after a positive delay: {event!r}")
        self.events.append(event)
        return self

    def extend(self, events) -> "FaultPlan":
        for event in events:
            self.add(event)
        return self

    def sorted_events(self) -> List[FaultEvent]:
        """Events by time; ties keep insertion order (stable sort)."""
        return sorted(self.events, key=lambda e: e.at)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.sorted_events())

    def __len__(self) -> int:
        return len(self.events)

    def describe(self) -> List[str]:
        """Human/report-friendly one-liners, in schedule order."""
        return [event.describe() for event in self.sorted_events()]


def crash_storm(
    targets: List[str],
    *,
    start: float,
    spacing: float = 0.0,
    restart_after: Optional[float] = None,
    lose_state: bool = False,
) -> FaultPlan:
    """Convenience builder: crash each target in sequence."""
    plan = FaultPlan()
    for i, target in enumerate(targets):
        plan.add(
            CrashNode(
                at=start + i * spacing,
                target=target,
                restart_after=restart_after,
                lose_state=lose_state,
            )
        )
    return plan

