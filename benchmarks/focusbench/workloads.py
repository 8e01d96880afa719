"""The four focusbench workloads and the boundary they are driven through.

Each workload is three functions over the public API only —
``build`` (``repro.harness`` builders, default constructor arguments),
``warm_up`` (``Simulator.run_until``) and ``generate`` (seeded generators from
``repro.workloads``; every arrival is placed with ``sim.schedule_at``, so the
load is open-loop in simulated time and the generator is never late). The
steady phase is then ``run_until`` up to ``plan.end_time``, timed by ``rep.py``.

Sizes are frozen per scale: ``full`` is what ``BENCHMARK.json`` measures,
``smoke`` is the seconds-long pass ``test_smoke.py`` runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.admission import OverloadConfig
from repro.core.config import FocusConfig
from repro.core.query import Query, QueryTerm
from repro.core.rest import QueryResponse
from repro.gossip.agent import SerfConfig
from repro.harness import FocusScenario, build_focus_cluster
from repro.harness.scenarios import build_single_group_cluster
from repro.workloads import (
    ChameleonTraceGenerator,
    ChurnController,
    QueryWorkload,
    WorkloadDriver,
    node_spec_factory,
)
from repro.workloads.dynamics import AttributeDynamics, default_dynamics
from repro.workloads.querygen import LoadPhase, OpenLoopLoad


#: The node population is the same in every run. Which groups exist and how
#: large they are sets the latency modes of a directed pull, so a population
#: drawn from ``--seed`` would make the sim metrics of two runs incomparable
#: (p50 moved by a third between seeds). ``--seed`` drives everything else:
#: the trace, the query draws, arrival jitter, churn victims and joiners, the
#: attribute walks, and every RNG stream inside the simulator.
POPULATION_SEED = 42


# ------------------------------------------------------------------ boundary
@dataclass
class Span:
    """One query as a sim-time span at the benchmark boundary."""

    id: int
    send_at: float
    query: Query
    #: ``sim.now - send_at`` when the arrival fired; 0 by construction.
    lateness: float = 0.0
    response_at: Optional[float] = None
    response: Optional[QueryResponse] = None

    @property
    def latency(self) -> float:
        """Sim seconds from the *scheduled* send to the response."""
        return self.response_at - self.send_at

    def to_json(self) -> Dict[str, object]:
        response = self.response
        return {
            "id": self.id,
            "send_at": self.send_at,
            "response_at": self.response_at,
            "source": response.source if response else None,
            "groups_queried": response.groups_queried if response else None,
            "staleness_ms": response.staleness_ms if response else None,
            "timed_out": response.timed_out if response else None,
            "error": response.error if response else None,
            "nodes": response.node_ids if response else None,
        }


class QueryBoard:
    """Schedules queries through ``Application.query`` and keeps their spans."""

    def __init__(self, scenario: FocusScenario) -> None:
        self._sim = scenario.sim
        self._app = scenario.app
        self.spans: List[Span] = []

    def schedule(self, send_at: float, query: Query) -> None:
        span = Span(len(self.spans), send_at, query)
        self.spans.append(span)
        self._sim.schedule_at(send_at, self._issue, span)

    def _issue(self, span: Span) -> None:
        span.lateness = self._sim.now - span.send_at

        def complete(response: QueryResponse) -> None:
            span.response_at = self._sim.now
            span.response = response

        self._app.query(span.query, complete)


class AttributeLog:
    """What every agent held, and when: the oracle's ground truth.

    ``initial`` is each agent's full attribute view when the log was opened;
    ``changes`` is every ``set_attribute`` the benchmark's driver issued
    since, as ``(sim time, node id, name, stored value)``.
    """

    def __init__(self, scenario: FocusScenario) -> None:
        self.sim = scenario.sim
        self.initial: Dict[str, Dict[str, object]] = {}
        self.changes: List[Tuple[float, str, str, float]] = []
        self.admit(scenario)

    def admit(self, scenario: FocusScenario) -> None:
        """Log agents not seen yet (churn joiners; nothing drives them, so
        what they hold now is what they held all along)."""
        for agent in scenario.agents:
            if agent.node_id not in self.initial:
                self.initial[agent.node_id] = agent.attributes()

    def recording(self, agent) -> "_RecordingNode":
        return _RecordingNode(agent, self)


class _RecordingNode:
    """``WorkloadDriver`` node facade that logs each write it passes on."""

    def __init__(self, agent, log: AttributeLog) -> None:
        self._agent = agent
        self._log = log

    @property
    def dynamic(self) -> Dict[str, float]:
        return self._agent.dynamic

    @property
    def running(self) -> bool:
        return self._agent.running

    def set_attribute(self, name: str, value: float) -> None:
        self._agent.set_attribute(name, value)
        # Log what the agent stored (the schema may have normalized it).
        self._log.changes.append(
            (self._log.sim.now, self._agent.node_id, name, self._agent.dynamic[name])
        )


@dataclass
class Plan:
    """A generated steady phase, ready for ``run_until(end_time)``."""

    board: QueryBoard
    log: AttributeLog
    start_time: float
    end_time: float
    #: ``(label, first send time, last send time)`` per load phase.
    phases: List[Tuple[str, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: No attribute changes and no churn: an answer shorter than its limit
    #: must be the complete ground-truth match set.
    static: bool
    #: Percentile reported as ``sim_query_tail_ms``: the highest one that has
    #: ten answered samples beyond it at the ``full`` size *and* does not sit
    #: on a cliff between latency modes (see README, "End-to-end metrics").
    tail_percentile: int
    #: Table size of the rep's speed probe, and the host seconds that probe
    #: took, run after a steady slice, while the box the sizes were frozen on
    #: was quiet. ``setup_s`` and ``run_s`` are stated at that speed.
    probe_bytes: int
    probe_reference_s: float
    sizes: Dict[str, Dict[str, float]]
    build: Callable[[int, Dict[str, float]], FocusScenario]
    warm_up: Callable[[FocusScenario, int, Dict[str, float]], None]
    generate: Callable[[FocusScenario, int, Dict[str, float]], Plan]
    #: Load phases offered past the serving plane's knee. There the defended
    #: plane may answer from the shards that admitted the query only; such an
    #: answer counts as ``partial`` (not answered), not as a wrong answer.
    overload_phases: Tuple[str, ...] = ()


def _settle(scenario: FocusScenario, seed: int, sizes: Dict[str, float]) -> None:
    """Warm-up shared by the gossip workloads: let timers and probes start."""
    scenario.sim.run_until(sizes["warmup_sim_s"])


# --------------------------------------------------------------- trace_replay
def _build_trace_replay(seed: int, sizes: Dict[str, float]) -> FocusScenario:
    return build_focus_cluster(
        int(sizes["agents"]),
        seed=seed,
        config=FocusConfig(cache_enabled=False),
        with_store=False,
        warm_start=True,
        node_factory=node_spec_factory(POPULATION_SEED),
    )


def _generate_trace_replay(
    scenario: FocusScenario, seed: int, sizes: Dict[str, float]
) -> Plan:
    board = QueryBoard(scenario)
    start = scenario.sim.now
    pairs = ChameleonTraceGenerator(seed=seed).accelerated_queries(
        int(sizes["queries"]), limit=10, freshness_ms=0.0
    )
    for offset, query in pairs:
        board.schedule(start + offset, query)
    end = start + pairs[-1][0] + sizes["tail_sim_s"]
    return Plan(board, AttributeLog(scenario), start, end)


# ----------------------------------------------------------------- group_mesh
def _build_group_mesh(seed: int, sizes: Dict[str, float]) -> FocusScenario:
    return build_single_group_cluster(int(sizes["agents"]), seed=seed)


def _generate_group_mesh(
    scenario: FocusScenario, seed: int, sizes: Dict[str, float]
) -> Plan:
    board = QueryBoard(scenario)
    start = scenario.sim.now
    rng = random.Random(f"focusbench/group_mesh/{seed}")
    interval = sizes["query_interval_sim_s"]
    count = int(sizes["queries"])
    for index in range(count):
        lower = rng.uniform(0.0, 85.0)
        width = rng.uniform(5.0, 15.0)
        # No limit: the whole group answers and the oracle checks the answer
        # against the complete ground-truth match set.
        query = Query([QueryTerm("load", lower=lower, upper=lower + width)])
        board.schedule(start + (index + 0.5) * interval, query)
    end = start + count * interval + sizes["tail_sim_s"]
    return Plan(board, AttributeLog(scenario), start, end)


# ----------------------------------------------------------------- serve_ramp
def _serve_ramp_config() -> FocusConfig:
    """Two one-core shards, 20 ms of query CPU, every overload defense on.

    The posture of ``bench_overload.overload_config(True)``, copied so that
    file cannot change what this benchmark measures. The defended query
    bulkhead saturates near 75 q/s.
    """
    overload = OverloadConfig(
        cpu_model_enabled=True,
        cores=1.0,
        per_query_cpu=0.02,
        per_registration_cpu=0.004,
        per_report_cpu=0.002,
        throttle_enabled=True,
        throttle_rate=80.0,
        throttle_burst=40.0,
        queue_enabled=True,
        queue_capacity=64,
        queue_discipline="fifo",
        queue_deadline=2.0,
        bulkhead_enabled=True,
        bulkhead_query_share=0.75,
        breaker_enabled=True,
        breaker_failure_threshold=0.5,
        breaker_min_volume=8,
        breaker_latency_threshold=None,
        breaker_window=32,
        breaker_cooldown=4.0,
        breaker_half_open_probes=2,
    )
    return FocusConfig(
        shards=2,
        server_queue_enabled=True,
        query_timeout=6.0,
        report_interval=15.0,
        overload=overload,
        serf=SerfConfig(probe_interval=4.0, sync_interval=120.0),
    )


#: Offered rates of the four phases, q/s; the metric names carry them.
SERVE_RAMP_RATES = (30, 60, 120, 200)


def _build_serve_ramp(seed: int, sizes: Dict[str, float]) -> FocusScenario:
    return build_focus_cluster(
        int(sizes["agents"]),
        seed=seed,
        config=_serve_ramp_config(),
        with_store=False,
        warm_start=True,
        node_factory=node_spec_factory(POPULATION_SEED),
    )


def _serve_ramp_queries(seed: int) -> QueryWorkload:
    return QueryWorkload(
        seed=seed, hot_key_fraction=0.3, hot_set_size=8, freshness_ms=1500.0
    )


def _warm_serve_ramp(
    scenario: FocusScenario, seed: int, sizes: Dict[str, float]
) -> None:
    """Settle, then offer a light unrecorded stream so the ramp starts with
    the router and shard caches as a long-running plane would hold them."""
    sim = scenario.sim
    sim.run_until(sizes["settle_sim_s"])
    queries = _serve_ramp_queries(seed)
    interval = 1.0 / sizes["warmup_rate"]
    time = sim.now + 0.5 * interval
    # Stop offering early enough that no warm-up query is still in the plane
    # when the timed region starts.
    while time < sizes["warmup_sim_s"] - 2.0:
        sim.schedule_at(time, scenario.app.query, queries.next_query())
        time += interval
    sim.run_until(sizes["warmup_sim_s"])


def _generate_serve_ramp(
    scenario: FocusScenario, seed: int, sizes: Dict[str, float]
) -> Plan:
    board = QueryBoard(scenario)
    start = scenario.sim.now
    # A second stream off the same seed: the ramp replays the hot set the
    # warm-up primed, followed by its own draws.
    queries = _serve_ramp_queries(seed)
    phase_s = sizes["phase_sim_s"]
    load = OpenLoopLoad(
        [LoadPhase(phase_s, float(rate)) for rate in SERVE_RAMP_RATES], seed=seed
    )
    for offset in load.arrival_times():
        board.schedule(start + offset, queries.next_query())
    phases = [
        (f"r{rate}", start + index * phase_s, start + (index + 1) * phase_s)
        for index, rate in enumerate(SERVE_RAMP_RATES)
    ]
    end = start + load.total_duration + sizes["tail_sim_s"]
    return Plan(board, AttributeLog(scenario), start, end, phases)


# ---------------------------------------------------------------- churn_moves
def _build_churn_moves(seed: int, sizes: Dict[str, float]) -> FocusScenario:
    # Builder defaults on purpose: protocol bring-up with the replicated
    # store, so registrations, group joins and store syncs are real traffic.
    return build_focus_cluster(
        int(sizes["agents"]), seed=seed, node_factory=node_spec_factory(POPULATION_SEED)
    )


class _Drift(AttributeDynamics):
    """A walk that only climbs, wrapping to the bottom of the range.

    With a symmetric walk an agent hovering at a cutoff re-enters a group it
    just left. Re-entry builds a fresh ``SerfAgent`` whose query ids restart
    at ``q1``, and a late answer to the previous incarnation's ``q1`` is then
    merged into the new one: a wrong answer, on about one seed in eight (see
    README, "Defects the oracle found"). One-way drift produces the same
    group moves without re-entry, so the verdict does not depend on the seed.
    """

    def step(self, value: float, rng: random.Random) -> float:
        span = self.max_value - self.min_value
        value += abs(rng.gauss(0.0, self.volatility * span))
        if value > self.max_value:
            value -= span
        return value


def _generate_churn_moves(
    scenario: FocusScenario, seed: int, sizes: Dict[str, float]
) -> Plan:
    sim = scenario.sim
    board = QueryBoard(scenario)
    log = AttributeLog(scenario)
    start = sim.now
    duration = sizes["duration_sim_s"]

    driver = WorkloadDriver(
        sim,
        [log.recording(agent) for agent in scenario.agents],
        dynamics=[
            _Drift(d.name, d.volatility, d.min_value, d.max_value)
            for d in default_dynamics(volatility=sizes["volatility"])
        ],
        seed=seed,
    )
    driver.start()
    sim.schedule_at(start + duration, driver.stop)

    churn = ChurnController(scenario)
    burst_every = sizes["burst_every_sim_s"]
    burst_size = int(sizes["burst_size"])
    bursts = int(duration // burst_every) - 1
    for index in range(1, bursts + 1):
        sim.schedule_at(
            start + index * burst_every,
            lambda: churn.burst(joins=burst_size, leaves=burst_size, spacing=0.05),
        )

    # 45% static queries. About 64% of answers (57-69% over 16 seeds) are
    # then ~100 ms table lookups: far enough above 50% that the p50 is that
    # path on every seed, far enough below 75% that the p75 tail is always a
    # directed pull. With the generator's default mix the share hovers at
    # 50% and the median flipped between 100 and 170 ms from seed to seed.
    queries = QueryWorkload(
        seed=seed,
        weights={"placement": 0.45, "hot_spot": 0.1, "service_status": 0.225,
                 "tenant_report": 0.225},
    )
    interval = 1.0 / sizes["query_rate"]
    for index in range(int(duration * sizes["query_rate"])):
        board.schedule(start + (index + 0.5) * interval, queries.next_query())
    return Plan(board, log, start, start + duration + sizes["tail_sim_s"])


# ------------------------------------------------------------------- registry
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="trace_replay",
            why=(
                "Fig 7c regime: warm multi-group fleet, cache off, Chameleon "
                "trace; every query is a gossip pull, so sim.network, "
                "gossip.swim and the scheduler carry the host cost"
            ),
            static=True,
            tail_percentile=98,
            probe_bytes=32 << 20,
            probe_reference_s=0.0019,
            sizes={
                "full": {"agents": 640, "queries": 550, "warmup_sim_s": 3.0,
                         "tail_sim_s": 4.5},
                "smoke": {"agents": 64, "queries": 40, "warmup_sim_s": 1.0,
                          "tail_sim_s": 4.0},
            },
            build=_build_trace_replay,
            warm_up=_settle,
            generate=_generate_trace_replay,
        ),
        Workload(
            name="group_mesh",
            why=(
                "Fig 8b/8c large end: one Serf group, full-group fan-out per "
                "range query and O(N*N) warm start; setup, memory and "
                "membership-table cost show here first, core.* is idle"
            ),
            static=True,
            tail_percentile=75,
            probe_bytes=32 << 20,
            probe_reference_s=0.0019,
            sizes={
                "full": {"agents": 400, "queries": 44,
                         "query_interval_sim_s": 0.5, "warmup_sim_s": 3.0,
                         "tail_sim_s": 2.0},
                "smoke": {"agents": 48, "queries": 8,
                          "query_interval_sim_s": 0.25, "warmup_sim_s": 1.0,
                          "tail_sim_s": 2.5},
            },
            build=_build_group_mesh,
            warm_up=_settle,
            generate=_generate_group_mesh,
        ),
        Workload(
            name="serve_ramp",
            why=(
                "Serving plane as a request server: 2 shards, CPU model and "
                "all defenses, hot keys, open-loop 30/60/120/200 q/s past the "
                "75 q/s knee; only here core.* and sim.rpc carry the cost"
            ),
            static=True,
            tail_percentile=99,
            probe_bytes=256 << 10,
            probe_reference_s=0.0012,
            sizes={
                "full": {"agents": 48, "phase_sim_s": 10.0, "settle_sim_s": 3.0,
                         "warmup_rate": 10.0, "warmup_sim_s": 33.0,
                         "tail_sim_s": 12.0},
                "smoke": {"agents": 24, "phase_sim_s": 1.0, "settle_sim_s": 1.0,
                          "warmup_rate": 10.0, "warmup_sim_s": 4.0,
                          "tail_sim_s": 4.0},
            },
            build=_build_serve_ramp,
            warm_up=_warm_serve_ramp,
            generate=_generate_serve_ramp,
            overload_phases=("r120", "r200"),
        ),
        Workload(
            name="churn_moves",
            why=(
                "Writes beside reads: protocol bring-up with the store, then "
                "group moves, join/leave bursts and a query stream; exercises "
                "the write path of gossip.membership, the DGM and the store"
            ),
            static=False,
            tail_percentile=75,
            probe_bytes=32 << 20,
            probe_reference_s=0.0019,
            sizes={
                "full": {"agents": 80, "warmup_sim_s": 12.0,
                         "duration_sim_s": 16.0, "volatility": 0.003,
                         "burst_every_sim_s": 5.0, "burst_size": 10,
                         "query_rate": 25.0, "tail_sim_s": 4.5},
                "smoke": {"agents": 32, "warmup_sim_s": 3.0,
                          "duration_sim_s": 3.0, "volatility": 0.003,
                          "burst_every_sim_s": 1.0, "burst_size": 2,
                          "query_rate": 5.0, "tail_sim_s": 2.0},
            },
            build=_build_churn_moves,
            warm_up=_settle,
            generate=_generate_churn_moves,
        ),
    )
}
