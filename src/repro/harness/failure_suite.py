"""Seeded failure scenarios with a quantitative resilience report.

Each scenario builds a warm-started FOCUS deployment, schedules faults
through the :class:`~repro.faults.engine.ChaosEngine`, and measures the
system's behaviour with a 1 Hz *probe*: a match-all live query (freshness 0)
whose ground truth — the set of agents actually running when the probe was
issued — is known exactly inside the simulator. From the probe stream we
derive the three numbers the paper's failure story (§VIII) cares about:

* **detection latency** — fault time until the first answer that reflects
  the fault (a crashed node missing, or the server timing out);
* **false-negative / stale-answer rates** inside the fault window — live
  nodes missing from answers, dead nodes still present;
* **re-convergence time** — heal/restart time until the last incorrect
  answer.

Everything is driven by the sim clock and seeded RNG streams, so the same
seed produces a byte-identical report — ``checksum`` at the top level is a
sha256 over the canonical JSON, and the chaos smoke check holds it stable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from repro.core.admission import CircuitBreaker, OverloadConfig
from repro.core.config import FocusConfig
from repro.core.query import Query, QueryTerm
from repro.faults import (
    ChaosEngine,
    ChurnBurst,
    CrashNode,
    FaultPlan,
    PartitionRegions,
)
from repro.harness.runner import drain
from repro.harness.scenarios import FocusScenario, build_focus_cluster
from repro.workloads.churn import ChurnController
from repro.workloads.querygen import (
    LoadPhase,
    OpenLoopLoad,
    QueryWorkload,
    flash_crowd_phases,
    thundering_herd_offsets,
)

#: Probe cadence; 1 Hz gives ±0.5 s resolution on latency numbers.
PROBE_INTERVAL = 1.0

#: Per-probe query timeout. Longer than the server's own fanout timeout
#: (``query_timeout`` = 3 s), so a *partial* answer from a degraded server
#: reaches the probe and shows up as false negatives; only a dead or
#: unreachable server turns probes into timeouts.
PROBE_TIMEOUT = 6.0


class ResilienceProbe:
    """Issues the match-all probe on a fixed schedule and keeps the ledger."""

    def __init__(self, scenario: FocusScenario) -> None:
        self.scenario = scenario
        self.query = Query(
            [QueryTerm.at_least("ram_mb", 0.0)], limit=None, freshness_ms=0.0
        )
        #: ``(issued_at, expected, observed, timed_out)``; ``expected`` is
        #: captured at issue time — the simulator's exact ground truth.
        self.samples: List[Tuple[float, frozenset, frozenset, bool]] = []

    def schedule(self, start: float, end: float) -> None:
        t = start
        i = 0
        while t <= end:
            self.scenario.sim.schedule_at(t, self._issue)
            i += 1
            t = start + i * PROBE_INTERVAL

    def _issue(self) -> None:
        issued_at = self.scenario.sim.now
        expected = frozenset(
            agent.node_id for agent in self.scenario.agents if agent.running
        )

        def record(response) -> None:
            self.samples.append(
                (
                    issued_at,
                    expected,
                    frozenset(response.node_ids),
                    response.timed_out,
                )
            )

        self.scenario.app.client.query(self.query, record, timeout=PROBE_TIMEOUT)

    # ------------------------------------------------------------- analysis
    def detection_latency(
        self, fault_time: float, victims: frozenset
    ) -> Optional[float]:
        """Fault time -> first answer missing every victim (or timing out)."""
        for issued_at, _expected, observed, timed_out in sorted(self.samples):
            if issued_at < fault_time:
                continue
            if timed_out or not (victims & observed):
                return issued_at - fault_time
        return None

    def timeout_detection_latency(self, fault_time: float) -> Optional[float]:
        for issued_at, _expected, _observed, timed_out in sorted(self.samples):
            if issued_at >= fault_time and timed_out:
                return issued_at - fault_time
        return None

    def window_rates(self, start: float, end: float) -> Dict[str, float]:
        """False-negative and stale-answer rates over probes in [start, end)."""
        expected_total = 0
        missing_total = 0
        observed_total = 0
        stale_total = 0
        timeouts = 0
        polls = 0
        for issued_at, expected, observed, timed_out in self.samples:
            if not start <= issued_at < end:
                continue
            polls += 1
            if timed_out:
                timeouts += 1
                continue
            expected_total += len(expected)
            missing_total += len(expected - observed)
            observed_total += len(observed)
            stale_total += len(observed - expected)
        return {
            "polls": polls,
            "timeouts": timeouts,
            "false_negative_rate": (
                missing_total / expected_total if expected_total else 0.0
            ),
            "stale_answer_rate": (
                stale_total / observed_total if observed_total else 0.0
            ),
        }

    def reconvergence(self, heal_time: float) -> float:
        """Heal time -> last incorrect answer after it (0 = instantly clean)."""
        worst = heal_time
        for issued_at, expected, observed, timed_out in self.samples:
            if issued_at < heal_time:
                continue
            if timed_out or expected != observed:
                worst = max(worst, issued_at)
        return worst - heal_time


def _build(
    seed: int,
    num_nodes: int,
    shards: int = 1,
    config: Optional[FocusConfig] = None,
) -> Tuple[FocusScenario, ChaosEngine]:
    if config is None:
        config = FocusConfig(shards=shards) if shards > 1 else None
    scenario = build_focus_cluster(
        num_nodes,
        seed=seed,
        config=config,
        warm_start=True,
        with_store=True,
    )
    targets = {service.address: service for service in scenario.services}
    if scenario.plane is not None and scenario.plane.router is not None:
        targets[scenario.plane.router.address] = scenario.plane.router
    engine = ChaosEngine(
        scenario.sim,
        scenario.network,
        targets=targets,
        churn=ChurnController(scenario),
    )
    for agent in scenario.agents:
        engine.track(agent.node_id, agent)
    drain(scenario, 3.0)
    return scenario, engine


def _finish(
    name: str,
    seed: int,
    scenario: FocusScenario,
    engine: ChaosEngine,
    probe: ResilienceProbe,
    *,
    fault_time: float,
    heal_time: float,
    detection: Optional[float],
) -> Dict[str, object]:
    counters = {
        counter_name: scenario.network.metrics.counter(counter_name).value
        for counter_name in scenario.network.metrics.names()["counters"]
    }
    report: Dict[str, object] = {
        "scenario": name,
        "seed": seed,
        "num_nodes": len(scenario.agents),
        "fault_log": engine.fault_log(),
        "skipped_faults": [
            {"t": t, "reason": reason} for t, reason in engine.skipped
        ],
        "fault_window": probe.window_rates(fault_time, heal_time),
        "detection_latency_s": detection,
        "reconvergence_s": probe.reconvergence(heal_time),
        "counters": counters,
    }
    return report


def run_single_node_crash(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Crash one agent; restart it (durable state) 12 s later."""
    scenario, engine = _build(seed, num_nodes)
    t0 = scenario.sim.now
    victim = scenario.agents[num_nodes // 2].node_id
    fault_at, restart_after = t0 + 5.0, 12.0
    engine.execute(
        FaultPlan().add(
            CrashNode(at=fault_at, target=victim, restart_after=restart_after)
        )
    )
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)
    return _finish(
        "single-node-crash", seed, scenario, engine, probe,
        fault_time=fault_at,
        heal_time=fault_at + restart_after,
        detection=probe.detection_latency(fault_at, frozenset({victim})),
    )


def run_region_partition(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Partition the server's region from one peer region; heal after 15 s."""
    scenario, engine = _build(seed, num_nodes)
    regions = [r.name for r in scenario.network.topology.regions]
    t0 = scenario.sim.now
    fault_at, heal_after = t0 + 5.0, 15.0
    engine.execute(
        FaultPlan().add(
            PartitionRegions(
                at=fault_at,
                side_a=(regions[0],),
                side_b=(regions[1],),
                heal_after=heal_after,
            )
        )
    )
    far_side = frozenset(
        agent.node_id for agent in scenario.agents if agent.region == regions[1]
    )
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)
    return _finish(
        "region-partition", seed, scenario, engine, probe,
        fault_time=fault_at,
        heal_time=fault_at + heal_after,
        detection=probe.detection_latency(fault_at, far_side),
    )


def run_churn_storm(seed: int = 0, num_nodes: int = 30) -> Dict[str, object]:
    """10% of the fleet leaves while an equal cohort joins, 4 Hz spacing."""
    scenario, engine = _build(seed, num_nodes)
    t0 = scenario.sim.now
    cohort = max(1, num_nodes // 10)
    fault_at, spacing = t0 + 5.0, 0.25
    engine.execute(
        FaultPlan().add(
            ChurnBurst(at=fault_at, joins=cohort, leaves=cohort, spacing=spacing)
        )
    )
    # The storm "heals" once its last action has fired and had a settling
    # period: joins must register and gossip their way into groups.
    heal_time = fault_at + 2 * cohort * spacing + 10.0
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)
    return _finish(
        "churn-storm", seed, scenario, engine, probe,
        fault_time=fault_at,
        heal_time=heal_time,
        detection=None,
    )


def run_server_failover(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Crash the FOCUS server; restart + store recovery 10 s later."""
    scenario, engine = _build(seed, num_nodes)
    t0 = scenario.sim.now
    fault_at, restart_after = t0 + 5.0, 10.0
    engine.execute(
        FaultPlan().add(
            CrashNode(
                at=fault_at,
                target=scenario.service.address,
                restart_after=restart_after,
            )
        )
    )
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)
    return _finish(
        "focus-server-failover", seed, scenario, engine, probe,
        fault_time=fault_at,
        heal_time=fault_at + restart_after,
        detection=probe.timeout_detection_latency(fault_at),
    )


def run_shard_failover(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Crash one shard of a 4-way plane; restart + store recovery 10 s later.

    The victim is the shard owning the probe's routed family (``ram_mb.0``),
    so every probe inside the fault window loses exactly that shard's
    partial answer: probes surface as partial/timed-out results (the router
    merges what the live shards returned), while the other shards keep
    serving their families — the isolation property the sharding buys.
    Recovery mirrors the single-server failover: registrations reload from
    the store, group tables rebuild from representative reports.
    """
    scenario, engine = _build(seed, num_nodes, shards=4)
    plane = scenario.plane
    assert plane is not None and plane.router is not None
    victim = plane.router.shard_map.owner("ram_mb.0")
    victim_service = next(s for s in plane.shards if s.address == victim)
    owned_families = len({
        g.name.split("#", 1)[0].partition("@")[0]
        for g in victim_service.dgm.groups.all_groups()
    })
    t0 = scenario.sim.now
    fault_at, restart_after = t0 + 5.0, 10.0
    engine.execute(
        FaultPlan().add(
            CrashNode(at=fault_at, target=victim, restart_after=restart_after)
        )
    )
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)
    report = _finish(
        "shard-failover", seed, scenario, engine, probe,
        fault_time=fault_at,
        heal_time=fault_at + restart_after,
        detection=probe.timeout_detection_latency(fault_at),
    )
    report["shards"] = len(plane.shards)
    report["victim_shard"] = victim
    report["victim_owned_families"] = owned_families
    return report


# --------------------------------------------------------------- overload
# The three overload scenarios drive the CPU service-time model
# (core/cpumodel.py) and the admission defenses (core/admission.py): a
# flash-crowd query storm, a thundering-herd re-registration burst after a
# partition heal, and hot-key attribute skew that saturates one shard.
# Each report carries an ``asserts`` dict of named booleans — the contract
# the tests (and CI's overload-smoke step) hold.


def _percentile(values: List[float], pct: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class _LoadDriver:
    """Issues an open-loop query schedule through the app client."""

    def __init__(self, scenario: FocusScenario, workload: QueryWorkload) -> None:
        self.scenario = scenario
        self.workload = workload
        #: ``(issued_at, elapsed, ok, source, staleness_ms)`` per completion.
        self.outcomes: List[Tuple[float, float, bool, str, float]] = []

    def schedule(self, start: float, load: OpenLoopLoad) -> None:
        for offset in load.arrival_times():
            self.scenario.sim.schedule_at(start + offset, self._issue)

    def _issue(self) -> None:
        issued_at = self.scenario.sim.now

        def record(response) -> None:
            ok = not response.timed_out and response.error is None
            self.outcomes.append((
                issued_at,
                self.scenario.sim.now - issued_at,
                ok,
                str(response.source),
                float(response.staleness_ms),
            ))

        self.scenario.app.client.query(
            self.workload.next_query(), record, timeout=10.0
        )

    # ------------------------------------------------------------- analysis
    def stats(self, start: float = 0.0, end: float = float("inf")) -> Dict[str, object]:
        window = [o for o in self.outcomes if start <= o[0] < end]
        ok_latencies = [elapsed for _, elapsed, ok, _, _ in window if ok]
        sources: Dict[str, int] = {}
        for _, _, _, source, _ in window:
            sources[source] = sources.get(source, 0) + 1
        return {
            "completed": len(window),
            "served_ok": len(ok_latencies),
            "goodput_fraction": (
                round(len(ok_latencies) / len(window), 4) if window else 0.0
            ),
            "p50_s": round(_percentile(ok_latencies, 50.0), 4),
            "p99_s": round(_percentile(ok_latencies, 99.0), 4),
            "max_s": round(max(ok_latencies), 4) if ok_latencies else 0.0,
            "sources": dict(sorted(sources.items())),
        }


def _storm_config(*, shards: int = 2, breaker: bool = True) -> FocusConfig:
    """A deliberately small serving plane so modest load crosses the knee.

    One core per shard at 20 ms of query CPU gives each shard a capacity
    near 37 q/s on the query bulkhead — a flash crowd in the low hundreds
    of q/s is deep past saturation, yet cheap to simulate.
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
        breaker_enabled=breaker,
        breaker_failure_threshold=0.5,
        breaker_min_volume=8,
        breaker_latency_threshold=2.5,
        breaker_window=32,
        breaker_cooldown=4.0,
        breaker_half_open_probes=2,
    )
    return FocusConfig(
        shards=shards, server_queue_enabled=True, overload=overload,
        query_timeout=6.0,
    )


def _breaker_states(scenario: FocusScenario) -> Dict[str, object]:
    router = scenario.plane.router if scenario.plane is not None else None
    if router is None or router.breakers is None:
        return {"states": {}, "opened": {}, "all_closed": True, "any_opened": False}
    states = {shard: b.state for shard, b in sorted(router.breakers.items())}
    opened = {shard: b.opened_count for shard, b in sorted(router.breakers.items())}
    return {
        "states": states,
        "opened": opened,
        "all_closed": all(s == CircuitBreaker.CLOSED for s in states.values()),
        "any_opened": any(count > 0 for count in opened.values()),
    }


def run_query_storm(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Flash-crowd query storm against a defended two-shard plane.

    Offered load ramps ~8 → 130 q/s against ~75 q/s of query-bulkhead
    capacity. The throttle sheds the excess at the door, the admission
    queue levels the rest, and the contract is: answered queries keep a
    bounded p99 (no Fig. 3 latency blow-up) and every breaker is closed
    again once the storm decays.
    """
    scenario, engine = _build(seed, num_nodes, config=_storm_config())
    t0 = scenario.sim.now
    driver = _LoadDriver(scenario, QueryWorkload(seed=seed + 1))
    phases = flash_crowd_phases(
        baseline_qps=8.0, peak_qps=130.0,
        baseline_s=8.0, ramp_s=8.0, hold_s=16.0, decay_s=12.0,
    )
    load = OpenLoopLoad(phases, seed=seed)
    peak_start, peak_end = t0 + 1.0 + 16.0, t0 + 1.0 + 32.0
    driver.schedule(t0 + 1.0, load)
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 1.0 + load.total_duration + 12.0)

    storm = driver.stats()
    peak = driver.stats(peak_start, peak_end)
    breakers = _breaker_states(scenario)
    shed = sum(s.queries_shed for s in scenario.services)
    throttled = sum(s.queries_throttled for s in scenario.services)
    report = _finish(
        "query-storm", seed, scenario, engine, probe,
        fault_time=peak_start, heal_time=peak_end, detection=None,
    )
    report["offered"] = load.offered
    report["storm"] = storm
    report["peak"] = peak
    report["queries_shed"] = shed
    report["queries_throttled"] = throttled
    report["breakers"] = breakers
    report["asserts"] = {
        # The defended plane never lets answered-query latency blow up.
        "p99_bounded": storm["p99_s"] <= 4.0,
        # Meaningful goodput survives the storm (throttle/shed refusals are
        # fast, explicit refusals — not timeouts).
        "goodput_kept": storm["served_ok"] >= 0.4 * load.offered,
        # Whatever the storm did to the breakers, they re-closed after it.
        "breaker_reclosed": breakers["all_closed"],
    }
    return report


def run_herd_reregistration(seed: int = 0, num_nodes: int = 36) -> Dict[str, object]:
    """Thundering-herd re-registration after a partition heal, bulkheaded.

    A region pair partitions for 8 s; at heal every agent re-registers
    within a 0.5 s window (~70 reg/s against ~60 reg/s of registration-lane
    capacity) while a steady 15 q/s query stream runs. The bulkhead contract:
    the registration path starves zero requests (every herd registration is
    served, none shed) and the query path's p99 stays bounded through the
    herd — neither lane can drown the other.
    """
    config = _storm_config(shards=1, breaker=False)
    scenario, engine = _build(seed, num_nodes, config=config)
    t0 = scenario.sim.now
    regions = [r.name for r in scenario.network.topology.regions]
    fault_at, heal_after = t0 + 5.0, 8.0
    heal_time = fault_at + heal_after
    engine.execute(
        FaultPlan().add(
            PartitionRegions(
                at=fault_at,
                side_a=(regions[0],),
                side_b=(regions[1],),
                heal_after=heal_after,
            )
        )
    )
    service = scenario.services[0]
    served_before = {"registrations": 0}

    def snapshot_lane() -> None:
        served_before["registrations"] = service.register_cpu.requests_served

    scenario.sim.schedule_at(heal_time, snapshot_lane)
    offsets = thundering_herd_offsets(num_nodes, 0.5, seed=seed)
    for agent, offset in zip(scenario.agents, offsets):
        scenario.sim.schedule_at(heal_time + offset, agent.register)

    driver = _LoadDriver(scenario, QueryWorkload(seed=seed + 1))
    load = OpenLoopLoad([LoadPhase(34.0, 15.0)], seed=seed)
    driver.schedule(t0 + 1.0, load)
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 45.0)

    herd_served = service.register_cpu.requests_served - served_before["registrations"]
    herd_window = driver.stats(heal_time, heal_time + 5.0)
    steady = driver.stats()
    registered = sum(1 for agent in scenario.agents if agent.registered)
    report = _finish(
        "herd-reregistration", seed, scenario, engine, probe,
        fault_time=fault_at, heal_time=heal_time, detection=None,
    )
    report["herd_size"] = num_nodes
    report["herd_registrations_served"] = herd_served
    report["herd_window_queries"] = herd_window
    report["steady_queries"] = steady
    report["agents_registered"] = registered
    report["asserts"] = {
        # Zero starved registration path: the lane served every herd
        # re-registration.
        "zero_starved_registrations": herd_served >= num_nodes,
        "all_agents_registered": registered == num_nodes,
        # The query bulkhead held: p99 through the herd stays bounded.
        "query_p99_bounded": herd_window["p99_s"] <= 4.0,
    }
    return report


def run_hot_key_overload(seed: int = 0, num_nodes: int = 24) -> Dict[str, object]:
    """Hot-key skew saturates one shard; its breaker opens, degrades, re-closes.

    90% of queries replay two hot placement keys whose families live on one
    (occasionally two) of four shards. 60 q/s of skewed load against ~37 q/s
    of per-shard capacity drives the owner's admission queue into deadline
    shedding; the router's breaker for that shard trips on the failure rate,
    matching queries degrade to stale cached answers stamped with their true
    ``staleness_ms``, and once the skew subsides the half-open probes
    re-close the breaker.
    """
    overload = OverloadConfig(
        cpu_model_enabled=True,
        cores=1.0,
        per_query_cpu=0.02,
        per_registration_cpu=0.004,
        per_report_cpu=0.002,
        queue_enabled=True,
        queue_capacity=32,
        queue_discipline="lifo",
        queue_deadline=1.5,
        bulkhead_enabled=True,
        bulkhead_query_share=0.75,
        breaker_enabled=True,
        breaker_failure_threshold=0.5,
        breaker_min_volume=8,
        breaker_latency_threshold=2.5,
        breaker_window=32,
        breaker_cooldown=4.0,
        breaker_half_open_probes=2,
    )
    config = FocusConfig(
        shards=4, server_queue_enabled=True, overload=overload, query_timeout=6.0,
    )
    scenario, engine = _build(seed, num_nodes, config=config)
    t0 = scenario.sim.now
    workload = QueryWorkload(seed=seed + 1, hot_key_fraction=0.9, hot_set_size=2)
    driver = _LoadDriver(scenario, workload)
    phases = [LoadPhase(6.0, 5.0), LoadPhase(20.0, 60.0), LoadPhase(14.0, 5.0)]
    load = OpenLoopLoad(phases, seed=seed)
    skew_start, skew_end = t0 + 1.0 + 6.0, t0 + 1.0 + 26.0
    driver.schedule(t0 + 1.0, load)
    probe = ResilienceProbe(scenario)
    probe.schedule(t0 + 1.0, t0 + 38.0)
    scenario.sim.run_until(t0 + 1.0 + load.total_duration + 10.0)

    stats = driver.stats()
    breakers = _breaker_states(scenario)
    stale_served = sum(
        1 for _, _, _, source, _ in driver.outcomes if source == "breaker-stale"
    )
    stale_stamped = all(
        staleness > 0.0
        for _, _, _, source, staleness in driver.outcomes
        if source == "breaker-stale"
    )
    report = _finish(
        "hot-key-overload", seed, scenario, engine, probe,
        fault_time=skew_start, heal_time=skew_end, detection=None,
    )
    report["offered"] = load.offered
    report["load"] = stats
    report["stale_served"] = stale_served
    report["breakers"] = breakers
    report["asserts"] = {
        # The hot shard's breaker actually tripped under the skew...
        "breaker_opened": breakers["any_opened"],
        # ...degraded matching queries to stale answers with honest stamps...
        "stale_fallback_served": stale_served > 0 and stale_stamped,
        # ...and re-closed once the skew subsided (never wedged).
        "breaker_reclosed": breakers["all_closed"],
        "p99_bounded": stats["p99_s"] <= 4.0,
    }
    return report


SCENARIOS = {
    "single-node-crash": run_single_node_crash,
    "region-partition": run_region_partition,
    "churn-storm": run_churn_storm,
    "focus-server-failover": run_server_failover,
    "shard-failover": run_shard_failover,
    "query-storm": run_query_storm,
    "herd-reregistration": run_herd_reregistration,
    "hot-key-overload": run_hot_key_overload,
}


def report_checksum(report: Dict[str, object]) -> str:
    """sha256 of the canonical JSON encoding (the byte-stability contract)."""
    blob = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_suite(
    seed: int = 0, scenarios: Optional[List[str]] = None
) -> Dict[str, object]:
    """Run the named scenarios (default: all) and wrap them in one report."""
    names = scenarios or list(SCENARIOS)
    results = {}
    for name in names:
        results[name] = SCENARIOS[name](seed=seed)
    report: Dict[str, object] = {"report_version": 1, "seed": seed,
                                 "scenarios": results}
    report["checksum"] = report_checksum(results)
    return report


def main(argv=None) -> int:
    """CLI: run the seeded failure suite, write the checksummed report.

    CI runs this on every matrix leg and uploads the JSON as an artifact, so
    a resilience regression shows up as a checksum diff between runs.
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenarios", nargs="*", default=None,
                        choices=sorted(SCENARIOS),
                        help="subset to run (default: every scenario)")
    parser.add_argument("--out", default="resilience_report.json")
    args = parser.parse_args(argv)

    report = run_suite(seed=args.seed, scenarios=args.scenarios)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, result in report["scenarios"].items():
        print(f"{name:22s} detection={result.get('detection_latency_s')}s "
              f"reconvergence={result.get('reconvergence_s')}s")
    print(f"checksum {report['checksum'][:16]}… -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
