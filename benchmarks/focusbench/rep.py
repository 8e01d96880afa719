"""One rep: build, warm up, generate, time the steady phase, check it.

Runs in a fresh single-threaded subprocess started by ``run.py``. Every
number is taken from outside the program: ``perf_counter`` spans around the
calls into the harness, ``gc.callbacks``, ``ru_maxrss``, an optional
``cProfile`` around the steady phase only, and the counters the program
already exposes, read before and after the steady phase.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import resource
import time
from typing import Dict, List, Optional

from benchmarks.focusbench.ledger import Ledger
from benchmarks.focusbench.oracle import Oracle
from benchmarks.focusbench.workloads import (
    SERVE_RAMP_RATES,
    WORKLOADS,
    Plan,
    Span,
    Workload,
)
from repro.harness import FocusScenario

#: Deliberate fast refusals of the defended serving plane. They count
#: against ``sim_answered_frac`` but are definitive, correct responses, so
#: they are not operations that failed.
REFUSALS = ("throttled", "shed-", "breaker-open")

#: Sim seconds given to messages still in flight once every process stopped.
DRAIN_SIM_S = 5.0

#: The steady phase is timed in this many equal sim-time slices.
STEADY_SLICES = 100


# ------------------------------------------------------------------ counters
def _counter(registry, name: str) -> float:
    counter = registry.get_counter(name)
    return counter.value if counter is not None else 0.0


def read_counters(scenario: FocusScenario) -> Dict[str, float]:
    """Raw totals of the program's public counters, summed over shards."""
    net = scenario.network.metrics
    services = scenario.services
    router = scenario.plane.router
    front = router if router is not None else scenario.service
    totals = {
        "events": float(scenario.sim.events_processed),
        "messages_sent": _counter(net, "messages_sent"),
        "bytes_sent": _counter(net, "bytes_sent"),
        "messages_delivered": _counter(net, "messages_delivered"),
        "messages_dropped": _counter(net, "messages_dropped"),
        "rpc_timeouts": _counter(net, "rpc.timeouts"),
        "rpc_late_replies": _counter(net, "rpc.late_replies"),
        "store_stale_reads": _counter(net, "store.stale_reads"),
        "store_hints_replayed": _counter(net, "store.hints_replayed"),
        "front_queries": _counter(front.metrics, "queries"),
        "front_cache_hits": float(front.cache.hits),
        "front_cache_misses": float(front.cache.misses),
        "scatter_queries": 0.0,
        "query_cpu_busy_s": 0.0,
        "query_cpu_cores": 0.0,
    }
    if router is not None:
        totals["scatter_queries"] = _counter(router.metrics, "scatter_queries")
    for name in ("group_queries", "query_timeouts", "registrations",
                 "suggestions", "group_forks"):
        totals[name] = sum(_counter(s.metrics, name) for s in services)
    totals["queries_throttled"] = float(sum(s.queries_throttled for s in services))
    totals["queries_shed"] = float(sum(s.queries_shed for s in services))
    for service in services:
        if service.query_cpu is not None:
            totals["query_cpu_busy_s"] += service.query_cpu.busy_accum
            totals["query_cpu_cores"] += service.query_cpu.cores
    return totals


# ------------------------------------------------------------------- helpers
def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Every query ends in exactly one of these. ``ok`` is answered; ``refused``
#: and ``partial`` are definitive responses that say what they are (an
#: overload refusal; an answer the server flagged ``timed_out``, or one
#: missing matches while the plane was offered more than its knee); the
#: last four are operations that failed.
OUTCOMES = ("ok", "refused", "partial", "timeout", "errored", "unanswered", "wrong")
FAILED_OUTCOMES = ("timeout", "errored", "unanswered", "wrong")


def classify(span: Span) -> str:
    """The outcome the response itself declares (the oracle may overrule
    ``ok`` and ``partial``)."""
    response = span.response
    if response is None:
        return "unanswered"
    if response.source == "timeout":  # the client gave up; no server response
        return "timeout"
    if response.error is not None:
        if any(response.error.startswith(prefix) for prefix in REFUSALS):
            return "refused"
        return "errored"
    return "partial" if response.timed_out else "ok"


class _GcWatch:
    """Collector pauses seen through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            if info["generation"] == 2:
                self.gen2_collections += 1


def _drain(scenario: FocusScenario) -> None:
    """Stop every process and let what is in flight land or drop."""
    for agent in scenario.agents:
        agent.stop()
    plane = scenario.plane
    for server in [*plane.shards, plane.router, *plane.replicas]:
        if server is not None:
            server.stop()
    scenario.app.stop()
    if scenario.store is not None:
        scenario.store.stop()
    scenario.sim.run_until(scenario.sim.now + DRAIN_SIM_S)


class SpeedProbe:
    """A fixed pure-Python kernel, timed next to every measured region.

    This box runs up to twice slower for many minutes at a time, and slower
    still for fractions of a second; ``run.py`` uses the kernel's time to
    state host times at one reference speed. The kernel makes 8000 random
    reads over a byte table and allocates no container, so it never triggers
    the collector. The table is sized per workload (``Workload.probe_bytes``)
    so that the kernel is as memory-bound as the workload: a slowdown of the
    shared L3 and memory must move both by the same factor.
    """

    def __init__(self, table_bytes: int) -> None:
        # Real bytes, not calloc'ed zero pages that all map to one frame.
        self._table = bytearray(bytes(range(256)) * (table_bytes // 256))

    def __call__(self) -> float:
        table = self._table
        mask = len(table) - 1
        index = 1
        checksum = 0
        started = time.perf_counter()
        for _ in range(8000):
            index = (index * 1103515245 + 12345) & mask
            checksum = (checksum + table[index]) & 0xFFFFFF
        return time.perf_counter() - started


def _run_steady(
    scenario: FocusScenario, plan: Plan, probe: Optional[SpeedProbe]
) -> Dict[str, List[float]]:
    """Run the steady phase in equal sim-time slices.

    Returns the host seconds of each slice and of the speed probe run after
    it. Every rep does identical work slice by slice, so a slowdown that hit
    one rep's slice can be told from the work itself.
    """
    span = plan.end_time - plan.start_time
    edges = [plan.start_time + span * (i + 1) / STEADY_SLICES
             for i in range(STEADY_SLICES - 1)] + [plan.end_time]
    slices_s: List[float] = []
    probes_s: List[float] = []
    for edge in edges:
        started = time.perf_counter()
        scenario.sim.run_until(edge)
        slices_s.append(time.perf_counter() - started)
        if probe is not None:
            probes_s.append(probe())
    return {"slices_s": slices_s, "probes_s": probes_s}


# ----------------------------------------------------------------------- rep
#: What a rep does: time set-up only, or also the steady phase, or also
#: profile the steady phase.
MODES = ("setup", "untraced", "traced")


def run_rep(workload_name: str, seed: int, scale: str, mode: str) -> Dict[str, object]:
    if mode not in MODES:
        raise ValueError(f"unknown rep mode {mode!r}; expected one of {MODES}")
    workload = WORKLOADS[workload_name]
    sizes = workload.sizes[scale]
    traced = mode == "traced"
    probe = SpeedProbe(workload.probe_bytes)

    # One probe right after each set-up block, while the caches hold that
    # block's heap and not the probe's table, as after a steady slice.
    t0 = time.perf_counter()
    scenario = workload.build(seed, sizes)
    t1 = time.perf_counter()
    probe_after_build = probe()
    t2 = time.perf_counter()
    workload.warm_up(scenario, seed, sizes)
    t3 = time.perf_counter()
    probe_after_warmup = probe()
    host: Dict[str, object] = {
        "build_s": t1 - t0,
        "warmup_s": t3 - t2,
        "setup_s": (t1 - t0) + (t3 - t2),
        "setup_probe_s": (probe_after_build + probe_after_warmup) / 2.0,
        "probe_reference_s": workload.probe_reference_s,
    }
    result: Dict[str, object] = {
        "workload": workload_name, "seed": seed, "scale": scale, "mode": mode,
        "host": host,
    }
    if mode == "setup":
        return result

    t4 = time.perf_counter()
    plan = workload.generate(scenario, seed, sizes)
    host["generate_s"] = time.perf_counter() - t4

    scenario.reset_bandwidth()
    before = read_counters(scenario)
    profile = cProfile.Profile() if traced else None
    # The traced rep carries no gc callback: it would be profiled as driver
    # code and make call counts depend on collector timing.
    watch = None if traced else _GcWatch()
    gc.collect()
    if watch is not None:
        gc.callbacks.append(watch)
    if profile is not None:
        profile.enable()
    host.update(_run_steady(scenario, plan, None if traced else probe))
    if profile is not None:
        profile.disable()
    if watch is not None:
        gc.callbacks.remove(watch)
    host.update(
        run_s=sum(host["slices_s"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        gc_pause_s=watch.pause_s if watch else 0.0,
        gc_gen2_collections=watch.gen2_collections if watch else 0,
    )
    after = read_counters(scenario)
    steady = {name: after[name] - before[name] for name in after}
    steady["query_cpu_cores"] = after["query_cpu_cores"]
    # A registration asks for one group suggestion per dynamic attribute;
    # every other suggestion is a move.
    steady["moves"] = steady["suggestions"] - steady["registrations"] * len(
        scenario.config.schema.dynamic()
    )
    sim_span_s = plan.end_time - plan.start_time

    server_bytes = scenario.server_bandwidth_bytes()
    node_bytes = [
        sum(scenario.network.meter(a).total_bytes for a in agent.endpoint_addresses())
        for agent in scenario.agents
    ]
    result.update(_judge(scenario, plan, workload))
    result["sim"].update(
        sim_span_s=sim_span_s,
        sim_server_kbps=server_bytes / 1000.0 / sim_span_s,
        sim_node_kbps=sum(node_bytes) / len(node_bytes) / 1000.0 / sim_span_s,
    )
    result["counts"] = steady
    result["conservation"] = _conservation(scenario, after)
    result["digest"] = _digest(result)
    if profile is not None:
        ledger = Ledger(profile)
        result["ledger"] = {
            "rows": ledger.rows(int(steady["events"])),
            "total_self_s": ledger.total_s,
            "total_calls": ledger.total_calls,
        }
    return result


def _judge(
    scenario: FocusScenario, plan: Plan, workload: Workload
) -> Dict[str, object]:
    """Outcome classes, oracle verdicts and sim-time latency metrics."""
    plan.log.admit(scenario)
    oracle = Oracle(plan.log, static=workload.static)
    spans = plan.board.spans
    outcomes = {outcome: 0 for outcome in OUTCOMES}
    wrong: List[Dict[str, object]] = []
    degraded: List[Dict[str, object]] = []
    ok_latency: List[float] = []
    ok_by_phase: Dict[str, List[float]] = {label: [] for label, _, _ in plan.phases}
    sent_by_phase: Dict[str, int] = {label: 0 for label, _, _ in plan.phases}
    breaker_stale = 0
    for span in spans:
        phase = next(
            (label for label, first, last in plan.phases
             if first <= span.send_at < last),
            None,
        )
        if phase is not None:
            sent_by_phase[phase] += 1
        outcome = classify(span)
        if outcome in ("ok", "partial"):
            kind, reason = oracle.violation(span)
            if kind == "incomplete" and phase in workload.overload_phases:
                outcome = "partial"
                degraded.append({"id": span.id, "reason": reason})
            elif kind:
                outcome = "wrong"
                wrong.append({"id": span.id, "reason": f"{kind}: {reason}"})
        outcomes[outcome] += 1
        if outcome != "ok":
            continue
        ok_latency.append(span.latency)
        if span.response.source == "breaker-stale":
            breaker_stale += 1
        if phase is not None:
            ok_by_phase[phase].append(span.latency)
    ok_latency.sort()
    attempted = len(spans)
    tail_p = workload.tail_percentile
    # Every workload reports every phase metric; a phase it lacks reads 0.
    phases = {
        f"r{rate}": {"sent": 0, "p99_ms": 0.0, "goodput_frac": 0.0}
        for rate in SERVE_RAMP_RATES
    }
    for label in ok_by_phase:
        latencies = sorted(ok_by_phase[label])
        phases[label] = {
            "sent": sent_by_phase[label],
            "p99_ms": percentile(latencies, 99) * 1000.0,
            "goodput_frac": len(latencies) / sent_by_phase[label],
        }
    return {
        "attempted": attempted,
        "outcomes": outcomes,
        "failed": sum(outcomes[outcome] for outcome in FAILED_OUTCOMES),
        "wrong": wrong,
        "degraded": degraded,
        "max_lateness_sim_s": max(span.lateness for span in spans),
        "sim": {
            "sim_query_p50_ms": percentile(ok_latency, 50) * 1000.0,
            "sim_query_tail_ms": percentile(ok_latency, tail_p) * 1000.0,
            "tail_percentile": tail_p,
            "tail_samples": len(ok_latency),
            "tail_samples_beyond": len(ok_latency)
            - math.ceil(tail_p / 100.0 * len(ok_latency)),
            "sim_answered_frac": outcomes["ok"] / attempted,
            "breaker_stale": breaker_stale,
            "phases": phases,
        },
        "spans": [span.to_json() for span in spans],
    }


def _unaccounted(counters: Dict[str, float]) -> float:
    """Messages sent but neither delivered nor dropped."""
    return (
        counters["messages_sent"]
        - counters["messages_delivered"]
        - counters["messages_dropped"]
    )


def _conservation(
    scenario: FocusScenario, at_end: Dict[str, float]
) -> Dict[str, object]:
    """``sent = delivered + dropped + in flight``, proven by draining."""
    in_flight = _unaccounted(at_end)
    _drain(scenario)
    residue = _unaccounted(read_counters(scenario))
    return {
        "in_flight_at_end": in_flight,
        "residue_after_drain": residue,
        "holds": in_flight >= 0 and residue == 0,
    }


def _digest(result: Dict[str, object]) -> str:
    """SHA-256 over everything simulated: metrics, counts and every span."""
    simulated = {
        key: result[key]
        for key in ("attempted", "outcomes", "failed", "wrong", "degraded", "sim",
                    "counts", "spans", "conservation")
    }
    blob = json.dumps(simulated, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
