"""Saturation-knee benchmark for the overload defenses.

Sweeps open-loop offered query load through the serving plane's saturation
knee twice — once with every admission defense disabled (the bare CPU
service-time model of ``core/cpumodel.py``) and once with the full defense
stack from ``core/admission.py`` (token-bucket throttling, a bounded
admission queue with deadline shedding, bulkhead CPU lanes, and per-shard
circuit breakers) — at identical offered load, fleet, and seed.

The plane is deliberately tiny (two shards, one modeled core each, 20 ms of
query CPU) so the knee sits near 100 q/s undefended / 75 q/s on the
defended query bulkhead and the sweep is cheap to simulate. The load is
**open-loop** (``workloads.querygen.OpenLoopLoad``): arrivals are a seeded
schedule that does not slow down when the server backs up, which is what
exposes the knee — a closed loop self-throttles and hides it.

What the committed numbers must show (and ``main`` enforces):

* **off**, past the knee: goodput collapses (most arrivals time out behind
  an unbounded backlog) and the p99 of the answers that do land blows up
  toward the query timeout;
* **on**, at the same offered load: early, cheap shedding keeps the served
  rate at >= ``GOODPUT_FLOOR_FRACTION`` of the pre-knee peak and the
  admission queue's deadline keeps p99 under ``P99_BOUND_S``. Deep past the
  knee part of that served rate is the circuit breaker's degraded path —
  stale router-cache answers explicitly stamped with ``staleness_ms`` — so
  each point also reports its ``served_stale`` share.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_overload.py            # full, ~2 min
    PYTHONPATH=src python benchmarks/bench_overload.py --quick    # smoke, ~30 s

Results (both load curves, per-point shed/throttle/breaker counters, the
knee verdict booleans, and a pinned determinism checksum) are written to
``BENCH_overload.json`` (or ``BENCH_overload.quick.json`` under
``--quick``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.admission import OverloadConfig
from repro.core.config import FocusConfig
from repro.gossip.agent import SerfConfig
from repro.harness import build_focus_cluster
from repro.workloads import node_spec_factory
from repro.workloads.querygen import LoadPhase, OpenLoopLoad, QueryWorkload

SETTLE_S = 3.0
NUM_NODES = 24
SHARDS = 2
#: Offered-load points (aggregate q/s) swept in each arm. The undefended
#: plane saturates near 100 q/s (2 shards x 1 core / 20 ms); the defended
#: query bulkhead near 75 q/s. Points at or below ``KNEE_QPS`` are
#: "pre-knee" when computing the defended arm's peak served rate.
FULL_POINTS = (30.0, 60.0, 100.0, 140.0, 200.0)
QUICK_POINTS = (30.0, 60.0, 200.0)
KNEE_QPS = 75.0
FULL_WINDOW_S = 20.0
QUICK_WINDOW_S = 8.0
#: Completions are collected this long past the last arrival, so slow
#: answers (the query timeout is 6 s) are counted rather than truncated.
TAIL_S = 12.0

#: Acceptance bars enforced on the defended arm at the deepest overload
#: point, and re-asserted against the committed baseline by the gate.
GOODPUT_FLOOR_FRACTION = 0.8
P99_BOUND_S = 3.0
#: The undefended arm at the deepest point must lose at least half its
#: arrivals and answer the survivors slower than the defended p99 bound.
OFF_COLLAPSE_CEILING = 0.5


def overload_config(defenses: bool) -> OverloadConfig:
    """The CPU model alone (``defenses=False``) or the full defense stack.

    Both arms share the same modeled capacity (one core per shard, 20 ms
    per query), so the only difference past the knee is what the plane does
    about the excess. The breaker's failure threshold sits above the
    steady-state shed rate of a fully saturated point (~60% of forwarded
    queries answered with a shed/throttle error), so sustained *intentional*
    load shedding does not flap the breaker — it stays armed for actual
    shard failure, which the failure suite exercises separately.
    """
    config = OverloadConfig(
        cpu_model_enabled=True,
        cores=1.0,
        per_query_cpu=0.02,
        per_registration_cpu=0.004,
        per_report_cpu=0.002,
    )
    if defenses:
        config.throttle_enabled = True
        config.throttle_rate = 80.0
        config.throttle_burst = 40.0
        config.queue_enabled = True
        config.queue_capacity = 64
        config.queue_discipline = "fifo"
        config.queue_deadline = 2.0
        config.bulkhead_enabled = True
        config.bulkhead_query_share = 0.75
        config.breaker_enabled = True
        config.breaker_failure_threshold = 0.85
        config.breaker_min_volume = 8
        config.breaker_latency_threshold = None
        config.breaker_window = 32
        config.breaker_cooldown = 4.0
        config.breaker_half_open_probes = 2
    return config


def bench_config(defenses: bool) -> FocusConfig:
    """Two-shard serving plane with the chosen overload posture."""
    return FocusConfig(
        shards=SHARDS,
        server_queue_enabled=True,
        query_timeout=6.0,
        report_interval=15.0,
        overload=overload_config(defenses),
        serf=SerfConfig(probe_interval=4.0, sync_interval=120.0),
    )


def percentile(values: List[float], fraction: float) -> float:
    """The ``fraction``-quantile of a list (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def open_loop(
    scenario,
    workload: QueryWorkload,
    load: OpenLoopLoad,
) -> List[Tuple[float, float, bool, bool, str]]:
    """Issue ``load``'s arrival schedule; collect completions through a tail.

    Returns ``(issued_at, elapsed, ok, timed_out, source)`` per completed
    query. Unlike the closed loop in ``bench_shards.py``, arrivals fire on
    schedule regardless of how far the server has backed up.
    """
    start = scenario.sim.now
    outcomes: List[Tuple[float, float, bool, bool, str]] = []

    def issue() -> None:
        issued_at = scenario.sim.now

        def record(response) -> None:
            ok = not response.timed_out and response.error is None
            outcomes.append((
                issued_at,
                scenario.sim.now - issued_at,
                ok,
                bool(response.timed_out),
                str(response.source),
            ))

        scenario.app.client.query(workload.next_query(), record, timeout=10.0)

    for offset in load.arrival_times():
        scenario.sim.schedule_at(start + offset, issue)
    scenario.sim.run_until(start + load.total_duration + TAIL_S)
    return outcomes


def plane_counters(scenario) -> Dict[str, int]:
    """Shed/throttle/breaker counters summed over the plane's shards."""
    counters = {
        "queries_throttled": 0,
        "queries_shed": 0,
        "queue_shed_capacity": 0,
        "queue_shed_deadline": 0,
        "breaker_opened": 0,
    }
    for shard in scenario.plane.shards:
        counters["queries_throttled"] += shard.queries_throttled
        counters["queries_shed"] += shard.queries_shed
        if shard.admission is not None:
            counters["queue_shed_capacity"] += shard.admission.shed_capacity
            counters["queue_shed_deadline"] += shard.admission.shed_deadline
    router = scenario.plane.router
    if router is not None and router.breakers is not None:
        counters["breaker_opened"] = sum(
            breaker.opened_count for breaker in router.breakers.values()
        )
    return counters


def run_point(
    offered_qps: float,
    defenses: bool,
    window_s: float,
    *,
    seed: int = 42,
) -> dict:
    """Measure one (offered load, defense posture) point."""
    scenario = build_focus_cluster(
        NUM_NODES,
        seed=seed,
        config=bench_config(defenses),
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=seed),
    )
    scenario.sim.run_until(SETTLE_S)
    # hot_key_fraction=0 keeps every query's cache key effectively unique,
    # so the sweep measures the CPU knee rather than the router cache.
    workload = QueryWorkload(seed=seed, limit=10)
    load = OpenLoopLoad(
        [LoadPhase(window_s, offered_qps)], seed=seed, jitter=0.25
    )
    outcomes = open_loop(scenario, workload, load)
    offered = load.offered
    ok_latencies = [elapsed for _, elapsed, ok, _, _ in outcomes if ok]
    timed_out = sum(1 for o in outcomes if o[3])
    sources: Dict[str, int] = {}
    served_stale = 0
    for _, _, ok, _, source in outcomes:
        sources[source] = sources.get(source, 0) + 1
        if ok and source == "breaker-stale":
            served_stale += 1
    return {
        "offered": offered,
        "offered_qps": round(offered / window_s, 2),
        "completed": len(outcomes),
        "served_ok": len(ok_latencies),
        "served_qps": round(len(ok_latencies) / window_s, 2),
        "goodput_fraction": (
            round(len(ok_latencies) / offered, 4) if offered else 0.0
        ),
        "served_stale": served_stale,
        "timed_out": timed_out,
        "sources": dict(sorted(sources.items())),
        "p50_s": round(percentile(ok_latencies, 0.50), 4),
        "p99_s": round(percentile(ok_latencies, 0.99), 4),
        "max_s": round(max(ok_latencies), 4) if ok_latencies else 0.0,
        "counters": plane_counters(scenario),
    }


def knee_verdict(points: Dict[str, dict]) -> dict:
    """The four acceptance booleans over a completed off/on sweep."""
    offered_sorted = sorted(points, key=float)
    deepest = points[offered_sorted[-1]]
    preknee_served = [
        p["on"]["served_qps"] for p in points.values()
        if p["offered_qps"] <= KNEE_QPS
    ]
    peak = max(preknee_served) if preknee_served else 0.0
    off_deep, on_deep = deepest["off"], deepest["on"]
    return {
        "knee_qps": KNEE_QPS,
        "deepest_offered_qps": deepest["offered_qps"],
        "on_peak_preknee_qps": peak,
        "on_served_at_deepest_qps": on_deep["served_qps"],
        "on_stale_fraction_at_deepest": (
            round(on_deep["served_stale"] / on_deep["served_ok"], 4)
            if on_deep["served_ok"] else 0.0
        ),
        "off_collapses": off_deep["goodput_fraction"] <= OFF_COLLAPSE_CEILING,
        "off_p99_blowup": off_deep["p99_s"] > P99_BOUND_S,
        "on_goodput_floor": (
            on_deep["served_qps"] >= GOODPUT_FLOOR_FRACTION * peak
        ),
        "on_p99_bounded": all(
            p["on"]["p99_s"] <= P99_BOUND_S for p in points.values()
        ),
    }


def bench_knee_sweep(quick: bool) -> dict:
    """Both arms over every offered-load point, plus the knee verdict."""
    offered_points = QUICK_POINTS if quick else FULL_POINTS
    window_s = QUICK_WINDOW_S if quick else FULL_WINDOW_S
    points: Dict[str, dict] = {}
    for offered_qps in offered_points:
        point: Dict[str, object] = {"offered_qps": offered_qps}
        for label, defenses in (("off", False), ("on", True)):
            gc.collect()
            point[label] = run_point(offered_qps, defenses, window_s)
        points[f"{offered_qps:g}"] = point
    return {
        "nodes": NUM_NODES,
        "shards": SHARDS,
        "window_s": window_s,
        "offered_points": [f"{q:g}" for q in offered_points],
        "points": points,
        "knee": knee_verdict(points),
    }


BENCHES: Dict[str, Callable[[bool], dict]] = {
    "knee_sweep": bench_knee_sweep,
}


def determinism_checksum(seed: int = 1) -> str:
    """Digest of a small fixed-size seeded overload run.

    The run's shape (24 agents, defended 2-shard plane, a 6 s / 120 q/s
    open-loop burst — deep past the knee, so throttle, queue, and shed
    paths all fire) is identical in quick and full mode, so the pinned
    checksum gates both. The digest covers every completion (issue time,
    sojourn, verdict, source) plus the plane's final shed counters.
    """
    scenario = build_focus_cluster(
        NUM_NODES,
        seed=seed,
        config=bench_config(True),
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=seed),
    )
    scenario.sim.run_until(SETTLE_S)
    workload = QueryWorkload(seed=seed, limit=10)
    load = OpenLoopLoad([LoadPhase(6.0, 120.0)], seed=seed, jitter=0.25)
    outcomes = open_loop(scenario, workload, load)
    summary = {
        "outcomes": [
            [round(issued_at, 6), round(elapsed, 6), ok, timed_out, source]
            for issued_at, elapsed, ok, timed_out, source in outcomes
        ],
        "counters": plane_counters(scenario),
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    """Run the sweep, write the report, and enforce the knee invariants."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer points and a shorter window, for CI "
                             "smoke runs")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_overload.json, "
                             "or BENCH_overload.quick.json under --quick so "
                             "smoke runs never clobber the committed "
                             "full-mode baseline)")
    parser.add_argument("--only", choices=sorted(BENCHES),
                        help="run a single benchmark")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = ("BENCH_overload.quick.json" if args.quick
                    else "BENCH_overload.json")

    results: Dict[str, object] = {}
    names = [args.only] if args.only else list(BENCHES)
    for name in names:
        gc.collect()
        result = BENCHES[name](args.quick)
        results[name] = result
        for offered, point in result["points"].items():
            for label in ("off", "on"):
                arm = point[label]
                print(f"knee_sweep {offered:>4s} q/s {label:>3s}  "
                      f"served {arm['served_qps']:>6.1f} q/s "
                      f"goodput {arm['goodput_fraction']:.3f} "
                      f"p50 {arm['p50_s']:.2f}s p99 {arm['p99_s']:.2f}s "
                      f"({arm['served_stale']} stale, "
                      f"{arm['timed_out']} timed out)")
        print(f"knee verdict: {json.dumps(result['knee'], sort_keys=True)}")

    gc.collect()
    checksum_a = determinism_checksum()
    checksum_b = determinism_checksum()
    stable = checksum_a == checksum_b
    print(f"determinism checksum       {checksum_a[:16]}… "
          f"({'stable' if stable else 'UNSTABLE'})")

    report = {
        "benchmark": "overload defenses saturation knee",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
        "determinism": {"checksum": checksum_a, "stable": stable},
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    failures = []
    if not stable:
        failures.append("determinism checksum is unstable across runs")
    sweep = results.get("knee_sweep")
    if sweep is not None:
        knee = sweep["knee"]
        if not knee["off_collapses"]:
            failures.append(
                "undefended arm did not collapse past the knee (goodput "
                f"fraction above {OFF_COLLAPSE_CEILING})"
            )
        if not knee["off_p99_blowup"]:
            failures.append(
                f"undefended arm's p99 stayed under {P99_BOUND_S}s past the "
                "knee — the sweep is not reaching saturation"
            )
        if not knee["on_goodput_floor"]:
            failures.append(
                f"defended arm served {knee['on_served_at_deepest_qps']} q/s "
                f"at the deepest point; the floor is "
                f"{GOODPUT_FLOOR_FRACTION:.1f}x the pre-knee peak of "
                f"{knee['on_peak_preknee_qps']} q/s"
            )
        if not knee["on_p99_bounded"]:
            failures.append(
                f"defended arm's p99 exceeded {P99_BOUND_S}s at some point "
                "in the sweep"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
