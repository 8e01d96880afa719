"""Microbenchmarks for the simulation kernel's hot paths.

Unlike the ``bench_fig*`` files (which regenerate the paper's figures), this
harness measures the kernel itself: the event loop and the network send
path. The send point also times a **naive reference** — per-recipient
``approx_size``, the pre-optimization path — so the speedup stays visible and
regressions are measurable long after the old code is gone. The scheduler,
timer and full-protocol points are single-arm throughput numbers: the kernel
has one implementation of each, and its oracles live in ``tests/oracles/``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_kernel.py            # full, ~8 min
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick    # smoke, ~30 s

Results (ops/sec before/after plus a determinism checksum) are written to
``BENCH_kernel.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.gossip.agent import SerfAgent, SerfConfig
from repro.gossip.membership import NodeDirectory, seed_converged
from repro.gossip.swim import SwimAgent, SwimConfig
from repro.sim import Network, Simulator, Topology
from repro.sim.network import SizedPayload


# --------------------------------------------------------------------- timing
def measure(fn: Callable[[], int], min_seconds: float = 0.4) -> float:
    """Call ``fn`` (which returns an op count) until ``min_seconds`` elapse;
    return ops/sec."""
    ops = 0
    start = time.perf_counter()
    while True:
        ops += fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return ops / elapsed


# ----------------------------------------------------------------- workloads
def bench_send_fanout(quick: bool) -> Dict[str, object]:
    """Same payload to many recipients: per-recipient sizing vs SizedPayload."""
    fanout = 64
    rounds = 30 if quick else 150
    payload = {
        "u": [
            {"t": "m", "n": f"node-{i:05d}", "a": f"addr-{i:05d}",
             "r": "us-east-2", "i": i, "s": "alive"}
            for i in range(16)
        ]
    }

    class Sink:
        region = "us-east-2"

        def __init__(self, address: str) -> None:
            self.address = address

        def handle_message(self, message) -> None:
            pass

    def build() -> Tuple[Simulator, Network]:
        sim = Simulator(seed=1)
        network = Network(sim, Topology(), jitter_fraction=0.0)
        for i in range(fanout + 1):
            network.register(Sink(f"s{i}"))
        return sim, network

    def run_per_recipient_sizing() -> int:
        sim, network = build()
        for _ in range(rounds):
            for i in range(1, fanout + 1):
                network.send("s0", f"s{i}", "gossip", payload)
        sim.run_until(10.0)
        return rounds * fanout

    def run_memoized_sizing() -> int:
        sim, network = build()
        for _ in range(rounds):
            packet = SizedPayload(payload)
            for i in range(1, fanout + 1):
                network.send("s0", f"s{i}", "gossip", packet)
        sim.run_until(10.0)
        return rounds * fanout

    naive = measure(run_per_recipient_sizing)
    optimized = measure(run_memoized_sizing)
    return {
        "fanout": fanout,
        "naive_ops_per_sec": naive,
        "optimized_ops_per_sec": optimized,
        "speedup": optimized / naive,
    }


#: PR 1's committed event_loop throughput (one-shot schedule burst on the
#: single-heap scheduler, one new queue event and handle per timer firing).
#: The scheduler as shipped, the binary heap with one queued event per
#: timer that the timer re-queues at each firing, must clear >=2x this
#: number at 1600-node SWIM timer density.
PR1_EVENT_LOOP_BASELINE = 273_782.05


def _timer_density_run(nodes: int, duration: float) -> Tuple[int, float]:
    """One SWIM-density timer storm: every node runs a 1 s probe timer and a
    100 ms gossip timer (the paper's node-agent cadence), with per-timer
    jitter. Returns (events_processed, elapsed_seconds) for the run itself;
    timer registration happens outside the timed region."""
    from repro.sim.loop import RepeatingTimer

    sim = Simulator(seed=7)
    counts = [0]

    def tick() -> None:
        counts[0] += 1

    for i in range(nodes):
        RepeatingTimer(sim, 1.0, tick, 0.1, sim.rng).start(
            start_delay=(i % 10) * 0.01
        )
        RepeatingTimer(sim, 0.1, tick, 0.01, sim.rng).start(
            start_delay=(i % 7) * 0.005
        )
    start = time.perf_counter()
    sim.run_until(duration)
    elapsed = time.perf_counter() - start
    assert counts[0] == sim.events_processed  # every event is a timer firing
    return sim.events_processed, elapsed


def _best_rate(runs: int, fn: Callable[[], Tuple[int, float]]) -> Tuple[int, float]:
    """Best events/sec over ``runs`` attempts (min-noise estimator)."""
    best = 0.0
    events = 0
    for _ in range(runs):
        ev, elapsed = fn()
        events = ev
        best = max(best, ev / elapsed)
    return events, best


def bench_event_loop(quick: bool) -> Dict[str, object]:
    """Event-loop throughput at SWIM timer density (binary-heap queue, one
    queued event per timer, re-queued at each firing), against PR 1's
    committed single-heap number."""
    nodes = 400 if quick else 1600
    duration = 5.0 if quick else 10.0
    runs = 1 if quick else 3
    events, rate = _best_rate(
        runs, lambda: _timer_density_run(nodes, duration)
    )
    return {
        "nodes": nodes,
        "events": events,
        "ops_per_sec": rate,
        "pr1_baseline_ops_per_sec": PR1_EVENT_LOOP_BASELINE,
        "speedup_vs_pr1_baseline": rate / PR1_EVENT_LOOP_BASELINE,
    }


def bench_timer_storm(quick: bool) -> Dict[str, object]:
    """Timer churn: nodes restart their timers and schedule-then-cancel
    probe-timeout one-shots every round. A stopped timer's one queued event
    and a cancelled one-shot stay in the heap, cancelled, until they surface
    and are skipped; a live timer re-queues its event at each firing."""
    nodes = 200 if quick else 800
    rounds = 10 if quick else 20

    def run() -> Tuple[int, float]:
        sim = Simulator(seed=11)
        timers = {}

        def tick() -> None:
            pass

        def churn(round_no: int) -> None:
            # A rotating 10% of nodes crash and rejoin: their periodic
            # timers stop (their events cancelled in place) and fresh ones
            # start.
            for i in range(nodes // 10):
                victim = (round_no * nodes // 10 + i) % nodes
                timers[victim].stop()
                timers[victim] = sim.call_every(0.1, tick, jitter=0.01)
            # Probe-timeout pattern: schedule a deadline, cancel most of
            # them shortly after (acks usually win the race).
            for i in range(nodes // 2):
                handle = sim.schedule(0.3, tick)
                if i % 4:
                    sim.schedule(0.1, handle.cancel)

        for i in range(nodes):
            timers[i] = sim.call_every(0.1, tick, jitter=0.01)
        for r in range(rounds):
            sim.schedule_at(r * 1.0 + 0.5, churn, r)
        start = time.perf_counter()
        sim.run_until(rounds * 1.0)
        return sim.events_processed, time.perf_counter() - start

    events, rate = _best_rate(1 if quick else 3, run)
    return {"nodes": nodes, "events": events, "ops_per_sec": rate}


#: Pre-PR full-protocol throughput at 6400 nodes (dict membership, one timer
#: per agent per cadence), measured on unmodified HEAD with the exact
#: ``_swim_full_run`` workload below. The vectorized-membership PR's
#: acceptance bar is >=2x this number on the same workload.
PR3_SWIM_FULL_6400_BASELINE = 5_865.0

#: Times at which the sweep's group-wide queries fire (simulated seconds).
_SWEEP_QUERY_TIMES = (0.5, 1.5, 2.5)


def _swim_full_run(
    nodes: int,
    duration: float,
    gc_stats: Dict[str, object] = None,
) -> Tuple[int, float, str]:
    """One full-protocol run: every node probes, gossips, syncs, and answers
    group-wide queries for ``duration`` simulated seconds.

    The workload is frozen — the committed ``PR3_SWIM_FULL_6400_BASELINE``
    was measured with exactly this setup, so any edit here invalidates the
    constant. The full mesh is pre-seeded (the paper's converged steady
    state) outside the timed region so the sweep measures protocol
    operation, not an O(N^2) join storm. Returns
    ``(events, elapsed_seconds, checksum)``; the checksum digests event
    counts, query completions, metrics counters, and one agent's bandwidth
    meter.

    The warm population is GC-frozen before the timed region (and unfrozen
    after, so back-to-back runs in one process don't pin each other's
    garbage); freezing moves no event or draw. The freeze report —
    ``gc.get_stats()`` before/after plus the tuned thresholds — is written
    into ``gc_stats`` when the caller passes a dict.
    """
    sim = Simulator(seed=13)
    topology = Topology()
    network = Network(sim, topology)
    regions = [r.name for r in topology.regions]
    config = SerfConfig(sync_interval=30.0)
    directory = NodeDirectory()
    agents = []
    for i in range(nodes):
        agent = SerfAgent(
            sim, network, f"n{i}", f"a{i}", regions[i % len(regions)], config,
            directory=directory,
        )
        agents.append(agent)
    seed_converged(
        [agent.members for agent in agents],
        [(agent.name, agent.address, agent.region) for agent in agents],
        0.0,
    )
    completions: List[int] = []
    for agent in agents:
        agent.on_query(
            "sweep.load", lambda payload, origin, a=agent: {"n": a.name}
        )
        agent.start()
    for qi, at in enumerate(_SWEEP_QUERY_TIMES):
        if at >= duration:
            break
        origin = agents[(qi * 997) % nodes]
        sim.schedule_at(
            at,
            lambda o=origin, qi=qi: o.query(
                "sweep.load", {"q": qi}, lambda r: completions.append(len(r))
            ),
        )
    freeze_info = sim.freeze_hot_state()
    start = time.perf_counter()
    sim.run_until(duration)
    elapsed = time.perf_counter() - start
    freeze_info["stats_post_run"] = gc.get_stats()
    sim.unfreeze_hot_state()
    if gc_stats is not None:
        gc_stats.update(freeze_info)
    summary = {
        "events": sim.events_processed,
        "completions": completions,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meter0": network.meter("a0").total_bytes,
    }
    checksum = hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()
    ).hexdigest()
    return sim.events_processed, elapsed, checksum


def bench_swim_full(quick: bool) -> Dict[str, object]:
    """Full-protocol throughput at the paper's population: every node
    probes, gossips, syncs and answers the sweep queries."""
    nodes = 400 if quick else 1600
    events, elapsed, checksum = _swim_full_run(nodes, 3.0)
    return {
        "nodes": nodes,
        "events": events,
        "ops_per_sec": events / elapsed,
        "checksum": checksum,
    }


#: Pre-PR full-protocol throughput at 6400 nodes with one queue event per
#: in-flight message (vectorized membership, unbatched delivery), measured on
#: unmodified HEAD with the exact ``_swim_full_run`` workload above. The
#: delivery-batching PR's acceptance bar is >=1.5x this number on the same
#: sweep point, at an unchanged per-point checksum.
PR5_NET_DELIVERY_6400_BASELINE = 13_227.0

#: Absolute floor for the 6400-node ``swim_full`` point. The probe walk draws
#: one target per tick (no per-pass reshuffle of the whole alive list) and
#: the warm population is GC-frozen, which puts the point at 56k-87k ev/s on
#: a 2-core reference box; fresh-process numbers on this workload swing by
#: ~±20% with address-space layout, so the floor is a conservative backstop
#: below every run observed, not the expected rate.
SWIM_FULL_6400_FLOOR = 45_000.0


def bench_scale_sweep(quick: bool) -> Dict[str, object]:
    """Sweep past the paper's 1600-node ceiling, two workloads per size:
    ``timer_storm`` (SWIM-density timers only, the PR 2 sweep) and
    ``swim_full`` (the complete protocol — probes, piggyback gossip,
    suspicion, push-pull sync, and group-wide queries)."""
    timer_sizes = [400, 1600] if quick else [400, 1600, 3200, 6400]
    swim_sizes = [400] if quick else [1600, 3200, 6400]
    timer_duration = 2.0 if quick else 10.0
    swim_duration = 3.0
    timer_points = {}
    for nodes in timer_sizes:
        events, rate = _best_rate(
            1, lambda: _timer_density_run(nodes, timer_duration)
        )
        timer_points[str(nodes)] = {
            "events": events,
            "ops_per_sec": rate,
            "sim_seconds_per_wall_second": timer_duration / (events / rate),
        }
    swim_points = {}
    swim_repeats = 1 if quick else 2
    gc_stats: Dict[str, object] = {}
    for nodes in swim_sizes:
        # Best-of-N like the timer points (_best_rate): the first large run
        # in a process pays allocator growth for the whole 3+ GB population,
        # which at 6400 nodes has been observed to cost over 15% — a repeat
        # on the warm heap is the representative steady-state number. The
        # checksum must not move between repeats.
        elapsed = float("inf")
        checksum = None
        for _ in range(swim_repeats):
            gc.collect()  # previous run's agents must not tax this one's GC
            events, run_elapsed, run_checksum = _swim_full_run(
                nodes, swim_duration, gc_stats=gc_stats
            )
            assert checksum is None or checksum == run_checksum, (
                f"swim_full checksum unstable at {nodes} nodes"
            )
            checksum = run_checksum
            elapsed = min(elapsed, run_elapsed)
        swim_points[str(nodes)] = {
            "events": events,
            "ops_per_sec": events / elapsed,
            "sim_seconds_per_wall_second": swim_duration / elapsed,
            "checksum": checksum,
        }
    return {
        "timer_storm": {"duration": timer_duration, "points": timer_points},
        "swim_full": {
            "duration": swim_duration,
            "points": swim_points,
            "pr3_baseline_6400_ops_per_sec": PR3_SWIM_FULL_6400_BASELINE,
            "pr5_baseline_6400_ops_per_sec": PR5_NET_DELIVERY_6400_BASELINE,
            "floor_6400_ops_per_sec": SWIM_FULL_6400_FLOOR,
            # The last (largest) point's freeze report, so GC-pressure
            # regressions show up in this file's diff.
            "gc_freeze": gc_stats,
        },
    }


def determinism_checksum(with_chaos: bool = False) -> str:
    """Checksum of a seeded SWIM run's metrics; must be stable run to run.

    ``with_chaos=True`` attaches a :class:`~repro.faults.ChaosEngine` with an
    empty :class:`~repro.faults.FaultPlan`. The contract (held by the chaos
    smoke check) is that this changes *nothing*: the chaos layer draws from
    its own RNG streams and schedules no events for an empty plan, so the
    checksum must equal the plain one.
    """
    sim = Simulator(seed=99)
    topology = Topology()
    network = Network(sim, topology)
    if with_chaos:
        from repro.faults import ChaosEngine, FaultPlan

        ChaosEngine(sim, network).execute(FaultPlan())
    regions = [r.name for r in topology.regions]
    agents = []
    for i in range(6):
        agent = SwimAgent(
            sim, network, f"n{i}", f"a{i}", regions[i % len(regions)],
            SwimConfig(sync_interval=5.0),
        )
        agent.start()
        agents.append(agent)
    for agent in agents[1:]:
        agent.join(["a0"])
    sim.run_until(15.0)
    summary = {
        "events": sim.events_processed,
        "counters": {
            name: network.metrics.counter(name).value
            for name in network.metrics.names()["counters"]
        },
        "meters": {
            f"a{i}": network.meter(f"a{i}").total_bytes for i in range(6)
        },
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


BENCHES = {
    "send_repeated_payload": bench_send_fanout,
    "event_loop": bench_event_loop,
    "timer_storm": bench_timer_storm,
    "swim_full": bench_swim_full,
    "scale_sweep": bench_scale_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller sizes, for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_kernel.json, "
                             "or BENCH_kernel.quick.json under --quick so "
                             "smoke runs never clobber the committed "
                             "full-mode baseline)")
    parser.add_argument("--only", choices=sorted(BENCHES),
                        help="run a single benchmark")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_kernel.quick.json" if args.quick else "BENCH_kernel.json"

    results: Dict[str, object] = {}
    names = [args.only] if args.only else list(BENCHES)
    for name in names:
        # Collect the previous workload's garbage up front so a later bench
        # doesn't pay gen2 passes over a dead 6400-agent simulation.
        gc.collect()
        result = BENCHES[name](args.quick)
        results[name] = result
        if "speedup" in result:
            print(f"{name:26s} {result['naive_ops_per_sec']:>12.0f} -> "
                  f"{result['optimized_ops_per_sec']:>12.0f} ops/s "
                  f"({result['speedup']:.1f}x)")
        elif name == "scale_sweep":
            for workload, sweep in result.items():
                for nodes, point in sweep["points"].items():
                    print(f"{workload:26s} {nodes:>5s} nodes "
                          f"{point['ops_per_sec']:>12.0f} ops/s "
                          f"({point['sim_seconds_per_wall_second']:.2f}x "
                          f"real time)")
        else:
            print(f"{name:26s} {result['ops_per_sec']:>12.0f} ops/s")

    checksum_a = determinism_checksum()
    checksum_b = determinism_checksum()
    deterministic = checksum_a == checksum_b
    print(f"determinism checksum       {checksum_a[:16]}… "
          f"({'stable' if deterministic else 'UNSTABLE'})")

    report = {
        "benchmark": "kernel hot paths",
        "quick": args.quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": results,
        "determinism": {
            "checksum": checksum_a,
            "stable": deterministic,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    failures = [
        name
        for name in ("send_repeated_payload",)
        if name in results and results[name]["speedup"] < 2.0
    ]
    if failures:
        print(f"FAIL: speedup < 2x on: {', '.join(failures)}", file=sys.stderr)
        return 1
    # Acceptance bar for the scheduler (binary heap, one queued event per
    # periodic timer): at 1600-node timer density it must clear 2x PR 1's
    # committed event-loop throughput. Only enforced on full runs — quick
    # mode uses a smaller population that is not comparable to the baseline.
    if not args.quick and "event_loop" in results:
        ratio = results["event_loop"]["speedup_vs_pr1_baseline"]
        if ratio < 2.0:
            print(f"FAIL: event_loop at 1600-node density is only "
                  f"{ratio:.2f}x the PR 1 baseline "
                  f"({PR1_EVENT_LOOP_BASELINE:.0f} ops/s); need >=2x",
                  file=sys.stderr)
            return 1
    # Acceptance bar for the vectorized-membership PR: the 6400-node
    # full-protocol sweep must clear 2x the committed pre-PR throughput.
    # Full mode only — quick mode stops the sweep at 400 nodes.
    if not args.quick and "scale_sweep" in results:
        sweep = results["scale_sweep"]["swim_full"]["points"]
        if "6400" in sweep:
            ratio = sweep["6400"]["ops_per_sec"] / PR3_SWIM_FULL_6400_BASELINE
            if ratio < 2.0:
                print(f"FAIL: swim_full at 6400 nodes is only "
                      f"{ratio:.2f}x the PR 3 baseline "
                      f"({PR3_SWIM_FULL_6400_BASELINE:.0f} ev/s); need >=2x",
                      file=sys.stderr)
                return 1
            # Acceptance bar for the delivery-batching PR: the same 6400-node
            # point must also clear 1.5x the committed pre-batching number.
            ratio = sweep["6400"]["ops_per_sec"] / PR5_NET_DELIVERY_6400_BASELINE
            if ratio < 1.5:
                print(f"FAIL: swim_full at 6400 nodes is only "
                      f"{ratio:.2f}x the PR 5 pre-batching baseline "
                      f"({PR5_NET_DELIVERY_6400_BASELINE:.0f} ev/s); "
                      f"need >=1.5x", file=sys.stderr)
                return 1
            # The absolute backstop (see SWIM_FULL_6400_FLOOR).
            rate = sweep["6400"]["ops_per_sec"]
            if rate < SWIM_FULL_6400_FLOOR:
                print(f"FAIL: swim_full at 6400 nodes is {rate:.0f} ev/s; "
                      f"the absolute floor is {SWIM_FULL_6400_FLOOR:.0f} ev/s",
                      file=sys.stderr)
                return 1
    if not deterministic:
        print("FAIL: seeded run is not deterministic", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
