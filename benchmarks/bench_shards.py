"""Shard scale-out benchmark for the partitioned serving plane.

Sweeps the serving plane over 1/2/4/8 consistent-hash shards and measures
aggregate query throughput, latency percentiles, and per-shard CPU and
bandwidth under a closed-loop query workload (``CONCURRENCY`` application
streams, each issuing its next query the moment the previous one answers).
The serial-queue service model (``server_queue_enabled``) bounds each shard
at ``1 / SERVER_PROCESSING_DELAY`` queries/sec (:mod:`repro.core.service`),
so a single shard saturates and the sweep exposes how close the
scatter-gather plane gets to linear scale-out.

Two workload properties matter for sharding and are both exercised here:

* the **scale sweep** spreads single-family directed-pull queries uniformly
  over every dynamic group family (plus a slice of multi-attribute queries
  that scatter across shards), so routing skew across the hash ring is the
  workload's, not one hot key's;
* the **hot-replica bench** does the opposite — a skewed hot-key workload
  with a freshness bound, served by per-region read replicas whose every
  answer carries an explicit ``staleness_ms``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_shards.py            # full, ~15 min
    PYTHONPATH=src python benchmarks/bench_shards.py --quick    # smoke, ~1 min

Results (throughput curve, per-shard resource curves, and a pinned
determinism checksum) are written to ``BENCH_shards.json`` (or
``BENCH_shards.quick.json`` under ``--quick``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import random
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.attributes import openstack_schema
from repro.core.config import FocusConfig
from repro.core.query import Query, QueryTerm
from repro.core.rest import Application, QueryResponse
from repro.core.shardplane import replica_address
from repro.gossip.agent import SerfConfig
from repro.harness import build_focus_cluster
from repro.workloads import node_spec_factory
from repro.workloads.querygen import QueryWorkload, multi_attribute_query

SHARD_COUNTS = (1, 2, 4, 8)
#: Closed-loop streams. Sized so the 1-shard arm saturates (queue wait
#: ``CONCURRENCY * SERVER_PROCESSING_DELAY`` stays inside the query timeout)
#: while the 8-shard arm is not starved of offered load.
CONCURRENCY = 128
SETTLE_S = 3.0
FULL_NODES = 10_000
FULL_WINDOW_S = 20.0
QUICK_NODES = 400
QUICK_WINDOW_S = 10.0
#: Committed full-mode acceptance floor: 8 shards must deliver at least this
#: multiple of the single-shard completed throughput.
SCALEOUT_FLOOR_8V1 = 3.0
#: Loose floor for the 400-node quick sweep (CI smoke; measured ~4x).
QUICK_SCALEOUT_FLOOR_8V1 = 1.8
MULTI_ATTRIBUTE_FRACTION = 0.15


def bench_config(shards: int) -> FocusConfig:
    """Serving-plane config for the sweep.

    ``query_timeout`` is raised above the default so the saturated
    single-shard arm's queue wait (~``CONCURRENCY * 40 ms``) does not trip
    scatter-gather timeouts, and the serf probe/sync cadence is calmed —
    query dissemination rides ``gossip_interval`` ticks, which stay at the
    paper's 100 ms, so pull latency is unaffected.
    """
    return FocusConfig(
        shards=shards,
        server_queue_enabled=True,
        query_timeout=8.0,
        report_interval=15.0,
        serf=SerfConfig(probe_interval=4.0, sync_interval=120.0),
    )


def family_ranges() -> List[Tuple[str, float, float]]:
    """One ``(attribute, lower, upper)`` range per dynamic group family.

    Uniform draws over this list hit every family key on the hash ring with
    equal weight, so the sweep measures the plane's scale-out rather than
    one attribute's key skew.
    """
    ranges: List[Tuple[str, float, float]] = []
    for name, spec in sorted(openstack_schema().dynamic().items()):
        high = spec.max_value if spec.max_value != float("inf") else 100.0
        base = spec.min_value
        while base < high:
            ranges.append((name, base, min(base + spec.cutoff, high)))
            base += spec.cutoff
    return ranges


def sweep_query_factory(seed: int) -> Callable[[], Query]:
    """Deterministic query stream for the scale sweep.

    Mostly single-family directed pulls (uniform over every dynamic group
    family), plus a ``MULTI_ATTRIBUTE_FRACTION`` slice of bounded
    multi-attribute queries whose scatter set usually spans several shards.
    """
    rng = random.Random(f"bench_shards/sweep/{seed}")
    families = family_ranges()

    def next_query() -> Query:
        if rng.random() < MULTI_ATTRIBUTE_FRACTION:
            return multi_attribute_query(rng, limit=10)
        name, lower, upper = rng.choice(families)
        return Query([QueryTerm(name, lower=lower, upper=upper - 1e-6)], limit=10)

    return next_query


def closed_loop(
    scenario,
    next_query: Callable[[], Query],
    window_s: float,
    concurrency: int,
    *,
    apps: Optional[List[Application]] = None,
) -> List[QueryResponse]:
    """Run ``concurrency`` closed-loop query streams for ``window_s``.

    Each stream issues its next query the moment the previous response
    arrives; only responses landing inside the window are recorded. Streams
    round-robin over ``apps`` (default: the scenario's single application).
    """
    clients = apps if apps is not None else [scenario.app]
    end = scenario.sim.now + window_s
    completed: List[QueryResponse] = []

    def stream(app: Application) -> None:
        def on_response(response: QueryResponse) -> None:
            if scenario.sim.now <= end:
                completed.append(response)
                stream(app)

        app.query(next_query(), on_response)

    for index in range(concurrency):
        stream(clients[index % len(clients)])
    scenario.sim.run_until(end)
    return completed


def percentile(sorted_values: List[float], fraction: float) -> float:
    """The ``fraction``-quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(len(sorted_values) * fraction))
    return sorted_values[index]


def run_shard_point(
    num_nodes: int,
    shards: int,
    window_s: float,
    *,
    concurrency: int = CONCURRENCY,
    seed: int = 42,
) -> dict:
    """Measure one shard count: throughput, latency, per-shard CPU/bytes."""
    scenario = build_focus_cluster(
        num_nodes,
        seed=seed,
        config=bench_config(shards),
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=seed),
    )
    scenario.sim.run_until(SETTLE_S)
    scenario.reset_bandwidth()
    start = scenario.sim.now
    responses = closed_loop(
        scenario, sweep_query_factory(seed), window_s, concurrency
    )
    end = scenario.sim.now
    ok = [r for r in responses if not r.timed_out and not r.error]
    latencies = sorted(r.elapsed for r in ok)
    per_shard = [
        {
            "address": shard.address,
            "cpu": round(shard.resources.mean_cpu_over(start, end), 4),
            "kb_per_s": round(
                scenario.network.meter(shard.address).total_bytes
                / window_s / 1024.0, 2,
            ),
        }
        for shard in scenario.plane.shards
    ]
    return {
        "shards": shards,
        "nodes": num_nodes,
        "completed": len(ok),
        "timed_out": len(responses) - len(ok),
        "throughput_qps": round(len(ok) / window_s, 2),
        "p50_s": round(percentile(latencies, 0.50), 3),
        "p99_s": round(percentile(latencies, 0.99), 3),
        "mean_matches": round(
            sum(len(r.matches) for r in ok) / len(ok), 2
        ) if ok else 0.0,
        "per_shard": per_shard,
    }


def bench_scale_sweep(quick: bool) -> dict:
    """Throughput and per-shard resource curves over 1/2/4/8 shards."""
    num_nodes = QUICK_NODES if quick else FULL_NODES
    window_s = QUICK_WINDOW_S if quick else FULL_WINDOW_S
    points: Dict[str, dict] = {}
    for shards in SHARD_COUNTS:
        gc.collect()
        points[str(shards)] = run_shard_point(num_nodes, shards, window_s)
    base = points["1"]["throughput_qps"]
    top = points[str(SHARD_COUNTS[-1])]["throughput_qps"]
    return {
        "nodes": num_nodes,
        "window_s": window_s,
        "concurrency": CONCURRENCY,
        "points": points,
        "scaleout_8v1": round(top / base, 2) if base else 0.0,
    }


def bench_hot_replica(quick: bool) -> dict:
    """Hot-key workload served by per-region read replicas.

    Queries carry a freshness bound and mostly replay a small hot set
    (``QueryWorkload``'s hot-key skew), issued against each region's read
    replica. Replica and cache answers must report a staleness bound no
    larger than the freshness the query allowed.
    """
    num_nodes = 200 if quick else 400
    freshness_ms = 1500.0
    config = bench_config(4)
    config.replica_reads = True
    scenario = build_focus_cluster(
        num_nodes,
        seed=43,
        config=config,
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=43),
    )
    regions = [r.name for r in scenario.network.topology.regions]
    apps = []
    for region in regions:
        app = Application(
            scenario.sim, scenario.network, f"app-{region}", region,
            focus_address=replica_address(region),
        )
        app.start()
        apps.append(app)
    scenario.sim.run_until(SETTLE_S)

    workload = QueryWorkload(
        seed=17, limit=10, freshness_ms=freshness_ms,
        hot_key_fraction=0.7, hot_set_size=8,
    )
    responses = closed_loop(
        scenario, workload.next_query, 20.0, 16, apps=apps
    )
    ok = [r for r in responses if not r.timed_out and not r.error]
    local = [r for r in ok if r.source in ("replica", "cache")]
    bounded = [r for r in local if r.staleness_ms <= freshness_ms + 1e-6]
    return {
        "nodes": num_nodes,
        "queries": len(ok),
        "replica_or_cache_fraction": round(len(local) / len(ok), 3) if ok else 0.0,
        "staleness_bound_respected": len(bounded) == len(local),
        "max_staleness_ms": round(
            max((r.staleness_ms for r in local), default=0.0), 1
        ),
    }


BENCHES: Dict[str, Callable[[bool], dict]] = {
    "scale_sweep": bench_scale_sweep,
    "hot_replica": bench_hot_replica,
}


def determinism_checksum(seed: int = 1) -> str:
    """Digest of a small fixed-size seeded sharded run.

    The run's shape (120 agents, 4 shards, 16 closed-loop streams, 6
    simulated seconds) is identical in quick and full mode, so the pinned
    checksum gates both. The digest covers every completed response (source,
    timeout flag, groups queried, staleness bound, matched node ids) plus
    each shard's final group tables.
    """
    scenario = build_focus_cluster(
        120,
        seed=seed,
        config=bench_config(4),
        warm_start=True,
        with_store=False,
        node_factory=node_spec_factory(seed=seed),
    )
    scenario.sim.run_until(SETTLE_S)
    responses = closed_loop(scenario, sweep_query_factory(seed), 6.0, 16)
    summary = {
        "responses": [
            [
                r.source,
                r.timed_out,
                r.groups_queried,
                round(r.staleness_ms, 3),
                sorted(str(m["node"]) for m in r.matches),
            ]
            for r in responses
        ],
        "groups": {
            shard.address: {
                group.name: sorted(group.all_node_ids())
                for group in shard.dgm.groups.all_groups()
            }
            for shard in scenario.plane.shards
        },
    }
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main(argv=None) -> int:
    """Run the sweep, write the report, and enforce the scale-out floor."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleet and window, for CI smoke runs")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: BENCH_shards.json, "
                             "or BENCH_shards.quick.json under --quick so "
                             "smoke runs never clobber the committed "
                             "full-mode baseline)")
    parser.add_argument("--only", choices=sorted(BENCHES),
                        help="run a single benchmark")
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_shards.quick.json" if args.quick else "BENCH_shards.json"

    results: Dict[str, object] = {}
    names = [args.only] if args.only else list(BENCHES)
    for name in names:
        gc.collect()
        result = BENCHES[name](args.quick)
        results[name] = result
        if name == "scale_sweep":
            for shards, point in result["points"].items():
                print(f"scale_sweep {shards:>2s} shards "
                      f"{point['throughput_qps']:>7.1f} q/s "
                      f"p50 {point['p50_s']:.2f}s p99 {point['p99_s']:.2f}s "
                      f"({point['timed_out']} timed out)")
            print(f"scale_sweep 8v1 scale-out  {result['scaleout_8v1']:.2f}x")
        else:
            print(f"{name}: {json.dumps(result, sort_keys=True)}")

    gc.collect()
    checksum_a = determinism_checksum()
    checksum_b = determinism_checksum()
    stable = checksum_a == checksum_b
    print(f"determinism checksum       {checksum_a[:16]}… "
          f"({'stable' if stable else 'UNSTABLE'})")

    report = {
        "benchmark": "sharded serving plane",
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
    sweep = results.get("scale_sweep")
    if sweep is not None:
        floor = QUICK_SCALEOUT_FLOOR_8V1 if args.quick else SCALEOUT_FLOOR_8V1
        if sweep["scaleout_8v1"] < floor:
            failures.append(
                f"8-shard scale-out {sweep['scaleout_8v1']:.2f}x is below "
                f"the {floor:.1f}x floor"
            )
    hot = results.get("hot_replica")
    if hot is not None and not hot["staleness_bound_respected"]:
        failures.append("a replica/cache answer exceeded its staleness bound")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
