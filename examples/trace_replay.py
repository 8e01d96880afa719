#!/usr/bin/env python
"""Replay the (synthetic) Chameleon placement trace against FOCUS (§X-C).

Generates the synthetic equivalent of the paper's Chameleon cloud trace and
replays a slice of it at 15,000x acceleration (~43 placement queries/second)
against a 400-node FOCUS deployment, with the response cache disabled as in
the paper. Prints the per-request latency percentiles of Fig. 7c plus the
group statistics the paper reports (average group size ~150).

Run:  python examples/trace_replay.py
"""

from repro.core.config import FocusConfig
from repro.harness import build_focus_cluster, drain
from repro.sim.metrics import Histogram
from repro.workloads import ChameleonTraceGenerator

NUM_NODES = 400
NUM_EVENTS = 400


def main() -> None:
    print(f"Building {NUM_NODES}-node deployment (cache disabled, as in §X-C)...")
    config = FocusConfig(cache_enabled=False)
    scenario = build_focus_cluster(
        NUM_NODES, seed=33, config=config, warm_start=True, with_store=False,
    )
    drain(scenario, 5.0)

    generator = ChameleonTraceGenerator(seed=1)
    pairs = generator.accelerated_queries(NUM_EVENTS, limit=10, freshness_ms=0.0)
    print(f"Replaying {len(pairs)} trace events at 15,000x "
          f"(~{generator.mean_rate():.0f} queries/s)...")

    latency = Histogram("trace")
    empty = []

    def record(response) -> None:
        latency.observe(response.elapsed)
        if not response.matches:
            empty.append(response)

    start = scenario.sim.now
    for offset, query in pairs:
        scenario.sim.schedule_at(start + offset, scenario.app.query, query, record)
    scenario.sim.run_until(start + pairs[-1][0] + 10.0)

    print(f"\nCompleted {latency.count} queries "
          f"({len(empty)} returned no candidates).")
    print("Per-request latency (Fig. 7c percentiles):")
    for p in (50, 75, 99):
        print(f"  p{p}: {latency.percentile(p) * 1000:7.0f} ms")

    groups = scenario.service.dgm.groups.all_groups()
    populated = [g for g in groups if g.size_estimate() > 0]
    sizes = [g.size_estimate() for g in populated]
    print(f"\nGroups: {len(populated)} populated, "
          f"average size {sum(sizes) / len(sizes):.0f}, max {max(sizes)}")
    cpu = scenario.service.resources.mean_cpu_over(start, scenario.sim.now)
    print(f"FOCUS server CPU while replaying: {cpu * 100:.1f}% "
          f"(of a 4-vCPU server, Fig. 8a)")


if __name__ == "__main__":
    main()
