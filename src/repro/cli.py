"""Command-line interface: run FOCUS scenarios without writing code.

Installed as ``focus-repro``. Subcommands:

* ``demo``    — build a cluster and show groups forming and queries running;
* ``query``   — ad-hoc query against a fresh cluster
                (``--term "ram_mb>=4096" --term "cpu_percent<=50"``);
* ``trace``   — replay the synthetic Chameleon trace and print percentiles;
* ``compare`` — FOCUS vs one baseline, server bandwidth side by side;
* ``chaos``   — seeded failure scenarios (crash, partition, churn, server
                failover) with a deterministic resilience report;
* ``info``    — the default attribute schema and configuration.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from repro._version import __version__
from repro.core.config import FocusConfig
from repro.core.dgm import REPRESENTATIVES_PER_GROUP
from repro.core.query import Query, QueryTerm

_TERM_PATTERN = re.compile(r"^(\w+)\s*(>=|<=|==)\s*(.+)$")


def parse_term(text: str) -> QueryTerm:
    """Parse ``attr>=value`` / ``attr<=value`` / ``attr==value``."""
    match = _TERM_PATTERN.match(text.strip())
    if match is None:
        raise argparse.ArgumentTypeError(
            f"bad term {text!r}; expected attr>=value, attr<=value or attr==value"
        )
    name, op, raw = match.groups()
    try:
        value: object = float(raw)
    except ValueError:
        value = raw.strip()
    if op == "==":
        return QueryTerm.exact(name, value)  # type: ignore[arg-type]
    if isinstance(value, str):
        raise argparse.ArgumentTypeError(f"{text!r}: bounds need numeric values")
    if op == ">=":
        return QueryTerm.at_least(name, value)
    return QueryTerm.at_most(name, value)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for the focus-repro command."""
    parser = argparse.ArgumentParser(
        prog="focus-repro",
        description="FOCUS (ICDCS 2019) reproduction - scenario runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo",
                                 help="groups forming + sample queries")
    demo.add_argument("--nodes", type=int, default=64)
    demo.add_argument("--seed", type=int, default=7)

    query = subparsers.add_parser("query",
                                  help="ad-hoc query against a cluster")
    query.add_argument("--nodes", type=int, default=64)
    query.add_argument("--seed", type=int, default=7)
    query.add_argument("--limit", type=int, default=None)
    query.add_argument(
        "--term", dest="terms", action="append", type=parse_term, required=True,
        metavar="ATTR>=VALUE",
    )

    trace = subparsers.add_parser("trace",
                                  help="synthetic Chameleon trace replay")
    trace.add_argument("--nodes", type=int, default=200)
    trace.add_argument("--events", type=int, default=200)
    trace.add_argument("--seed", type=int, default=33)

    compare = subparsers.add_parser("compare", help="FOCUS vs a baseline")
    compare.add_argument("--nodes", type=int, default=400)
    compare.add_argument(
        "--baseline",
        choices=["naive-push", "naive-pull", "hierarchy", "rabbitmq-pub",
                 "rabbitmq-sub"],
        default="naive-push",
    )
    compare.add_argument("--queries", type=int, default=10)
    compare.add_argument("--seed", type=int, default=1234)

    chaos = subparsers.add_parser(
        "chaos", help="seeded failure scenarios + resilience report"
    )
    chaos.add_argument(
        "--scenario",
        default="all",
        metavar="NAME",
        help="which failure scenario to run: 'all' (default), 'list', or any "
             "name registered in repro.harness.failure_suite.SCENARIOS",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--out", default=None, metavar="PATH",
                       help="also write the full resilience report JSON")

    subparsers.add_parser("info", help="default schema and configuration")
    return parser


# ---------------------------------------------------------------- commands
def cmd_demo(args) -> int:
    """``demo``: build a cluster, show group formation and sample queries."""
    from repro.harness import build_focus_cluster, drain, run_query

    print(f"Building {args.nodes} nodes (seed {args.seed})...")
    scenario = build_focus_cluster(args.nodes, seed=args.seed)
    drain(scenario, 15.0)
    groups = [g for g in scenario.service.dgm.groups.all_groups()
              if g.size_estimate() > 0]
    print(f"{len(groups)} attribute groups formed. Sample queries:")
    for label, query in (
        ("ram >= 4GB", Query([QueryTerm.at_least("ram_mb", 4096.0)],
                             limit=5, freshness_ms=0.0)),
        ("idle hosts", Query([QueryTerm.at_most("cpu_percent", 25.0)],
                             limit=5, freshness_ms=0.0)),
        ("schedulers", Query([QueryTerm.exact("service_type", "scheduler")],
                             limit=5)),
    ):
        response = run_query(scenario, query)
        print(f"  {label:12} -> {len(response.matches)} matches in "
              f"{response.elapsed * 1000:.0f} ms ({response.source})")
    return 0


def cmd_query(args) -> int:
    """``query``: run one ad-hoc query built from --term arguments."""
    from repro.harness import build_focus_cluster, drain, run_query

    query = Query(args.terms, limit=args.limit, freshness_ms=0.0)
    scenario = build_focus_cluster(args.nodes, seed=args.seed)
    drain(scenario, 15.0)
    response = run_query(scenario, query)
    print(f"{len(response.matches)} matches "
          f"({response.elapsed * 1000:.0f} ms, source={response.source}):")
    for match in response.matches:
        attrs = ", ".join(
            f"{t.name}={match['attrs'].get(t.name)}" for t in query.terms
        )
        print(f"  {match['node']} [{match['region']}] {attrs}")
    return 0


def cmd_trace(args) -> int:
    """``trace``: replay the synthetic Chameleon trace, print percentiles."""
    from repro.core.config import FocusConfig as _Config
    from repro.harness import build_focus_cluster, drain
    from repro.sim.metrics import Histogram
    from repro.workloads import ChameleonTraceGenerator

    scenario = build_focus_cluster(
        args.nodes, seed=args.seed, config=_Config(cache_enabled=False),
        warm_start=True, with_store=False,
    )
    drain(scenario, 3.0)
    generator = ChameleonTraceGenerator(seed=1)
    pairs = generator.accelerated_queries(args.events, limit=10, freshness_ms=0.0)
    histogram = Histogram("trace")
    start = scenario.sim.now
    for offset, query in pairs:
        scenario.sim.schedule_at(
            start + offset, scenario.app.query, query,
            lambda response: histogram.observe(response.elapsed),
        )
    scenario.sim.run_until(start + pairs[-1][0] + 8.0)
    print(f"{histogram.count} queries at ~{generator.mean_rate():.0f} q/s "
          f"over {args.nodes} nodes:")
    for percentile in (50, 75, 99):
        print(f"  p{percentile}: {histogram.percentile(percentile) * 1000:6.0f} ms")
    return 0


def cmd_compare(args) -> int:
    """``compare``: FOCUS vs one baseline, central-site bandwidth."""
    from repro.harness.comparison import (
        build_finder,
        comparison_queries,
        measure_bandwidth,
    )

    print(f"{args.nodes} nodes, {args.queries} queries at 1/s; "
          f"bandwidth at the central site:")
    rows = []
    for system in ("focus", args.baseline):
        finder = build_finder(system, args.nodes, seed=args.seed)
        stats = measure_bandwidth(finder, comparison_queries(args.queries))
        rows.append((system, stats["bandwidth_kbps"], stats["matches"]))
    for system, bandwidth, matches in rows:
        print(f"  {system:14} {bandwidth:10.1f} KB/s   ({matches} matches)")
    focus_bw, base_bw = rows[0][1], rows[1][1]
    if base_bw > focus_bw > 0:
        print(f"  -> FOCUS eliminates {100 * (1 - focus_bw / base_bw):.0f}% "
              f"of {args.baseline}'s server traffic")
    return 0


def cmd_chaos(args) -> int:
    """``chaos``: run the failure suite, print the resilience numbers."""
    import json

    from repro.harness.failure_suite import SCENARIOS, run_suite

    if args.scenario == "list":
        for name in SCENARIOS:
            print(name)
        return 0
    if args.scenario != "all" and args.scenario not in SCENARIOS:
        known = ", ".join(SCENARIOS)
        print(f"unknown scenario {args.scenario!r}; choose from: all, {known}",
              file=sys.stderr)
        return 2
    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    report = run_suite(seed=args.seed, scenarios=names)
    print(f"Failure suite (seed {args.seed}):")
    for name in names:
        result = report["scenarios"][name]
        window = result["fault_window"]
        detection = result["detection_latency_s"]
        detection_text = "n/a" if detection is None else f"{detection:5.1f} s"
        print(f"  {name:22} detect={detection_text:>8}  "
              f"reconverge={result['reconvergence_s']:4.1f} s  "
              f"fn={window['false_negative_rate']:6.2%}  "
              f"stale={window['stale_answer_rate']:6.2%}  "
              f"timeouts={window['timeouts']}/{window['polls']}")
        for entry in result["fault_log"]:
            print(f"      t={entry['t']:6.1f}  {entry['action']}")
    print(f"report checksum: {report['checksum'][:16]}…")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    return 0


def cmd_info(args) -> int:
    """``info``: print the default schema and configuration knobs."""
    config = FocusConfig()
    print("Default dynamic attributes (name / cutoff / range):")
    for name, spec in config.schema.dynamic().items():
        print(f"  {name:12} cutoff={spec.cutoff:<8g} "
              f"range=[{spec.min_value:g}, {spec.max_value:g}] {spec.unit}")
    print("Static attributes:", ", ".join(sorted(config.schema.static())))
    print(f"Group size cap: {config.max_group_size}; "
          f"representatives/group: {REPRESENTATIVES_PER_GROUP}; "
          f"report interval: {config.report_interval}s")
    print(f"Gossip: fanout {config.serf.gossip_fanout}, "
          f"interval {config.serf.gossip_interval * 1000:.0f} ms")
    return 0


COMMANDS = {
    "demo": cmd_demo,
    "query": cmd_query,
    "trace": cmd_trace,
    "compare": cmd_compare,
    "chaos": cmd_chaos,
    "info": cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``focus-repro`` console script."""
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
