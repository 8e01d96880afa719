"""focusbench driver: one command, every metric by name, all checks.

    python3 benchmarks/focusbench/run.py --workload <name|all> --seed <int>
        [--seconds N | --reps N] [--trace [0|1]] [--scale full|smoke] [--out FILE]

(``PYTHONPATH=src python -m benchmarks.focusbench ...`` is the same command.)

Each rep runs in a fresh subprocess with ``PYTHONHASHSEED=0``, strictly one
after another. Without ``--trace``: N untraced reps (default 2) and as many
set-up-only reps as it takes to have three set-ups; the end-to-end metrics
are reported. With ``--trace``: one untraced and one ``cProfile``-traced rep;
the per-layer ledger is reported. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status is non-zero when a correctness, determinism or
conservation check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: Host seconds one untraced steady phase takes at reference speed;
#: ``--seconds`` is turned into a rep count with it.
NOMINAL_RUN_S = {"full": 4.5, "smoke": 0.3}
MIN_REPS = 2
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 170



def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------------ children
def _run_child(workload: str, seed: int, scale: str, mode: str) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    command = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", workload, "--seed", str(seed), "--scale", scale,
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{mode} rep of {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- measurement
class Measurement:
    """All reps of one workload, their checks, and the reported metrics."""

    def __init__(self, workload: str, seed: int, scale: str,
                 untraced: List[Dict[str, object]],
                 setups: List[Dict[str, object]],
                 traced: Optional[Dict[str, object]]) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.untraced = untraced
        self.setups = setups  # set-up-only reps
        self.traced = traced
        self.first = untraced[0]
        self.failures: List[str] = []
        self._check()

    # ------------------------------------------------------------- checks
    def _check(self) -> None:
        first = self.first
        for index, rep in enumerate([*self.untraced[1:], self.traced], start=1):
            if rep is not None and rep["digest"] != first["digest"]:
                kind = "traced rep" if rep is self.traced else f"rep {index}"
                self.failures.append(
                    f"determinism: {kind} digest {rep['digest'][:12]} != "
                    f"rep 0 digest {first['digest'][:12]}"
                )
        if not first["conservation"]["holds"]:
            self.failures.append(f"conservation: {first['conservation']}")
        outcomes = first["outcomes"]
        if sum(outcomes.values()) != first["attempted"]:
            self.failures.append(f"completed + failed != attempted: {outcomes}")
        if first["max_lateness_sim_s"] != 0.0:
            self.failures.append(
                f"generator ran late by {first['max_lateness_sim_s']} sim-s"
            )
        for entry in first["wrong"]:
            self.failures.append(
                f"wrong answer: query {entry['id']}: {entry['reason']}"
            )

    @property
    def correct(self) -> bool:
        return not self.failures

    @property
    def attempted(self) -> int:
        return self.first["attempted"] * len(self.untraced)

    @property
    def failed(self) -> int:
        """Queries without a definitive, correct response. Refusals and
        flagged or overload-phase partial answers are definitive: they lower
        ``sim_answered_frac`` and are not counted here."""
        return self.first["failed"] * len(self.untraced)

    # ------------------------------------------------------------ metrics
    def host_values(self, name: str) -> List[float]:
        return [rep["host"][name] for rep in self.untraced]

    def slowdown(self) -> float:
        """How much slower than reference the box ran during the steady
        phases, by the probe: per slice the faster rep's probe, averaged,
        over the workload's ``probe_reference_s``. Never below 1: on a quiet
        box the probe's table sits in the shared L3 and reads faster than
        any reference, which says nothing about the simulator's 200 MB heap
        (unclamped, the quietest hour read 40% *slower* than a busy one)."""
        probes = [min(p) for p in zip(*self.host_values("probes_s"))]
        mean = sum(probes) / len(probes)
        return max(1.0, mean / self.first["host"]["probe_reference_s"])

    def run_s(self) -> float:
        """Host seconds of the steady phase at reference speed.

        Every rep does identical work slice by slice, so per slice the
        fastest rep is the one the box disturbed least; their sum is the
        work's least-disturbed cost in this period, and ``slowdown``
        discounts what the period as a whole cost.
        """
        work = sum(min(s) for s in zip(*self.host_values("slices_s")))
        return work / self.slowdown()

    def setup_values(self) -> List[float]:
        """Build + warm-up of every rep that set up, at reference speed."""
        return [
            rep["host"]["setup_s"]
            / (rep["host"]["setup_probe_s"] / rep["host"]["probe_reference_s"])
            for rep in [*self.untraced, *self.setups]
        ]

    def end_to_end(self) -> Dict[str, Dict[str, object]]:
        sim = self.first["sim"]
        median = statistics.median
        return {
            "setup_s": _metric(median(self.setup_values()), "s"),
            "run_s": _metric(self.run_s(), "s"),
            "peak_rss_mb": _metric(median(self.host_values("peak_rss_mb")), "MB"),
            "sim_query_p50_ms": _metric(sim["sim_query_p50_ms"], "ms"),
            "sim_query_tail_ms": _metric(sim["sim_query_tail_ms"], "ms"),
            "sim_answered_frac": _metric(sim["sim_answered_frac"], "frac"),
            "sim_server_kbps": _metric(sim["sim_server_kbps"], "KB/s"),
            "sim_node_kbps": _metric(sim["sim_node_kbps"], "KB/s"),
        }

    def per_layer(self) -> Dict[str, Dict[str, object]]:
        """Every per-layer metric, as measured (no speed rescaling); needs
        the traced rep."""
        first, traced = self.first, self.traced
        host, sim, counts = first["host"], first["sim"], first["counts"]
        metrics: Dict[str, Dict[str, object]] = {}
        for row in sorted(traced["ledger"]["rows"], key=lambda r: r["layer"]):
            layer = row["layer"]
            metrics[f"{layer}.self_s"] = _metric(row["self_s"], "s")
            metrics[f"{layer}.self_frac"] = _metric(row["self_frac"], "frac")
            metrics[f"{layer}.calls_per_event"] = _metric(
                row["calls_per_event"], "calls/event"
            )
        queries = first["attempted"]
        events = counts["events"]
        sent = counts["messages_sent"]
        front = counts["front_queries"]
        lookups = counts["front_cache_hits"] + counts["front_cache_misses"]
        cpu_capacity = counts["query_cpu_cores"] * sim["sim_span_s"]
        metrics.update({
            "python.gc.pause_s": _metric(host["gc_pause_s"], "s"),
            "python.gc.gen2_collections": _metric(host["gc_gen2_collections"], "count"),
            "harness.build_s": _metric(host["build_s"], "s"),
            "harness.warmup_s": _metric(host["warmup_s"], "s"),
            "workloads.generate_s": _metric(host["generate_s"], "s"),
            "sim.loop.events": _metric(events, "count"),
            "sim.loop.events_per_host_s": _metric(events / host["run_s"], "1/s"),
            "sim.loop.sim_s_per_host_s": _metric(
                sim["sim_span_s"] / host["run_s"], "sim_s/s"),
            "sim.loop.events_per_query": _metric(events / queries, "events/query"),
            "sim.network.messages_sent": _metric(sent, "count"),
            "sim.network.messages_per_query": _metric(sent / queries, "msgs/query"),
            "sim.network.bytes_per_message": _metric(
                _ratio(counts["bytes_sent"], sent), "bytes/msg"),
            "sim.network.dropped_frac": _metric(
                _ratio(counts["messages_dropped"], sent), "frac"),
            "sim.rpc.timeouts": _metric(counts["rpc_timeouts"], "count"),
            "sim.rpc.late_replies": _metric(counts["rpc_late_replies"], "count"),
            "core.service.queries": _metric(front, "count"),
            "core.service.group_queries_per_query": _metric(
                _ratio(counts["group_queries"], front), "pulls/query"),
            "core.service.query_timeouts": _metric(counts["query_timeouts"], "count"),
            "core.service.moves": _metric(counts["moves"], "count"),
            "core.service.registrations": _metric(counts["registrations"], "count"),
            "core.service.group_forks": _metric(counts["group_forks"], "count"),
            "core.router.scatter_per_query": _metric(
                _ratio(counts["scatter_queries"], front), "scatters/query"),
            "core.router.cache_hit_frac": _metric(
                _ratio(counts["front_cache_hits"], lookups), "frac"),
            "core.router.breaker_stale_frac": _metric(
                sim["breaker_stale"] / queries, "frac"),
            "core.admission.throttled_frac": _metric(
                counts["queries_throttled"] / queries, "frac"),
            "core.admission.shed_frac": _metric(
                counts["queries_shed"] / queries, "frac"),
            "core.admission.cpu_util": _metric(
                _ratio(counts["query_cpu_busy_s"], cpu_capacity), "frac"),
            "store.stale_reads": _metric(counts["store_stale_reads"], "count"),
            "store.hints_replayed": _metric(counts["store_hints_replayed"], "count"),
        })
        # Phase metrics exist on serve_ramp only; elsewhere they read 0.
        for label, phase in sim["phases"].items():
            metrics[f"core.service.p99_ms.{label}"] = _metric(phase["p99_ms"], "ms")
            metrics[f"core.service.goodput_frac.{label}"] = _metric(
                phase["goodput_frac"], "frac")
        metrics["trace.overhead_ratio"] = _metric(
            traced["host"]["run_s"] / host["run_s"], "ratio")
        return metrics

    # ------------------------------------------------------------- report
    def report(self) -> str:
        first = self.first
        sim = first["sim"]
        answered = sim["sim_answered_frac"]
        lines = [
            f"== {self.workload}  seed={self.seed}  scale={self.scale}  "
            f"untraced reps={len(self.untraced)}  set-up-only reps={len(self.setups)}"
            + ("  traced reps=1" if self.traced else ""),
            "   open-loop in simulated time (sim.schedule_at); generator "
            f"lateness max = {first['max_lateness_sim_s']} sim-s; latency is "
            "timed from the scheduled send",
            f"   queries attempted={first['attempted']}  outcomes={first['outcomes']}"
            f"  failed_frac={1.0 - answered:.4f}",
            f"   tail = p{sim['tail_percentile']} over {sim['tail_samples']} answered, "
            f"{sim['tail_samples_beyond']} beyond it",
            f"   digest {first['digest']}",
            f"   conservation {first['conservation']}",
        ]
        raw = {
            "setup_s": [r["host"]["setup_s"] for r in [*self.untraced, *self.setups]],
            "run_s": self.host_values("run_s"),
        }
        for name, metric in self.end_to_end().items():
            kind = "sim " if name.startswith("sim_") else "host"
            line = f"   {kind} {name:<20}{metric['value']:>14.4f} {metric['unit']}"
            if name in raw:
                values = ", ".join(f"{v:.3f}" for v in raw[name])
                line += f"   at reference speed; as measured per rep: {values}"
            if name == "run_s":
                line += f"; slowdown by the probe {self.slowdown():.3f}"
            lines.append(line)
        if self.traced is not None:
            from benchmarks.focusbench.ledger import render

            ledger = self.traced["ledger"]
            lines.append(render(ledger["rows"]))
            lines.append(
                f"   layer self_s sum {ledger['total_self_s']:.3f} s vs traced "
                f"run_s {self.traced['host']['run_s']:.3f} s; "
                f"{ledger['total_calls'] / first['counts']['events']:.2f} "
                "calls/event in total"
            )
            for name, metric in self.per_layer().items():
                if ".self_" in name or name.endswith(".calls_per_event"):
                    continue
                lines.append(f"   {name:<40}{metric['value']:>16.4f} {metric['unit']}")
        for entry in first["degraded"][:5]:
            lines.append(
                f"   partial under overload: query {entry['id']}: {entry['reason']}"
            )
        if len(first["degraded"]) > 5:
            lines.append(f"   ... and {len(first['degraded']) - 5} more (see --out)")
        for failure in self.failures:
            lines.append(f"   CHECK FAILED  {failure}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        data = {
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "correct": self.correct,
            "failures": self.failures,
            "end_to_end": self.end_to_end(),
            "reps": [
                {key: rep[key] for key in ("host", "sim", "counts", "outcomes",
                                           "digest", "conservation")}
                for rep in self.untraced
            ],
            "setup_only_reps": [rep["host"] for rep in self.setups],
            "degraded": self.first["degraded"],
            "spans": self.first["spans"],
        }
        if self.traced is not None:
            data["per_layer"] = self.per_layer()
            data["ledger"] = self.traced["ledger"]
        return data


def measure(workload: str, seed: int, *, scale: str = "full", reps: int = MIN_REPS,
            trace: bool = False) -> Measurement:
    """Run the reps of one workload, one subprocess after another."""
    if trace:
        untraced = [_run_child(workload, seed, scale, "untraced")]
        return Measurement(workload, seed, scale, untraced, [],
                           _run_child(workload, seed, scale, "traced"))
    untraced = [_run_child(workload, seed, scale, "untraced") for _ in range(reps)]
    setups = [_run_child(workload, seed, scale, "setup")
              for _ in range(MIN_SETUPS - reps)]
    return Measurement(workload, seed, scale, untraced, setups, None)


# ----------------------------------------------------------------------- CLI
def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="focusbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="host seconds to measure; sets the untraced rep count")
    parser.add_argument("--reps", type=int, default=None,
                        help="untraced rep count (default 2)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--out", default=None,
                        help="write everything, query spans included, as JSON")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"focusbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.child:
        from benchmarks.focusbench.rep import run_rep

        print(json.dumps(run_rep(args.workload, args.seed, args.scale, args.child)))
        return 0

    from benchmarks.focusbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"focusbench: unknown workload {unknown[0]!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.reps is not None:
        reps = max(1, args.reps)
    elif args.seconds is not None:
        reps = max(MIN_REPS, round(args.seconds / NOMINAL_RUN_S[args.scale]))
    else:
        reps = MIN_REPS

    measurements = []
    for name in names:  # strictly one after another
        measurement = measure(name, args.seed, scale=args.scale, reps=reps,
                              trace=bool(args.trace))
        print(measurement.report(), flush=True)
        measurements.append(measurement)
    if args.out:
        Path(args.out).write_text(
            json.dumps([m.to_json() for m in measurements], indent=1) + "\n"
        )

    metrics: Dict[str, Dict[str, object]] = {}
    for measurement in measurements:
        found = measurement.per_layer() if args.trace else measurement.end_to_end()
        prefix = f"{measurement.workload}." if len(measurements) > 1 else ""
        metrics.update({prefix + name: value for name, value in found.items()})
    correct = all(m.correct for m in measurements)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in measurements),
        "failed": sum(m.failed for m in measurements),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
