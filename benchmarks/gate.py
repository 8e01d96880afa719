"""Benchmark regression gate: compare fresh quick-mode benchmark runs
against the committed full-mode baselines.

Usage (CI runs this via ``make bench-gate``, which regenerates the quick
files first)::

    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
    PYTHONPATH=src python benchmarks/bench_shards.py --quick
    python benchmarks/gate.py \
        --shards-baseline BENCH_shards.json \
        --shards-candidate BENCH_shards.quick.json

The paired files measure different population sizes (quick mode shrinks
every workload so it finishes in seconds), so raw ops/sec are **not**
comparable across them and are never compared here. What the gate checks is
the set of invariants that hold on any machine at any size:

* the seeded determinism checksums — sha256 digests of fixed-size seeded
  runs — must be byte-equal between the quick run and the committed
  baseline, and stable within each;
* the benchmark *sets* must match: every benchmark recorded in the baseline
  must still exist in the candidate (a bench that silently vanishes from
  the harness is a regression too), and a candidate bench with no committed
  baseline is an error as well (the baseline must be regenerated so the new
  bench is actually gated);
* for the kernel pair's send-path bench (``send_repeated_payload``), the
  relative speedup (optimized vs in-tree naive reference, same machine, same
  run) must not collapse: the quick-mode speedup must stay above a generous
  fraction of the committed full-mode speedup. The band is wide because CI
  machines are noisy and quick mode's smaller inputs flatter the naive
  arm — the gate exists to catch an optimization being disabled (a 700x
  speedup falling to 1x), not a 20% wobble. The scheduler, timer and
  full-protocol points (``event_loop``, ``timer_storm``, ``swim_full``) are
  single-arm throughput numbers — the kernel has one implementation of
  each — so they are gated by presence, checksum and the committed
  acceptance bars below, never by a ratio;
* the committed baselines themselves must still honor the acceptance bars
  they were committed with (kernel: event_loop >= 2x the PR 1 constant,
  swim_full at 6400 nodes >= 2x the PR 3 constant, >= 1.5x the PR 5
  pre-batching constant and above its absolute floor; shards: the
  full-mode 8-shard scale-out >= 3x a single shard), so a stale or hand-edited baseline cannot hide a regression.

``--summary PATH`` appends a markdown verdict table (checksums, speedup
band, shard scale-out) to ``PATH`` — CI points it at
``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

#: Quick-mode speedup must be at least this fraction of the committed
#: full-mode speedup. Deliberately loose — see module docstring.
SPEEDUP_FLOOR_FRACTION = 0.10

#: Speedups this close to 1x carry no signal (the optimized and naive arms
#: are within noise of each other at quick-mode sizes), so the fractional
#: band is not applied below it.
SPEEDUP_NOISE_CEILING = 2.0

#: Absolute floor for the committed full-mode ``swim_full`` point at 6400
#: nodes (``SWIM_FULL_6400_FLOOR`` in bench_kernel.py).
SWIM_FULL_6400_FLOOR = 45_000.0

#: The committed full-mode shard sweep must show at least this much
#: aggregate query throughput at 8 shards relative to 1 shard.
SHARDS_SCALEOUT_FLOOR = 3.0

#: Floor applied to a quick-mode shard sweep candidate (400 agents; the
#: measured value sits near 5x, the floor only catches sharding being
#: disabled or a hot-key collapse).
SHARDS_QUICK_SCALEOUT_FLOOR = 1.8


def load(path: str) -> Dict[str, object]:
    """Read one benchmark report JSON file."""
    with open(path) as fh:
        return json.load(fh)


def structural_failures(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    *,
    label: str,
    run: str,
    candidate_may_be_full: bool = False,
) -> List[str]:
    """Shape checks shared by every baseline/candidate report pair.

    ``run`` names the seeded run whose ``checksum`` and ``stable`` entries
    each report's ``determinism`` block carries. Both
    missing-bench directions are errors: a baseline bench absent from the
    candidate means the harness silently dropped it, and a candidate bench
    absent from the baseline means the committed baseline predates the
    bench and must be regenerated before the gate can cover it.
    """
    failures: List[str] = []

    if baseline.get("quick"):
        failures.append(f"{label}: baseline file was produced by a --quick "
                        "run; the committed baseline must be full-mode")
    if not candidate.get("quick") and not candidate_may_be_full:
        failures.append(f"{label}: candidate file is not a --quick run; "
                        "regenerate it with --quick")

    base_det = baseline.get("determinism") or {}
    cand_det = candidate.get("determinism") or {}
    for side, det in (("baseline", base_det), ("candidate", cand_det)):
        if not det.get("stable"):
            failures.append(f"{label}: {side} seeded {run} run was "
                            "not deterministic")
    if base_det.get("checksum") != cand_det.get("checksum"):
        failures.append(
            f"{label}: {run} determinism checksum drifted: baseline "
            f"{str(base_det.get('checksum'))[:16]}… vs candidate "
            f"{str(cand_det.get('checksum'))[:16]}… — the seeded run "
            "no longer produces the committed totals"
        )

    base_results = baseline.get("results") or {}
    cand_results = candidate.get("results") or {}
    for name in base_results:
        if name not in cand_results:
            failures.append(f"{label}: benchmark '{name}' present in the "
                            "baseline but missing from the candidate run — "
                            "the harness no longer measures it")
    for name in cand_results:
        if name not in base_results:
            failures.append(
                f"{label}: benchmark '{name}' present in the candidate but "
                "missing from the committed baseline — regenerate the "
                "full-mode baseline so the new bench is gated"
            )

    return failures


def check(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    *,
    allow_full_candidate: bool = False,
) -> List[str]:
    """Gate the kernel benchmark pair (BENCH_kernel.json vs .quick.json).

    ``allow_full_candidate`` admits a full-mode candidate (the nightly sweep
    compares full against full); the default insists on --quick so a stray
    full-mode file is not mistaken for the CI smoke run.
    """
    failures = structural_failures(
        baseline, candidate,
        label="kernel",
        run="kernel",
        candidate_may_be_full=allow_full_candidate,
    )

    base_results = baseline.get("results") or {}
    cand_results = candidate.get("results") or {}

    for name, base in base_results.items():
        cand = cand_results.get(name)
        if cand is None or "speedup" not in base or "speedup" not in cand:
            continue
        if base["speedup"] < SPEEDUP_NOISE_CEILING:
            continue
        # Quick mode shrinks every workload, and the naive arms are mostly
        # superlinear, so quick-mode speedups are legitimately far smaller
        # than full-mode ones. Capping the floor at the noise ceiling keeps
        # the check meaningful (a disabled optimization reads ~1x) without
        # tying it to workload size.
        floor = min(base["speedup"] * SPEEDUP_FLOOR_FRACTION,
                    SPEEDUP_NOISE_CEILING)
        if cand["speedup"] < floor:
            failures.append(
                f"{name}: speedup collapsed to {cand['speedup']:.1f}x "
                f"(baseline {base['speedup']:.1f}x, floor {floor:.1f}x)"
            )

    sweep = base_results.get("scale_sweep", {})
    cand_sweep = cand_results.get("scale_sweep", {})
    for workload in sweep:
        if workload not in cand_sweep:
            failures.append(f"scale_sweep workload '{workload}' missing from "
                            "the candidate run")

    # Re-assert the committed acceptance bars against the baseline file, so a
    # stale or hand-edited baseline cannot hide a regression behind the gate.
    event_loop = base_results.get("event_loop", {})
    ratio = event_loop.get("speedup_vs_pr1_baseline")
    if ratio is not None and ratio < 2.0:
        failures.append(f"baseline event_loop is only {ratio:.2f}x the PR 1 "
                        "constant; need >=2x")
    swim = sweep.get("swim_full", {})
    point = swim.get("points", {}).get("6400")
    pr3 = swim.get("pr3_baseline_6400_ops_per_sec")
    if point is not None and pr3:
        ratio = point["ops_per_sec"] / pr3
        if ratio < 2.0:
            failures.append(f"baseline swim_full at 6400 nodes is only "
                            f"{ratio:.2f}x the PR 3 constant; need >=2x")
    pr5 = swim.get("pr5_baseline_6400_ops_per_sec")
    if point is not None and pr5:
        ratio = point["ops_per_sec"] / pr5
        if ratio < 1.5:
            failures.append(f"baseline swim_full at 6400 nodes is only "
                            f"{ratio:.2f}x the PR 5 pre-batching constant; "
                            "need >=1.5x")
    if point is not None and point["ops_per_sec"] < SWIM_FULL_6400_FLOOR:
        failures.append(
            f"baseline swim_full at 6400 nodes is "
            f"{point['ops_per_sec']:.0f} ev/s; the absolute floor is "
            f"{SWIM_FULL_6400_FLOOR:.0f} ev/s"
        )

    return failures


def check_shards(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> List[str]:
    """Gate the shard sweep pair (BENCH_shards.json vs a fresh run).

    The candidate may be quick-mode (CI smoke, loose scale-out floor) or
    full-mode (the nightly sweep, held to the committed 3x floor).
    """
    failures = structural_failures(
        baseline, candidate,
        label="shards",
        run="sharded-plane",
        candidate_may_be_full=True,
    )

    def scaleout(report: Dict[str, object]) -> Optional[float]:
        sweep = (report.get("results") or {}).get("scale_sweep") or {}
        return sweep.get("scaleout_8v1")

    base_ratio = scaleout(baseline)
    if base_ratio is None:
        failures.append("shards: baseline has no scale_sweep.scaleout_8v1")
    elif base_ratio < SHARDS_SCALEOUT_FLOOR:
        failures.append(
            f"shards: committed full-mode 8-shard scale-out is only "
            f"{base_ratio:.2f}x; the acceptance floor is "
            f"{SHARDS_SCALEOUT_FLOOR:.1f}x"
        )

    cand_ratio = scaleout(candidate)
    cand_floor = (SHARDS_QUICK_SCALEOUT_FLOOR if candidate.get("quick")
                  else SHARDS_SCALEOUT_FLOOR)
    if cand_ratio is None:
        failures.append("shards: candidate has no scale_sweep.scaleout_8v1")
    elif cand_ratio < cand_floor:
        failures.append(
            f"shards: candidate 8-shard scale-out is only {cand_ratio:.2f}x; "
            f"the floor for this run size is {cand_floor:.1f}x"
        )

    hot = (candidate.get("results") or {}).get("hot_replica")
    if hot is not None and not hot.get("staleness_bound_respected", True):
        failures.append("shards: a candidate replica/cache answer exceeded "
                        "its staleness bound")

    return failures


#: The four knee-verdict booleans every overload report must hold; see
#: ``bench_overload.py`` for the precise definitions.
OVERLOAD_KNEE_CHECKS = (
    "off_collapses", "off_p99_blowup", "on_goodput_floor", "on_p99_bounded",
)


def check_overload(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> List[str]:
    """Gate the overload knee pair (BENCH_overload.json vs a fresh run).

    Beyond the shared structural checks, the knee verdict booleans must
    hold in **both** files: in the baseline so a stale or hand-edited
    committed report cannot hide a regression, and in the candidate so the
    defenses demonstrably still move the knee on the machine running the
    gate. The candidate may be quick-mode (fewer sweep points, shorter
    window) or full-mode (the nightly sweep).
    """
    failures = structural_failures(
        baseline, candidate,
        label="overload",
        run="overload-knee",
        candidate_may_be_full=True,
    )

    for side, report in (("baseline", baseline), ("candidate", candidate)):
        knee = ((report.get("results") or {}).get("knee_sweep") or {}).get("knee")
        if knee is None:
            failures.append(f"overload: {side} has no knee_sweep.knee verdict")
            continue
        for name in OVERLOAD_KNEE_CHECKS:
            if not knee.get(name):
                failures.append(
                    f"overload: {side} knee verdict '{name}' is false — the "
                    "defenses no longer move the saturation knee"
                )

    return failures


def _checksum_of(report: Optional[Dict[str, object]]) -> str:
    """First 16 hex chars of a report's determinism checksum (or ``-``)."""
    if not report:
        return "-"
    value = (report.get("determinism") or {}).get("checksum")
    return f"{str(value)[:16]}…" if value else "-"


def write_summary(
    path: str,
    failures: List[str],
    *,
    kernel: Optional[Tuple[Dict[str, object], Dict[str, object]]],
    shards: Optional[Tuple[Dict[str, object], Dict[str, object]]],
    overload: Optional[Tuple[Dict[str, object], Dict[str, object]]] = None,
) -> None:
    """Append the gate verdict as markdown to ``path`` (a step summary)."""
    lines = ["## Bench gate", ""]
    lines.append("**Verdict:** " + ("❌ FAIL" if failures else "✅ PASS"))
    lines.append("")
    lines.append("| check | baseline | candidate |")
    lines.append("|---|---|---|")
    if kernel is not None:
        base, cand = kernel
        lines.append(f"| kernel checksum | {_checksum_of(base)} "
                     f"| {_checksum_of(cand)} |")
    if shards is not None:
        base, cand = shards
        lines.append(f"| shards checksum | {_checksum_of(base)} "
                     f"| {_checksum_of(cand)} |")

        def ratio(report: Dict[str, object]) -> str:
            sweep = (report.get("results") or {}).get("scale_sweep") or {}
            value = sweep.get("scaleout_8v1")
            return f"{value:.2f}x" if value is not None else "-"

        lines.append(f"| 8-shard scale-out (floor "
                     f"{SHARDS_SCALEOUT_FLOOR:.1f}x full / "
                     f"{SHARDS_QUICK_SCALEOUT_FLOOR:.1f}x quick) "
                     f"| {ratio(base)} | {ratio(cand)} |")
    if overload is not None:
        base, cand = overload
        lines.append(f"| overload checksum | {_checksum_of(base)} "
                     f"| {_checksum_of(cand)} |")

        def knee_ok(report: Dict[str, object]) -> str:
            knee = ((report.get("results") or {})
                    .get("knee_sweep") or {}).get("knee") or {}
            held = sum(1 for name in OVERLOAD_KNEE_CHECKS if knee.get(name))
            return f"{held}/{len(OVERLOAD_KNEE_CHECKS)} held"

        lines.append(f"| overload knee verdict | {knee_ok(base)} "
                     f"| {knee_ok(cand)} |")
    lines.append("")
    if failures:
        lines.append("### Failures")
        lines.extend(f"- {failure}" for failure in failures)
        lines.append("")
    with open(path, "a") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    """CLI entry point; returns a non-zero exit code on any gate failure."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_kernel.json",
                        help="committed full-mode kernel results (default: "
                             "BENCH_kernel.json)")
    parser.add_argument("--candidate", default="BENCH_kernel.quick.json",
                        help="fresh quick-mode kernel results (default: "
                             "BENCH_kernel.quick.json)")
    parser.add_argument("--shards-baseline", default=None,
                        help="committed full-mode shard sweep results "
                             "(omit to skip the shards gate)")
    parser.add_argument("--shards-candidate", default=None,
                        help="fresh shard sweep results (quick or full)")
    parser.add_argument("--overload-baseline", default=None,
                        help="committed full-mode overload knee results "
                             "(omit to skip the overload gate)")
    parser.add_argument("--overload-candidate", default=None,
                        help="fresh overload knee results (quick or full)")
    parser.add_argument("--allow-full-candidate", action="store_true",
                        help="accept full-mode candidate files (the nightly "
                             "sweep gates full against full)")
    parser.add_argument("--summary", default=None,
                        help="append a markdown verdict to this file "
                             "(point at $GITHUB_STEP_SUMMARY in CI)")
    args = parser.parse_args(argv)

    def load_or_fail(path: str, hint: str) -> Optional[Dict[str, object]]:
        try:
            return load(path)
        except OSError as exc:
            print(f"gate: cannot read {path}: {exc} {hint}", file=sys.stderr)
            return None

    failures: List[str] = []
    kernel_pair = None
    baseline = load_or_fail(args.baseline, "")
    candidate = load_or_fail(
        args.candidate,
        "(run: PYTHONPATH=src python benchmarks/bench_kernel.py --quick)",
    )
    if baseline is None or candidate is None:
        return 1
    kernel_pair = (baseline, candidate)
    failures.extend(check(baseline, candidate,
                          allow_full_candidate=args.allow_full_candidate))

    shards_pair = None
    if args.shards_baseline or args.shards_candidate:
        if not (args.shards_baseline and args.shards_candidate):
            print("gate: --shards-baseline and --shards-candidate must be "
                  "given together", file=sys.stderr)
            return 1
        shards_base = load_or_fail(args.shards_baseline, "")
        shards_cand = load_or_fail(
            args.shards_candidate,
            "(run: PYTHONPATH=src python benchmarks/bench_shards.py --quick)",
        )
        if shards_base is None or shards_cand is None:
            return 1
        shards_pair = (shards_base, shards_cand)
        failures.extend(check_shards(shards_base, shards_cand))

    overload_pair = None
    if args.overload_baseline or args.overload_candidate:
        if not (args.overload_baseline and args.overload_candidate):
            print("gate: --overload-baseline and --overload-candidate must "
                  "be given together", file=sys.stderr)
            return 1
        overload_base = load_or_fail(args.overload_baseline, "")
        overload_cand = load_or_fail(
            args.overload_candidate,
            "(run: PYTHONPATH=src python benchmarks/bench_overload.py "
            "--quick)",
        )
        if overload_base is None or overload_cand is None:
            return 1
        overload_pair = (overload_base, overload_cand)
        failures.extend(check_overload(overload_base, overload_cand))

    if args.summary:
        write_summary(args.summary, failures,
                      kernel=kernel_pair, shards=shards_pair,
                      overload=overload_pair)

    if failures:
        for failure in failures:
            print(f"gate FAIL: {failure}", file=sys.stderr)
        return 1
    checked = [f"{args.candidate} vs {args.baseline}"]
    if shards_pair is not None:
        checked.append(f"{args.shards_candidate} vs {args.shards_baseline}")
    print(f"gate OK: {'; '.join(checked)} "
          f"(kernel checksum {_checksum_of(candidate)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
