"""Is this tree's steady phase faster than another revision's, slice by slice?

    python benchmarks/lockstep.py --base REV [--workload group_mesh] [--seed 42]
        [--reps 3] [--slices 50] [--scale full]
    make lockstep BASE=REV WORKLOAD=W [SEED=42] [REPS=3]

Exports the committed files of ``--base`` with ``git archive`` (as
``digest_diff.py`` does) and, per rep, starts two child processes: one on
that tree and one on this one. Each builds, warms up and generates one
focusbench rep with its own tree's code, then waits. The parent then runs
the two steady phases alternately, one sim-time slice at a time (``--slices``
equal slices, the order of the pair swapped every slice), and each child
times its own slice in ``process_time``. A drift in the host's speed, which
on a shared box can be 1.3-1.7x within a minute, then hits both trees' copy
of a slice alike, where two focusbench runs one after the other see
different machines.

Per rep it prints both CPU totals, their ratio (this tree over the base),
the slices this tree won, each side's steady-phase event count (equal when
the byte stream is) and each child's ``ru_maxrss``. Informational: nothing
is gated on its numbers. A rep whose event counts differ is flagged, as its
ratio compares different work.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Run as a script, so its own directory is on sys.path; the children must not
# have this tree's root there, or its ``benchmarks`` would shadow the base's.
from digest_diff import export_revision

ROOT = Path(__file__).resolve().parent.parent


def child(workload_name: str, seed: int, scale: str, slices: int) -> None:
    """The child side: prepare one rep with the tree on ``PYTHONPATH``, then
    run one steady slice per ``"next"`` line read from stdin and answer each
    with a JSON line; the last answer adds the event count and peak RSS."""
    from benchmarks.focusbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    sizes = workload.sizes[scale]
    scenario = workload.build(seed, sizes)
    workload.warm_up(scenario, seed, sizes)
    plan = workload.generate(scenario, seed, sizes)
    scenario.reset_bandwidth()
    sim = scenario.sim
    span = plan.end_time - plan.start_time
    edges = [plan.start_time + span * (i + 1) / slices
             for i in range(slices - 1)] + [plan.end_time]
    before = sim.events_processed
    gc.collect()
    print(json.dumps({"ready": True}), flush=True)
    for index, edge in enumerate(edges):
        if sys.stdin.readline().strip() != "next":
            return
        started = time.process_time()
        sim.run_until(edge)
        answer = {"cpu_s": time.process_time() - started}
        if index == len(edges) - 1:
            answer["events"] = sim.events_processed - before
            answer["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(answer), flush=True)


def start(tree: Path, args) -> subprocess.Popen:
    """A child on ``tree``'s code, prepared and waiting for its first slice."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    process = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--scale", args.scale, "--slices", str(args.slices)],
        cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True,
    )
    read(process)  # the "ready" line
    return process


def read(process: subprocess.Popen) -> dict:
    line = process.stdout.readline()
    if not line:
        raise SystemExit(f"lockstep: a child exited with {process.wait()}")
    return json.loads(line)


def step(process: subprocess.Popen) -> dict:
    process.stdin.write("next\n")
    process.stdin.flush()
    return read(process)


def rep(base_tree: Path, args) -> dict:
    """One rep: both children prepared one after the other, then their
    steady phases interleaved slice by slice."""
    sides = {"base": start(base_tree, args), "this": start(ROOT, args)}
    cpu = {"base": [], "this": []}
    last = {}
    try:
        for index in range(args.slices):
            order = ("base", "this") if index % 2 == 0 else ("this", "base")
            for side in order:
                answer = step(sides[side])
                cpu[side].append(answer["cpu_s"])
                last[side] = answer
    finally:
        for process in sides.values():
            process.stdin.close()
            process.wait()
    won = sum(ours < theirs for ours, theirs in zip(cpu["this"], cpu["base"]))
    return {
        "base_s": sum(cpu["base"]), "this_s": sum(cpu["this"]),
        "ratio": sum(cpu["this"]) / sum(cpu["base"]),
        "won": won,
        "events": (last["base"]["events"], last["this"]["events"]),
        "rss_mb": (last["base"]["rss_mb"], last["this"]["rss_mb"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="revision to compare against (default HEAD~1)")
    parser.add_argument("--workload", default="group_mesh")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--slices", type=int, default=50)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.workload, args.seed, args.scale, args.slices)
        return 0
    print(f"== lockstep {args.workload} seed={args.seed} scale={args.scale}: "
          f"this tree vs {args.base}, {args.slices} slices, process_time")
    print(f"{'rep':>3}{'base_s':>9}{'this_s':>9}{'ratio':>8}{'won':>8}"
          f"{'events base/this':>22}{'rss_mb base/this':>20}")
    mismatched = False
    with tempfile.TemporaryDirectory(prefix="lockstep-") as scratch:
        base_tree = Path(scratch)
        export_revision(args.base, base_tree)
        for number in range(1, args.reps + 1):
            row = rep(base_tree, args)
            events = "{}/{}".format(*row["events"])
            rss = "{:.1f}/{:.1f}".format(*row["rss_mb"])
            flag = ""
            if row["events"][0] != row["events"][1]:
                flag, mismatched = "  events differ", True
            print(f"{number:>3}{row['base_s']:>9.3f}{row['this_s']:>9.3f}"
                  f"{row['ratio']:>8.3f}{row['won']:>5}/{args.slices:<2}"
                  f"{events:>22}{rss:>20}{flag}", flush=True)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
