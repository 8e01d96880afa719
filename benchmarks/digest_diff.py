"""Is the simulated byte stream the same as at another revision?

    python benchmarks/digest_diff.py [--base REV] [--seeds 42,7] [--summary FILE]
    make digest-diff [BASE=REV]

Exports the committed files of ``--base`` (default ``HEAD~1``) into a
temporary directory, runs one untraced ``--scale smoke`` focusbench rep per
workload and seed on that tree and on this one, prints the digests side by
side and exits non-zero when any pair differs. A focusbench digest is a
SHA-256 over everything a rep simulated — every query span, the message, byte
and event counts, the sim metrics — so "no difference" is what "byte stream
unchanged" means in a change description. Where a pair does differ, the two
reps' digested blocks are walked side by side and the leaves that differ are
named (``counts.events``, ``spans[3].latency_ms``, ...), so "unchanged apart
from the event count" is a line of output too.

Nothing is pinned: there is no expected digest to edit. A change that moves
bytes on purpose reports the difference, and its description says why.

The base tree comes from ``git archive`` rather than ``git worktree``: it is
exactly the committed files, and nothing is written under ``.git``. Each rep
is run by the focusbench of the tree it measures (the same child process
``run.py`` itself starts), so the two sides share no code, and the tool needs
no network and imports nothing from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (42, 7)
REP_TIMEOUT_S = 170
#: What focusbench's ``rep._digest`` hashes, i.e. where a difference can be.
DIGESTED = ("attempted", "outcomes", "failed", "wrong", "degraded", "sim",
            "counts", "spans", "conservation")
#: Differing leaves named per pair before the rest is only counted.
MAX_NAMED = 12


def export_revision(rev: str, into: Path) -> None:
    """Unpack the committed files of ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, capture_output=True, check=False,
    )
    if archive.returncode != 0:
        raise SystemExit(
            f"digest-diff: cannot export {rev!r}: {archive.stderr.decode().strip()}"
        )
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)


def smoke_rep(tree: Path, workload: str, seed: int) -> Dict[str, object]:
    """One untraced smoke rep, run by ``tree``'s own focusbench."""
    runner = tree / "benchmarks" / "focusbench" / "run.py"
    if not runner.is_file():
        raise SystemExit(f"digest-diff: {tree} has no benchmarks/focusbench/run.py")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree)])
    done = subprocess.run(
        [sys.executable, str(runner), "--child", "untraced", "--workload", workload,
         "--seed", str(seed), "--scale", "smoke"],
        cwd=tree, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"digest-diff: {workload} seed {seed} failed in {tree}:\n"
            f"{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def differing_leaves(theirs: object, ours: object, path: str = "") -> Iterator[str]:
    """Paths of the leaves at which two JSON values differ."""
    if isinstance(theirs, dict) and isinstance(ours, dict):
        for key in sorted(theirs.keys() | ours.keys()):
            yield from differing_leaves(
                theirs.get(key), ours.get(key), f"{path}.{key}" if path else key
            )
    elif isinstance(theirs, list) and isinstance(ours, list) and len(theirs) == len(ours):
        for index, (left, right) in enumerate(zip(theirs, ours)):
            yield from differing_leaves(left, right, f"{path}[{index}]")
    elif theirs != ours:
        yield path


Row = Tuple[str, int, str, str, List[str]]


def compare(base_tree: Path, seeds: Sequence[int]) -> List[Row]:
    """``(workload, seed, base digest, this tree's digest, differing leaves)``
    for every workload ``BENCHMARK.json`` declares and every seed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    rows = []
    for seed in seeds:
        for workload in (entry["name"] for entry in declared):
            theirs = smoke_rep(base_tree, workload, seed)
            ours = smoke_rep(ROOT, workload, seed)
            leaves = [] if theirs["digest"] == ours["digest"] else list(differing_leaves(
                {key: theirs.get(key) for key in DIGESTED},
                {key: ours.get(key) for key in DIGESTED},
            ))
            rows.append((workload, seed, theirs["digest"], ours["digest"], leaves))
    return rows


def render(base: str, rows: Sequence[Row]) -> str:
    """A markdown table; it reads the same on a terminal."""
    lines = [
        f"| workload | seed | `{base}` | this tree | |",
        "|---|---|---|---|---|",
    ]
    for workload, seed, theirs, ours, leaves in rows:
        verdict = "same"
        if theirs != ours:
            named = ", ".join(f"`{leaf}`" for leaf in leaves[:MAX_NAMED])
            more = f" and {len(leaves) - MAX_NAMED} more" if len(leaves) > MAX_NAMED else ""
            verdict = f"**DIFFERENT** in {named}{more}"
        lines.append(
            f"| `{workload}` | {seed} | `{theirs[:12]}` | `{ours[:12]}` | {verdict} |"
        )
    moved = sum(theirs != ours for _, _, theirs, ours, _ in rows)
    lines.append("")
    everywhere = sorted(set().union(*(leaves for *_, leaves in rows)))
    lines.append(
        f"byte stream unchanged: all {len(rows)} smoke digests equal `{base}`"
        if not moved else
        f"byte stream CHANGED: {moved} of {len(rows)} smoke digests differ from `{base}`"
        + (f", only in {', '.join(f'`{leaf}`' for leaf in everywhere)}"
           if len(everywhere) <= MAX_NAMED else "")
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="revision to compare against (default HEAD~1)")
    parser.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                        help="comma-separated workload seeds (default 42,7)")
    parser.add_argument("--summary", default=None,
                        help="append the table to this file ($GITHUB_STEP_SUMMARY)")
    args = parser.parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="digest-diff-") as scratch:
        base_tree = Path(scratch)
        export_revision(args.base, base_tree)
        rows = compare(base_tree, seeds)
    table = render(args.base, rows)
    print(table)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as handle:
            handle.write(f"### focusbench digests vs `{args.base}`\n\n{table}\n\n")
    return 1 if any(theirs != ours for _, _, theirs, ours, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
