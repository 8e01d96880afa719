"""Is the simulated byte stream the same as at another revision?

    python benchmarks/digest_diff.py [--base REV] [--seeds 42,7] [--summary FILE]
    make digest-diff [BASE=REV]

Exports the committed files of ``--base`` (default ``HEAD~1``) into a
temporary directory, runs one untraced ``--scale smoke`` focusbench rep per
workload and seed on that tree and on this one, prints the digests side by
side and exits non-zero when any pair differs. A focusbench digest is a
SHA-256 over everything a rep simulated — every query span, the message, byte
and event counts, the sim metrics — so "no difference" is what "byte stream
unchanged" means in a change description.

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
from typing import List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (42, 7)
REP_TIMEOUT_S = 170


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


def smoke_digest(tree: Path, workload: str, seed: int) -> str:
    """The digest of one untraced smoke rep, run by ``tree``'s own focusbench."""
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
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"]


def compare(base_tree: Path, seeds: Sequence[int]) -> List[Tuple[str, int, str, str]]:
    """``(workload, seed, base digest, this tree's digest)`` for every
    workload ``BENCHMARK.json`` declares and every seed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    rows = []
    for seed in seeds:
        for workload in (entry["name"] for entry in declared):
            rows.append((
                workload, seed,
                smoke_digest(base_tree, workload, seed),
                smoke_digest(ROOT, workload, seed),
            ))
    return rows


def render(base: str, rows: Sequence[Tuple[str, int, str, str]]) -> str:
    """A markdown table; it reads the same on a terminal."""
    lines = [
        f"| workload | seed | `{base}` | this tree | |",
        "|---|---|---|---|---|",
    ]
    for workload, seed, theirs, ours in rows:
        verdict = "same" if theirs == ours else "**DIFFERENT**"
        lines.append(
            f"| `{workload}` | {seed} | `{theirs[:12]}` | `{ours[:12]}` | {verdict} |"
        )
    moved = sum(theirs != ours for _, _, theirs, ours in rows)
    lines.append("")
    lines.append(
        f"byte stream unchanged: all {len(rows)} smoke digests equal `{base}`"
        if not moved else
        f"byte stream CHANGED: {moved} of {len(rows)} smoke digests differ from `{base}`"
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
    return 1 if any(theirs != ours for _, _, theirs, ours in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
