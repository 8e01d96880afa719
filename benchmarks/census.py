"""Reachability census: which function bodies in ``src/repro`` does any run reach?

    python benchmarks/census.py
    make census

Runs two sets of commands under stdlib ``cProfile``, one profiler per
process, and sorts every function defined under ``src/repro`` into three
buckets by the first set that called it:

* **product** — a product path: the figure, table and ablation benches (file
  by file), focusbench's four workloads at smoke size, the chaos smoke, the
  kernel, shard and overload ``--quick`` benches (``make check``'s bench
  gate runs all three) and the failure suite;
* **tests only** — the tier-1 suite and nothing above;
* **nowhere** — neither.

It prints, per file, the body lines in each bucket, the totals, then every
function in the last two buckets. A body line is a non-blank, non-comment
line inside a function, its docstring excluded; a nested function's lines are
its own, not its parent's. Informational: nothing is gated on the numbers.

The profiler is a ``sitecustomize`` module on ``PYTHONPATH``, so every Python
process a command starts, focusbench's reps included, profiles itself from
start-up and writes its stats at exit. Two things would silently displace it:

* pytest-benchmark pauses the active profiler around its own
  instrumentation, so the figure benches run one file per process with
  ``--benchmark-disable``;
* ``tests/test_gossip_agent.py`` installs its own profile function, so it
  runs in a process of its own and the rest of tier-1 in another.

Takes ~15 min on a 2-core box (tier-1 and the figure benches dominate).
"""

from __future__ import annotations

import ast
import os
import pstats
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Tier-1 files that install a profile function of their own.
OWN_PROCESS_TESTS = ("tests/test_gossip_agent.py",)

HOOK = '''\
import atexit, cProfile, os, tempfile

_out = os.environ.get("CENSUS_OUT")
if _out:
    _profile = cProfile.Profile()

    def _dump():
        _profile.disable()
        fd, path = tempfile.mkstemp(suffix=".prof", dir=_out)
        os.close(fd)
        _profile.dump_stats(path)

    atexit.register(_dump)
    _profile.enable()
'''

#: A function's key, as ``cProfile`` names it: ``(file under src/repro, the
#: code object's first line)``, which is a decorated function's first
#: decorator.
Key = Tuple[str, int]
#: ``key -> (qualified name, body lines)``.
Functions = Dict[Key, Tuple[str, int]]


# ------------------------------------------------------------------ commands
def product_commands(out: str) -> List[List[str]]:
    py = sys.executable
    figures = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "benchmarks").glob("bench_*.py")
        if re.search(r"^\s*def test_", path.read_text(), re.MULTILINE)
    )
    pytest = [py, "-m", "pytest", "--benchmark-disable", "-q", "-p", "no:cacheprovider"]
    return [pytest + [path] for path in figures] + [
        [py, "benchmarks/focusbench/run.py", "--workload", "all", "--seed", "42",
         "--scale", "smoke", "--reps", "1"],
        [py, "benchmarks/chaos_smoke.py"],
        [py, "benchmarks/bench_kernel.py", "--quick", "--out", f"{out}/kernel.json"],
        [py, "benchmarks/bench_shards.py", "--quick", "--out", f"{out}/shards.json"],
        [py, "benchmarks/bench_overload.py", "--quick", "--out", f"{out}/ovl.json"],
        [py, "-m", "repro.harness.failure_suite", "--out", f"{out}/failures.json"],
    ]


def tier1_commands() -> List[List[str]]:
    pytest = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    rest = pytest + ["tests"]
    for path in OWN_PROCESS_TESTS:
        rest += ["--ignore", path]
    return [rest] + [pytest + [path] for path in OWN_PROCESS_TESTS]


def profile_runs(commands: Iterable[List[str]], hook_dir: str, work: str) -> Set[Key]:
    """Run ``commands`` under the hook; the keys of the functions they called."""
    stats_dir = tempfile.mkdtemp(dir=work)
    env = dict(os.environ, CENSUS_OUT=stats_dir, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [hook_dir, str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for command in commands:
        print("census:", " ".join(command[1:]), file=sys.stderr, flush=True)
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        if done.returncode not in (0, 5):  # 5: pytest collected nothing
            # pytest names the failing tests at the end of its stdout.
            print(f"census: exit {done.returncode}\n{done.stdout[-3000:]}"
                  f"{done.stderr[-1000:]}", file=sys.stderr, flush=True)
    called: Set[Key] = set()
    pattern = re.compile(r"(?:^|[\\/])src[\\/]repro[\\/](.+\.py)$")
    for name in os.listdir(stats_dir):
        for filename, line, _func in pstats.Stats(os.path.join(stats_dir, name)).stats:
            match = pattern.search(filename)
            if match:
                called.add((match.group(1).replace(os.sep, "/"), line))
    return called


# ----------------------------------------------------------------- functions
_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def _first_line(node: ast.AST) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _body_lines(func: ast.AST, source: List[str]) -> int:
    """Non-blank, non-comment lines of ``func``'s body, without its
    docstring or the functions nested in it."""
    body = func.body
    if (len(body) > 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    lines = set(range(body[0].lineno, func.end_lineno + 1))
    for inner in ast.walk(func):
        if inner is not func and isinstance(inner, _FUNCTION):
            lines -= set(range(_first_line(inner), inner.end_lineno + 1))
    return sum(
        1 for n in lines
        if source[n - 1].strip() and not source[n - 1].lstrip().startswith("#")
    )


def functions() -> Functions:
    """Every function under ``src/repro`` with its body-line count."""
    found: Functions = {}

    def visit(node: ast.AST, prefix: str, rel: str, source: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef,) + _FUNCTION):
                name = f"{prefix}{child.name}"
                if isinstance(child, _FUNCTION):
                    key = (rel, _first_line(child))
                    found[key] = (name, _body_lines(child, source))
                visit(child, f"{name}.", rel, source)

    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        rel = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(text), "", rel, text.splitlines())
    return found


# ------------------------------------------------------------------- report
def report(found: Functions, product: Set[Key], tier1: Set[Key]) -> None:
    buckets = ("product", "tests only", "nowhere")
    per_file: Dict[str, List[int]] = {}
    listed: Dict[str, List[str]] = {"tests only": [], "nowhere": []}
    for (rel, line), (name, lines) in sorted(found.items()):
        bucket = 0 if (rel, line) in product else 1 if (rel, line) in tier1 else 2
        row = per_file.setdefault(rel, [0, 0, 0, 0, 0, 0])
        row[bucket] += lines
        row[3 + bucket] += 1
        if bucket:
            listed[buckets[bucket]].append(f"  {rel}:{line} {name} ({lines})")
    width = max(len(rel) for rel in per_file)
    print(f"{'file':{width}}  {'product':>8} {'tests only':>10} {'nowhere':>8}")
    for rel, row in per_file.items():
        print(f"{rel:{width}}  {row[0]:8d} {row[1]:10d} {row[2]:8d}")
    totals = [sum(row[i] for row in per_file.values()) for i in range(6)]
    print(f"{'total lines':{width}}  {totals[0]:8d} {totals[1]:10d} {totals[2]:8d}")
    print(f"{'total functions':{width}}  {totals[3]:8d} {totals[4]:10d} {totals[5]:8d}")
    for bucket in ("tests only", "nowhere"):
        print(f"\n{bucket} (file:line function (body lines)):")
        print("\n".join(listed[bucket]) or "  none")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="census-") as work:
        hook_dir = os.path.join(work, "hook")
        os.mkdir(hook_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        product = profile_runs(product_commands(work), hook_dir, work)
        tier1 = profile_runs(tier1_commands(), hook_dir, work)
    report(functions(), product, tier1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
