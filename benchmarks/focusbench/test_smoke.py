"""Smoke pass: ``pytest benchmarks/focusbench`` (not part of tier-1).

Runs every workload at ``--scale smoke`` (≤ 64 agents, ≤ 5 sim-s each), one
untraced and one traced rep, and checks that what the benchmark emits is
exactly what ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.focusbench import run  # noqa: E402
from benchmarks.focusbench.oracle import Oracle  # noqa: E402
from benchmarks.focusbench.workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_declared_names_are_well_formed():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in DECLARED[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert DECLARED["paths"] == ["benchmarks/focusbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_exactly_the_declared_metrics(workload):
    measurement = run.measure(workload, seed=42, scale="smoke", reps=1, trace=True)
    assert measurement.correct, measurement.failures
    assert measurement.failed == 0
    for key, emitted in (("end_to_end", measurement.end_to_end()),
                         ("per_layer", measurement.per_layer())):
        declared = {entry["name"]: entry["unit"] for entry in DECLARED[key]}
        assert {name: m["unit"] for name, m in emitted.items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in emitted.values())
    assert all(m["value"] > 0 for m in measurement.end_to_end().values())


def test_oracle_rejects_a_corrupted_answer():
    from benchmarks.focusbench.rep import classify

    workload = WORKLOADS["group_mesh"]
    sizes = workload.sizes["smoke"]
    scenario = workload.build(7, sizes)
    workload.warm_up(scenario, 7, sizes)
    plan = workload.generate(scenario, 7, sizes)
    scenario.sim.run_until(plan.end_time)
    oracle = Oracle(plan.log, static=True)
    answered = [
        s for s in plan.board.spans if classify(s) == "ok" and s.response.matches
    ]
    assert answered and all(oracle.violation(s) == ("", "") for s in answered)

    span = answered[0]
    outsider = next(
        node_id for node_id, state in plan.log.initial.items()
        if not span.query.matches(state)
    )
    unsound = copy.copy(span)
    unsound.response = copy.copy(span.response)
    unsound.response.matches = [*span.response.matches, {"node": outsider, "attrs": {}}]
    assert oracle.violation(unsound)[0] == "unsound"

    incomplete = copy.copy(span)
    incomplete.response = copy.copy(span.response)
    incomplete.response.matches = span.response.matches[:-1]
    assert oracle.violation(incomplete)[0] == "incomplete"
