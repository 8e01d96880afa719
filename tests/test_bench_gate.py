"""The benchmark gate fails with clear messages, never a KeyError."""

import json

from benchmarks.gate import (
    SHARDS_QUICK_SCALEOUT_FLOOR,
    SHARDS_SCALEOUT_FLOOR,
    SWIM_FULL_6400_FLOOR,
    check,
    check_shards,
    main,
    write_summary,
)


def kernel_report(*, quick, benches=("event_loop",), checksum="aa", speedup=10.0):
    """A minimal kernel bench report with the gate-relevant keys."""
    return {
        "quick": quick,
        "results": {name: {"speedup": speedup} for name in benches},
        "determinism": {"checksum": checksum, "stable": True},
    }


def shards_report(*, quick, checksum="bb", scaleout=5.0):
    """A minimal shard-sweep report with the gate-relevant keys."""
    return {
        "quick": quick,
        "results": {
            "scale_sweep": {"scaleout_8v1": scaleout, "points": {}},
            "hot_replica": {"staleness_bound_respected": True},
        },
        "determinism": {"checksum": checksum, "stable": True},
    }


class TestMissingBenches:
    def test_bench_vanishing_from_candidate_fails_clearly(self):
        baseline = kernel_report(quick=False, benches=("event_loop", "net"))
        candidate = kernel_report(quick=True, benches=("event_loop",))
        failures = check(baseline, candidate)
        assert any("'net'" in f and "missing from the candidate" in f
                   for f in failures)

    def test_candidate_bench_without_baseline_fails_clearly(self):
        baseline = kernel_report(quick=False, benches=("event_loop",))
        candidate = kernel_report(quick=True, benches=("event_loop", "brand_new"))
        failures = check(baseline, candidate)
        assert any("'brand_new'" in f and "missing from the committed baseline" in f
                   for f in failures)

    def test_matching_sets_pass(self):
        baseline = kernel_report(quick=False)
        candidate = kernel_report(quick=True)
        assert check(baseline, candidate) == []


class TestSingleArmPoints:
    """event_loop / timer_storm / swim_full carry no naive arm any more."""

    @staticmethod
    def report(*, quick, pr1_ratio=2.2):
        report = kernel_report(quick=quick, benches=())
        report["results"] = {
            "event_loop": {"ops_per_sec": 6e5, "speedup_vs_pr1_baseline": pr1_ratio},
            "timer_storm": {"ops_per_sec": 6e5},
        }
        return report

    def test_points_without_a_speedup_key_pass(self):
        assert check(self.report(quick=False), self.report(quick=True)) == []

    def test_baseline_below_pr1_acceptance_bar_fails(self):
        failures = check(
            self.report(quick=False, pr1_ratio=1.7), self.report(quick=True)
        )
        assert any("PR 1 constant" in f for f in failures)

    @staticmethod
    def with_swim_full(report, rate):
        report["results"]["scale_sweep"] = {"swim_full": {
            "points": {"6400": {"ops_per_sec": rate}},
            "pr3_baseline_6400_ops_per_sec": 5_865.0,
            "pr5_baseline_6400_ops_per_sec": 13_227.0,
        }}
        return report

    def test_baseline_swim_full_above_floor_passes(self):
        baseline = self.with_swim_full(self.report(quick=False), 60_000.0)
        candidate = self.with_swim_full(self.report(quick=True), 90_000.0)
        assert check(baseline, candidate) == []

    def test_baseline_swim_full_below_floor_fails(self):
        # Clears the PR 3 and PR 5 ratios, misses the absolute floor.
        baseline = self.with_swim_full(
            self.report(quick=False), SWIM_FULL_6400_FLOOR - 1_000.0
        )
        candidate = self.with_swim_full(self.report(quick=True), 90_000.0)
        failures = check(baseline, candidate)
        assert len(failures) == 1 and "absolute floor" in failures[0]


class TestKernelChecksum:
    def test_checksum_drift_fails(self):
        failures = check(
            kernel_report(quick=False, checksum="aa"),
            kernel_report(quick=True, checksum="zz"),
        )
        assert any("kernel determinism checksum drifted" in f for f in failures)

    def test_summary_has_one_kernel_checksum_row(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(
            str(path), [],
            kernel=(kernel_report(quick=False), kernel_report(quick=True)),
            shards=None,
        )
        rows = [line for line in path.read_text().splitlines()
                if "checksum" in line]
        assert rows == ["| kernel checksum | aa… | aa… |"]


class TestNoKeyErrors:
    def test_empty_reports_fail_without_raising(self):
        failures = check({}, {})
        assert failures  # not deterministic, not quick — but no exception

    def test_shards_empty_reports_fail_without_raising(self):
        failures = check_shards({}, {})
        assert any("scaleout_8v1" in f for f in failures)

    def test_main_reports_missing_checksum_not_keyerror(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        candidate = tmp_path / "cand.json"
        baseline.write_text(json.dumps(kernel_report(quick=False)))
        # A candidate with no determinism block at all must produce gate
        # failures on stderr, not a KeyError traceback.
        candidate.write_text(json.dumps({"quick": True, "results": {}}))
        code = main(["--baseline", str(baseline), "--candidate", str(candidate)])
        assert code == 1
        err = capsys.readouterr().err
        assert "gate FAIL" in err


class TestShardsGate:
    def test_checksum_drift_fails(self):
        failures = check_shards(
            shards_report(quick=False, checksum="aa"),
            shards_report(quick=True, checksum="zz"),
        )
        assert any("checksum drifted" in f for f in failures)

    def test_baseline_below_committed_floor_fails(self):
        failures = check_shards(
            shards_report(quick=False, scaleout=SHARDS_SCALEOUT_FLOOR - 0.5),
            shards_report(quick=True),
        )
        assert any("committed full-mode 8-shard scale-out" in f
                   for f in failures)

    def test_quick_candidate_gets_loose_floor(self):
        ratio = (SHARDS_QUICK_SCALEOUT_FLOOR + SHARDS_SCALEOUT_FLOOR) / 2.0
        ok = check_shards(
            shards_report(quick=False),
            shards_report(quick=True, scaleout=ratio),
        )
        assert ok == []
        bad = check_shards(
            shards_report(quick=False),
            shards_report(quick=True,
                          scaleout=SHARDS_QUICK_SCALEOUT_FLOOR - 0.2),
        )
        assert any("candidate 8-shard scale-out" in f for f in bad)

    def test_full_candidate_held_to_committed_floor(self):
        failures = check_shards(
            shards_report(quick=False),
            shards_report(quick=False, scaleout=SHARDS_SCALEOUT_FLOOR - 0.5),
        )
        assert any("candidate 8-shard scale-out" in f for f in failures)

    def test_staleness_violation_fails(self):
        candidate = shards_report(quick=True)
        candidate["results"]["hot_replica"]["staleness_bound_respected"] = False
        failures = check_shards(shards_report(quick=False), candidate)
        assert any("staleness bound" in f for f in failures)


class TestSummary:
    def test_summary_includes_verdict_and_scaleout(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(
            str(path), [],
            kernel=(kernel_report(quick=False), kernel_report(quick=True)),
            shards=(shards_report(quick=False), shards_report(quick=True)),
        )
        text = path.read_text()
        assert "✅ PASS" in text
        assert "8-shard scale-out" in text
        assert "5.00x" in text

    def test_summary_lists_failures(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(str(path), ["something broke"], kernel=None, shards=None)
        text = path.read_text()
        assert "❌ FAIL" in text
        assert "something broke" in text
