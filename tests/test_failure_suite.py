"""Failure suite: deterministic reports with the expected resilience shape."""

from repro.harness.failure_suite import (
    SCENARIOS,
    report_checksum,
    run_hot_key_overload,
    run_herd_reregistration,
    run_query_storm,
    run_server_failover,
    run_single_node_crash,
)

REPORT_KEYS = {
    "scenario", "seed", "num_nodes", "fault_log", "skipped_faults",
    "fault_window", "detection_latency_s", "reconvergence_s", "counters",
}


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_single_node_crash(seed=5, num_nodes=12)
        b = run_single_node_crash(seed=5, num_nodes=12)
        assert a == b
        assert report_checksum(a) == report_checksum(b)

    def test_different_seed_different_report(self):
        a = run_single_node_crash(seed=5, num_nodes=12)
        b = run_single_node_crash(seed=6, num_nodes=12)
        assert report_checksum(a) != report_checksum(b)


class TestReportShape:
    def test_single_node_crash_report(self):
        report = run_single_node_crash(seed=5, num_nodes=12)
        assert set(report) == REPORT_KEYS
        assert report["scenario"] == "single-node-crash"
        # Crash and restart both made it into the fault log.
        actions = [entry["action"] for entry in report["fault_log"]]
        assert any(a.startswith("crash node-") for a in actions)
        assert any(a.startswith("restart node-") for a in actions)
        assert report["skipped_faults"] == []
        # The crashed node vanished from answers within a few probe periods.
        assert report["detection_latency_s"] is not None
        assert report["detection_latency_s"] <= 3.0
        window = report["fault_window"]
        assert window["polls"] > 0
        assert 0.0 <= window["false_negative_rate"] <= 1.0
        assert 0.0 <= window["stale_answer_rate"] <= 1.0
        assert report["reconvergence_s"] >= 0.0

    def test_server_failover_detects_outage_and_recovers(self):
        report = run_server_failover(seed=5, num_nodes=12)
        # During the outage the probe times out rather than lying.
        assert report["fault_window"]["timeouts"] > 0
        assert report["detection_latency_s"] is not None
        # The restarted server answered probes again before the run ended.
        assert report["reconvergence_s"] < 15.0
        assert report["counters"].get("rpc.timeouts", 0) > 0

    def test_registry_names_all_scenarios(self):
        assert set(SCENARIOS) == {
            "single-node-crash", "region-partition", "churn-storm",
            "focus-server-failover", "shard-failover",
            "query-storm", "herd-reregistration", "hot-key-overload",
        }


class TestOverloadScenarios:
    """The three overload scenarios must hold their `asserts` contract —
    the same booleans CI's chaos job re-checks from the resilience report."""

    def test_query_storm_contract(self):
        report = run_query_storm(seed=0)
        assert all(report["asserts"].values()), report["asserts"]
        # The storm actually crossed the knee: the defenses had to act.
        assert report["queries_shed"] + report["queries_throttled"] > 0
        # Any breaker that opened mid-storm re-closed by the end.
        assert report["breakers"]["all_closed"]

    def test_herd_reregistration_contract(self):
        report = run_herd_reregistration(seed=0)
        assert all(report["asserts"].values()), report["asserts"]
        # The registration lane served every herd member's re-registration:
        # the bulkhead kept it alive under the query load.
        assert report["herd_registrations_served"] >= report["herd_size"]

    def test_hot_key_overload_contract(self):
        report = run_hot_key_overload(seed=0)
        assert all(report["asserts"].values()), report["asserts"]
        # The hot shard's breaker tripped and the router served stale
        # cache answers stamped with a positive staleness bound.
        assert report["breakers"]["any_opened"]
        assert report["stale_served"] > 0

    def test_query_storm_deterministic(self):
        a = run_query_storm(seed=3, num_nodes=16)
        b = run_query_storm(seed=3, num_nodes=16)
        assert a == b
