"""The store-backed static path end to end.

A static query is one scan of a static-attribute table whose replicas filter
it; a deregistration deletes the node's rows. So every static answer is what
filtering the live registrations gives, also through churn, and a service
restarted after a deregistration does not bring the node back.
"""

import re
from collections import defaultdict

import pytest

from repro.core.query import Query, QueryTerm
from repro.core.registrar import static_table_name
from repro.harness import build_focus_cluster, drain, run_query
from repro.sim.rpc import REQUEST_KIND, RESPONSE_KIND
from repro.store.table import Term, row_matches, rows_digest
from repro.workloads.churn import ChurnController
from tests.test_service_recovery import crash_and_restart

STATIC_QUERIES = [
    Query([QueryTerm.exact("arch", "arm64")]),
    Query([QueryTerm.exact("arch", "x86"), QueryTerm.at_least("cores", 16)]),
    Query([QueryTerm.exact("service_type", "scheduler")], limit=2),
    Query([QueryTerm.at_least("cores", 8)], limit=5),
    Query([QueryTerm.exact("project_id", "project-3")], limit=50),
]


def live_matches(scenario, query):
    """Scan-then-filter over the nodes registered and running."""
    return {
        agent.node_id
        for agent in scenario.agents
        if agent.running and agent.registered and query.matches(agent.static)
    }


def check_answer(scenario, query):
    response = run_query(scenario, query)
    assert response.source == "static" and not response.error
    answered = response.node_ids
    truth = live_matches(scenario, query)
    assert len(set(answered)) == len(answered)
    assert set(answered) <= truth, set(answered) - truth
    expected = len(truth) if query.limit is None else min(query.limit, len(truth))
    assert len(answered) == expected
    return answered


class ScanTap:
    """Pairs every ``store.scan`` reply with its replica and the request's
    parameters."""

    def __init__(self, network) -> None:
        self.requests = {}
        self.replies = []
        network.add_delivery_tap(self)

    def __call__(self, message) -> None:
        payload = message.payload
        if message.kind == REQUEST_KIND and payload["method"] == "store.scan":
            self.requests[payload["id"]] = payload["params"]
        elif message.kind == RESPONSE_KIND and payload["method"] == "store.scan":
            self.replies.append(
                (message.src, self.requests[payload["id"]], payload["result"])
            )


@pytest.fixture(scope="module")
def churned():
    """A store-backed cluster through four join/leave bursts, every static
    query asked after each burst has settled, and its scan replies."""
    scenario = build_focus_cluster(32, seed=23, with_store=True)
    drain(scenario, 12.0)
    tap = ScanTap(scenario.network)
    churn = ChurnController(scenario)
    answers = []
    for _ in range(4):
        churn.burst(joins=3, leaves=3, spacing=0.2)
        drain(scenario, 6.0)
        for query in STATIC_QUERIES:
            answers.append((set(churn.left), check_answer(scenario, query)))
    return scenario, churn, tap, answers


class TestChurn:
    def test_every_static_answer_is_the_live_registrations_filtered(self, churned):
        # check_answer ran against the live registrations as each was asked.
        scenario, churn, _, answers = churned
        assert len(churn.left) == 12 and len(churn.joined) == 12
        assert len(answers) == 4 * len(STATIC_QUERIES)
        for departed, nodes in answers:
            assert not departed & set(nodes)
        assert {node for _, nodes in answers for node in nodes} & set(churn.joined)

    def test_each_filtered_reply_carries_at_most_limit_matching_rows(self, churned):
        # A digest reply carries no rows at all.
        scenario, _, tap, _ = churned
        filtered = [(p, r) for _, p, r in tap.replies if p.get("where") is not None]
        assert len(filtered) == 3 * 4 * len(STATIC_QUERIES)
        limited = 0
        for params, result in filtered:
            terms = [Term.from_json(term) for term in params["where"]]
            rows = result.get("rows", [])
            assert all(row_matches(wire["v"], terms) for wire in rows)
            if params["limit"] is not None:
                limited += 1
                assert len(rows) <= params["limit"]
        assert limited == 3 * 4 * 3

    def test_each_filtered_scan_takes_rows_from_one_replica_digests_from_two(
        self, churned
    ):
        scenario, _, tap, _ = churned
        data = scenario.store.replicas[0].address  # the first in ring order
        scans = defaultdict(list)  # the requests of one scan share its terms
        for src, params, result in tap.replies:
            if params.get("where") is not None:
                scans[id(params["where"])].append((src, params, result))
        assert len(scans) == 4 * len(STATIC_QUERIES)
        limited = 0
        for replies in scans.values():
            assert len(replies) == 3
            (rows,) = [result["rows"] for src, _, result in replies if src == data]
            params = replies[0][1]
            terms = [Term.from_json(term) for term in params["where"]]
            assert all(row_matches(wire["v"], terms) for wire in rows)
            if params["limit"] is not None:
                limited += 1
                assert len(rows) <= params["limit"]
            digests = [result for src, _, result in replies if src != data]
            assert len(digests) == 2
            for result in digests:
                assert list(result) == ["digest"]
                assert re.fullmatch("[0-9a-f]{32}", result["digest"])
                assert result["digest"] == rows_digest(rows)
        assert limited == 4 * 3
        counter = scenario.network.metrics.get_counter("store.scan_fallbacks")
        assert counter is None  # settled replicas always agree

    def test_departed_nodes_have_no_rows_left(self, churned):
        scenario, churn, _, _ = churned
        tables = [static_table_name(name) for name in
                  ("arch", "cores", "service_type", "project_id", "site")] + ["nodes"]
        for replica in scenario.store.replicas:
            for name in tables:
                keys = set(replica.tables[name].keys())
                assert not keys & set(churn.left), (replica.address, name)
                assert set(churn.joined) - set(churn.left) <= keys


class TestRecoveryAfterDeregistration:
    def test_a_restarted_service_does_not_restore_a_departed_node(self):
        scenario = build_focus_cluster(16, seed=29, with_store=True)
        drain(scenario, 12.0)
        victim = scenario.agents[0]
        victim.shutdown()
        drain(scenario, 3.0)
        assert victim.node_id not in scenario.service.registrar.nodes
        replacement = crash_and_restart(scenario)
        done = []
        replacement.recover_from_store(lambda: done.append(True))
        drain(scenario, 3.0)
        assert done == [True]
        restored = replacement.registrar.nodes
        assert len(restored) == 15 and victim.node_id not in restored
        everyone = Query([QueryTerm.at_least("cores", 0)])
        assert victim.node_id not in check_answer(scenario, everyone)
