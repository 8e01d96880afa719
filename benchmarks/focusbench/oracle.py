"""Correctness oracle: answers are checked against what agents really held.

Ground truth comes from the benchmark's own :class:`AttributeLog`, never from
the program under test: each agent's attributes when the steady phase began,
plus every ``set_attribute`` the driver issued. Two rules:

* **soundness** — every returned node must satisfy the query predicate
  against a state the agent held at some instant between
  ``send_at - staleness_ms`` and the response time;
* **completeness** (static workloads only) — an answer that is not timed
  out and has fewer matches than its ``limit`` (or no limit at all) must be
  exactly the full ground-truth match set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.focusbench.workloads import AttributeLog, Span


class Oracle:
    def __init__(self, log: AttributeLog, *, static: bool) -> None:
        self._initial = log.initial
        self._static = static
        #: node id -> its writes in time order, ``(sim time, name, value)``.
        self._writes: Dict[str, List[Tuple[float, str, float]]] = {}
        for time, node_id, name, value in log.changes:
            self._writes.setdefault(node_id, []).append((time, name, value))

    def _held_match(self, span: Span, node_id: str, since: float, until: float) -> bool:
        """Whether ``node_id`` satisfied the query at any instant in
        ``[since, until]``."""
        state = self._initial.get(node_id)
        if state is None:
            return False
        writes = self._writes.get(node_id)
        if not writes:
            return span.query.matches(state)
        state = dict(state)
        index = 0
        while index < len(writes) and writes[index][0] <= since:
            state[writes[index][1]] = writes[index][2]
            index += 1
        if span.query.matches(state):
            return True
        while index < len(writes) and writes[index][0] <= until:
            state[writes[index][1]] = writes[index][2]
            index += 1
            if span.query.matches(state):
                return True
        return False

    def violation(self, span: Span) -> Tuple[str, str]:
        """``(kind, reason)`` for a wrong answer — kind ``"unsound"`` or
        ``"incomplete"`` — or ``("", "")`` when the answer is right."""
        response = span.response
        since = span.send_at - response.staleness_ms / 1000.0
        returned = response.node_ids
        if len(set(returned)) != len(returned):
            return "unsound", "duplicate node in answer"
        for node_id in returned:
            if not self._held_match(span, node_id, since, span.response_at):
                return "unsound", (
                    f"{node_id} never satisfied the query in the answer's window"
                )
        limit = span.query.limit
        if limit is not None and len(returned) > limit:
            return "unsound", f"{len(returned)} matches exceed limit {limit}"
        if self._static and not response.timed_out and (
            limit is None or len(returned) < limit
        ):
            truth = {
                node_id
                for node_id, state in self._initial.items()
                if span.query.matches(state)
            }
            if set(returned) != truth:
                return "incomplete", (
                    f"{len(returned)} of {len(truth)} ground-truth matches, "
                    f"limit {limit}"
                )
        return "", ""
