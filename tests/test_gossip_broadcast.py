"""Unit tests for the piggyback broadcast queue."""

import heapq
import pickle

from hypothesis import given, settings, strategies as st

import repro.gossip.broadcast
from repro.gossip.broadcast import BroadcastQueue, SizedWire, retransmit_limit
from repro.sim.network import approx_size


class TestRetransmitLimit:
    def test_grows_logarithmically(self):
        assert retransmit_limit(4, 1) == 4
        assert retransmit_limit(4, 3) == 8
        assert retransmit_limit(4, 100) < retransmit_limit(4, 10000)

    def test_minimum_group(self):
        assert retransmit_limit(4, 0) == 4


class TestQueue:
    def test_take_returns_payloads(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": 1}, group_size=4)
        assert q.take(5) == [{"v": 1}]

    def test_exhausted_broadcast_removed(self):
        q = BroadcastQueue(retransmit_mult=1)
        q.enqueue(("m", "a"), {"v": 1}, group_size=1, transmits=2)
        assert q.take(5)
        assert q.take(5)
        assert q.take(5) == []
        assert q.empty

    def test_same_key_replaces(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": 1}, group_size=4)
        q.enqueue(("m", "a"), {"v": 2}, group_size=4)
        assert len(q) == 1
        assert q.take(5) == [{"v": 2}]

    def test_least_transmitted_first(self):
        q = BroadcastQueue()
        q.enqueue(("m", "old"), {"v": "old"}, group_size=4)
        q.take(1)  # old has been transmitted once
        q.enqueue(("m", "new"), {"v": "new"}, group_size=4)
        batch = q.take(1)
        assert batch == [{"v": "new"}]

    def test_take_respects_max_items(self):
        q = BroadcastQueue()
        for i in range(10):
            q.enqueue(("m", str(i)), {"v": i}, group_size=4)
        assert len(q.take(3)) == 3

    def test_invalidate(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": 1}, group_size=4)
        q.invalidate(("m", "a"))
        assert q.empty

    def test_take_with_size_sums_payloads(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": 1}, group_size=4, size=100)
        q.enqueue(("m", "b"), {"v": 2}, group_size=4, size=50)
        payloads, size = q.take_with_size(5)
        assert len(payloads) == 2
        assert size == 150

    def test_take_zero(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": 1}, group_size=4)
        assert q.take(0) == []

    def test_clear(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {}, group_size=4)
        q.clear()
        assert q.empty

    def test_peek_keys(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {}, group_size=4)
        assert q.peek_keys() == [("m", "a")]


class TestSelection:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=40),
        st.lists(st.integers(1, 9), min_size=1, max_size=12),
    )
    def test_take_selects_what_nlargest_would(self, budgets, takes):
        """Least-transmitted first, ties to the broadcast queued first: the
        order ``heapq.nlargest`` documents, over a queue full of ties that is
        drained take by take. (A queue that fits whole goes out in queue
        order; no selection happens.)"""
        q = BroadcastQueue()
        for index, budget in enumerate(budgets):
            q.enqueue(("m", str(index)), {"v": index}, group_size=4,
                      transmits=budget, size=index)
        for max_items in takes:
            expected = list(q._queue.values())
            if len(expected) > max_items:
                expected = heapq.nlargest(
                    max_items, expected, key=lambda b: b.transmits_left
                )
            payloads, size = q.take_with_size(max_items)
            assert payloads == [b.payload for b in expected]
            assert size == sum(b.size for b in expected)


def copy_then_walk_take(queue, max_items):
    """``take_with_size`` as it was before its take-all path walked the
    queue in place: the oracle for that path. It copies the broadcasts into
    a list first and deletes each spent one as it goes."""
    if not queue._queue or max_items <= 0:
        return [], 0
    if len(queue._queue) <= max_items:
        selected = list(queue._queue.values())
    else:
        selected = sorted(
            queue._queue.values(), key=lambda b: b.transmits_left, reverse=True
        )[:max_items]
    payloads = []
    total_size = 0
    for broadcast in selected:
        payloads.append(broadcast.payload)
        total_size += broadcast.size
        broadcast.transmits_left -= 1
        if broadcast.transmits_left <= 0:
            del queue._queue[broadcast.key]
    return payloads, total_size


class TestTakeAll:
    """Every take, whether it fits the whole queue or selects from it, leaves
    what the copy-then-walk take left: the same payloads in the same order,
    the same summed size, the same broadcasts retired, and the survivors in
    the same dict order with the same budgets."""

    keys = st.integers(0, 5)
    steps = st.lists(
        st.one_of(
            # A re-enqueue of a key already queued replaces it in place.
            st.tuples(st.just("enqueue"), keys, st.integers(1, 4)),
            st.tuples(st.just("invalidate"), keys),
            st.tuples(st.just("take"), st.integers(0, 8)),
        ),
        max_size=60,
    )

    @staticmethod
    def state(queue):
        return [(key, b.payload, b.transmits_left, b.size)
                for key, b in queue._queue.items()]

    @given(steps)
    @settings(max_examples=300)
    def test_matches_the_copy_then_walk_take(self, steps):
        ours, theirs = BroadcastQueue(), BroadcastQueue()
        for number, step in enumerate(steps):
            if step[0] == "enqueue":
                _, key, budget = step
                for queue in (ours, theirs):
                    queue.enqueue(("m", str(key)), {"v": number}, group_size=4,
                                  transmits=budget, size=10 + key)
            elif step[0] == "invalidate":
                for queue in (ours, theirs):
                    queue.invalidate(("m", str(step[1])))
            else:
                assert ours.take_with_size(step[1]) == copy_then_walk_take(
                    theirs, step[1]
                )
            assert self.state(ours) == self.state(theirs)


class TestSizedWire:
    WIRE = {"t": "q", "id": "n0:q1", "qn": "fq", "qp": {"terms": [1.5, None]},
            "o": "n0", "ra": "n0/serf"}

    def test_measured_once_on_construction(self):
        wire = SizedWire(self.WIRE)
        assert wire == self.WIRE
        assert wire.size == approx_size(self.WIRE) == approx_size(wire)
        assert wire.id == "n0:q1"

    def test_enqueue_charges_the_carried_size_without_a_walk(self, monkeypatch):
        wire = SizedWire(self.WIRE)

        def no_walk(payload):
            raise AssertionError("a sized wire was measured again")

        monkeypatch.setattr(repro.gossip.broadcast, "approx_size", no_walk)
        q = BroadcastQueue()
        q.enqueue(("query", "n0:q1"), wire, group_size=8)
        payloads, size = q.take_with_size(1)
        assert payloads[0] is wire
        assert size == wire.size

    def test_plain_dict_wire_is_measured_where_it_is_queued(self):
        q = BroadcastQueue()
        q.enqueue(("query", "n0:q1"), dict(self.WIRE), group_size=8)
        assert q.take_with_size(1) == ([self.WIRE], approx_size(self.WIRE))

    def test_size_survives_pickle(self):
        """The parallel kernel ships payloads between workers through pipes;
        the far side dedupes on ``id`` and charges ``size`` as this side does."""
        wire = SizedWire(self.WIRE)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            shipped = pickle.loads(pickle.dumps([wire], protocol))[0]
            assert type(shipped) is SizedWire
            assert shipped == self.WIRE
            assert shipped.size == wire.size
            assert shipped.id == wire.id == "n0:q1"
