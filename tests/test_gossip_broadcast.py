"""Unit tests for the piggyback broadcast queue."""

import heapq
import pickle

from hypothesis import given, settings, strategies as st

import repro.gossip.broadcast
from repro.gossip.broadcast import BroadcastQueue, SizedWire, retransmit_limit
from repro.sim.network import approx_size


class TestRetransmitLimit:
    def test_memberlist_cases(self):
        """memberlist's own ``retransmitLimit`` cases (``util_test.go``),
        and the limits at the group sizes the paper runs. (memberlist gives
        0 for an empty group; here a group counts as at least 1 member.)"""
        assert retransmit_limit(3, 1) == 3
        assert retransmit_limit(3, 99) == 6
        assert retransmit_limit(4, 400) == 12
        assert retransmit_limit(4, 1600) == 16

    def test_minimum_group(self):
        assert retransmit_limit(4, 0) == 4

    def test_digit_count_is_the_ceiling_of_log10(self):
        """The decimal digit count of ``n`` is the smallest ``d`` with
        ``10**d >= n + 1``, i.e. ``ceil(log10(n + 1))`` without a float,
        for every group size up to 10^5 (and the clamped ones below 1)."""
        for n in range(-2, 10**5):
            d = 1
            while 10**d < max(n, 1) + 1:
                d += 1
            assert retransmit_limit(4, n) == 4 * d, n


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


class TestMemberlistOrder:
    """memberlist's ``limitedBroadcast.Less``: fewer transmissions first,
    then the larger message, then the higher ``id`` (the newer broadcast).
    The size tier is left out here: packets are capped by item count."""

    def test_newest_first_among_equal_transmits(self):
        q = BroadcastQueue()
        for name in "abcd":
            q.enqueue(("m", name), {"v": name}, group_size=4)
        assert q.take(2) == [{"v": "d"}, {"v": "c"}]
        assert q.take(2) == [{"v": "b"}, {"v": "a"}]
        # All four have gone once; a fresh one outranks them, and behind it
        # the newest of the tier goes first again.
        q.enqueue(("m", "e"), {"v": "e"}, group_size=4)
        assert q.take(3) == [{"v": "e"}, {"v": "d"}, {"v": "c"}]

    def test_a_round_to_several_peers_keeps_the_order(self):
        q = BroadcastQueue()
        for name in "abcde":
            q.enqueue(("m", name), {"v": name}, group_size=4)
        runs = q.take_batches(2, 3)
        assert [[p["v"] for p in payloads] for payloads, _, _ in runs] == [
            ["e", "d"], ["c", "b"], ["a", "e"],
        ]

    def test_the_larger_message_does_not_go_first(self):
        q = BroadcastQueue()
        q.enqueue(("m", "big"), {"v": "big"}, group_size=4, size=1000)
        q.enqueue(("m", "small"), {"v": "small"}, group_size=4, size=10)
        assert q.take(1) == [{"v": "small"}]

    def test_a_replacement_keeps_the_age_of_what_it_replaces(self):
        q = BroadcastQueue()
        q.enqueue(("m", "a"), {"v": "a1"}, group_size=4)
        q.enqueue(("m", "b"), {"v": "b"}, group_size=4)
        q.enqueue(("m", "a"), {"v": "a2"}, group_size=4)
        assert q.take(1) == [{"v": "b"}]


class TestSelection:
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=40),
        st.lists(st.integers(1, 9), min_size=1, max_size=12),
    )
    def test_take_selects_what_nlargest_would(self, budgets, takes):
        """Least-transmitted first, ties to the broadcast queued last: the
        order ``heapq.nlargest`` gives by (budget, place in the queue), over
        a queue full of ties that is drained take by take. (A queue that
        fits whole goes out in queue order; no selection happens.)"""
        q = BroadcastQueue()
        for index, budget in enumerate(budgets):
            q.enqueue(("m", str(index)), {"v": index}, group_size=4,
                      transmits=budget, size=index)
        for max_items in takes:
            expected = list(q._queue.values())
            if len(expected) > max_items:
                expected = [b for _, b in heapq.nlargest(
                    max_items, enumerate(expected),
                    key=lambda placed: (placed[1].transmits_left, placed[0]),
                )]
            payloads, size = q.take_with_size(max_items)
            assert payloads == [b.payload for b in expected]
            assert size == sum(b.size for b in expected)


def copy_then_walk_take(queue, max_items):
    """``take_with_size`` as it was before its take-all path walked the
    queue in place: the oracle for that path. It copies the broadcasts into
    a list first and deletes each spent one as it goes. Its selection ranks
    by budget and then by place in the queue (dict order), not by the
    queue's own ``seq``."""
    if not queue._queue or max_items <= 0:
        return [], 0
    if len(queue._queue) <= max_items:
        selected = list(queue._queue.values())
    else:
        # Least-transmitted first, ties to the later place in the queue.
        placed = sorted(
            enumerate(queue._queue.values()),
            key=lambda placed: (placed[1].transmits_left, placed[0]),
            reverse=True,
        )
        selected = [b for _, b in placed[:max_items]]
    payloads = []
    total_size = 0
    for broadcast in selected:
        payloads.append(broadcast.payload)
        total_size += broadcast.size
        broadcast.transmits_left -= 1
        if broadcast.transmits_left <= 0:
            del queue._queue[broadcast.key]
    return payloads, total_size


class TestTakeAllOrder:
    def test_a_queue_that_fits_goes_out_in_queue_order(self):
        """When the whole queue fits, the take walks it in queue order,
        which is *not* what the least-transmitted-first sort would give once
        budgets differ: here the later broadcast has more left and the sort
        would put it first, moving every packet's bytes."""
        q = BroadcastQueue()
        q.enqueue(("m", "early"), {"v": "early"}, group_size=4, transmits=1)
        q.enqueue(("m", "late"), {"v": "late"}, group_size=4, transmits=3)
        by_budget = sorted(
            q._queue.values(), key=lambda b: b.transmits_left, reverse=True
        )
        assert [b.payload["v"] for b in by_budget] == ["late", "early"]
        assert q.take(2) == [{"v": "early"}, {"v": "late"}]


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


class TestTakeBatches:
    """A gossip round's multi-peer take is exactly ``peers`` one-peer takes
    in turn, each the copy-then-walk take: the same batch per peer (same
    payloads in the same order, same summed size), stopping at the first
    peer the queue has nothing for, leaving the same budgets and the same
    queue order — after any history of enqueues, replacements and
    invalidations, on queues that fit one packet and queues that do not.
    Consecutive peers that get the same batch share one run."""

    keys = st.integers(0, 30)
    steps = st.lists(
        st.one_of(
            # A re-enqueue of a key already queued replaces it in place.
            st.tuples(st.just("enqueue"), keys, st.integers(1, 6)),
            st.tuples(st.just("invalidate"), keys),
            st.tuples(st.just("take"), st.integers(0, 8), st.integers(1, 6)),
        ),
        max_size=80,
    )

    @staticmethod
    def sequential(queue, max_items, peers):
        batches = []
        for _ in range(peers):
            payloads, size = copy_then_walk_take(queue, max_items)
            if not payloads:
                break
            batches.append((payloads, size))
        return batches

    @given(steps)
    @settings(max_examples=400)
    def test_is_one_take_per_peer_in_turn(self, steps):
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
                _, max_items, peers = step
                runs = ours.take_batches(max_items, peers)
                assert all(count >= 1 for _, _, count in runs)
                for before, after in zip(runs, runs[1:]):
                    assert list(map(id, before[0])) != list(map(id, after[0]))
                per_peer = [(payloads, size) for payloads, size, count in runs
                            for _ in range(count)]
                assert per_peer == self.sequential(theirs, max_items, peers)
            assert TestTakeAll.state(ours) == TestTakeAll.state(theirs)

    def test_a_deep_queue_is_sorted_once(self, monkeypatch):
        """Past the first take only the candidates are re-sorted: the
        first ``max_items * peers`` of the one full sort."""
        q = BroadcastQueue()
        for index in range(200):
            q.enqueue(("m", str(index)), {"v": index}, group_size=400,
                      transmits=1 + index % 5, size=1)
        lengths = []
        real_sorted = sorted

        def counting(iterable, **kwargs):
            items = real_sorted(iterable, **kwargs)
            lengths.append(len(items))
            return items

        monkeypatch.setattr(repro.gossip.broadcast, "sorted", counting, raising=False)
        runs = q.take_batches(8, 4)
        assert lengths == [200]
        assert sum(count for _, _, count in runs) == 4


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
        """A wire is plain data: a pickled copy dedupes on the same ``id``
        and is charged the same ``size`` as the original."""
        wire = SizedWire(self.WIRE)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            shipped = pickle.loads(pickle.dumps([wire], protocol))[0]
            assert type(shipped) is SizedWire
            assert shipped == self.WIRE
            assert shipped.size == wire.size
            assert shipped.id == wire.id == "n0:q1"
