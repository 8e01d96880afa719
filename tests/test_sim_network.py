"""Unit tests for the network: delivery, sizes, accounting, failures."""

import enum
import json
from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.errors import NetworkError
from repro.sim import Network, Topology, approx_size
from repro.sim.network import MESSAGE_OVERHEAD_BYTES, SizedPayload
from tests.oracles.approx_size import approx_size as chain_walk_size


class Sink:
    def __init__(self, address, region):
        self.address = address
        self.region = region
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def wire(network, address, region=None):
    region = region or network.topology.regions[0].name
    endpoint = Sink(address, region)
    network.register(endpoint)
    return endpoint


class _Rank(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Label(str):
    pass


class _Bag(dict):
    pass


class _Opaque:
    """Sized by its ``repr``: no branch of the walk knows this type."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"<opaque {self.tag}>"


# Wire payloads in this system are ASCII identifiers and numbers; exotic
# unicode would be escaped by JSON and balloon past the estimate.
_ascii = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=20
)

# Everything the exact-type dispatch must hand to the isinstance chain, next
# to everything it sizes itself: None, bool, IntEnum, str and dict subclasses,
# bytes, sets, tuples, non-str keys, nested SizedPayload and an object only
# ``repr`` can size.
_hashable = (
    st.none() | st.booleans() | st.integers(-10**9, 10**9)
    | st.floats(allow_nan=False) | _ascii | st.sampled_from(list(_Rank))
    | _ascii.map(_Label) | st.binary(max_size=12)
    | st.builds(_Opaque, st.integers(0, 999))
)
_any_payload = st.recursive(
    _hashable,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.sets(_hashable, max_size=4)
    | st.frozensets(_hashable, max_size=4)
    | st.dictionaries(
        _hashable | st.tuples(_ascii, st.integers(0, 9)), children, max_size=4
    )
    | st.dictionaries(_ascii, children, max_size=4).map(OrderedDict)
    | st.dictionaries(_ascii, children, max_size=4).map(_Bag)
    | st.builds(SizedPayload, children, st.integers(0, 5000)),
    max_leaves=25,
)


class TestApproxSize:
    @given(_any_payload)
    def test_same_integer_as_the_chain_walk(self, payload):
        """Exact-type dispatch and inline leaves change the cost of the walk,
        never its result."""
        assert approx_size(payload) == chain_walk_size(payload)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers(-1e9, 1e9)
            | st.floats(allow_nan=False, allow_infinity=False, width=32)
            | _ascii,
            lambda children: st.lists(children, max_size=5)
            | st.dictionaries(
                st.text(
                    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                    max_size=8,
                ),
                children,
                max_size=5,
            ),
            max_leaves=20,
        )
    )
    def test_tracks_json_size(self, payload):
        """The estimate stays within a constant plus 2x of the real size."""
        estimate = approx_size(payload)
        actual = len(json.dumps(payload))
        assert estimate <= 4 * actual + 16
        assert actual <= 4 * estimate + 16

    def test_dict_estimate_close(self):
        payload = {"node": "node-00042", "ram_mb": 4096, "region": "us-east-2"}
        actual = len(json.dumps(payload))
        assert abs(approx_size(payload) - actual) < 20

    def test_deep_nesting_does_not_recurse(self):
        """The iterative walk handles nesting far past the recursion limit."""
        payload = {"v": 0}
        for _ in range(5000):
            payload = {"child": payload, "tag": "x"}
        assert approx_size(payload) > 5000  # no RecursionError

    def test_sized_payload_nested_inside_container(self):
        inner = SizedPayload({"big": "blob"}, 1000)
        assert approx_size([inner, inner]) == 2 + 2 + 1000 + 1000


class TestDelivery:
    def test_message_delivered_after_latency(self, sim, network):
        a = wire(network, "a", "us-east-2")
        b = wire(network, "b", "us-west-2")
        network.send("a", "b", "hello", {"x": 1})
        base = network.topology.latency("us-east-2", "us-west-2")
        sim.run_until(base * 0.99)
        assert b.received == []
        sim.run_until(base * (1 + network.jitter_fraction) + 0.001)
        assert len(b.received) == 1
        assert b.received[0].kind == "hello"

    def test_intra_region_faster_than_cross(self, sim, network):
        wire(network, "a", "us-east-2")
        local = wire(network, "b", "us-east-2")
        remote = wire(network, "c", "us-west-2")
        network.send("a", "b", "m", {})
        network.send("a", "c", "m", {})
        sim.run_until(0.005)
        assert len(local.received) == 1
        assert len(remote.received) == 0

    def test_send_from_unregistered_raises(self, network):
        wire(network, "b")
        with pytest.raises(NetworkError):
            network.send("ghost", "b", "m", {})

    def test_send_to_unknown_destination_dropped(self, sim, network):
        wire(network, "a")
        network.send("a", "ghost", "m", {})
        sim.run_until(1.0)
        assert network.metrics.counter("messages_dropped").value == 1

    def test_duplicate_registration_rejected(self, network):
        wire(network, "a")
        with pytest.raises(NetworkError):
            wire(network, "a")

    def test_unknown_region_rejected(self, network):
        with pytest.raises(NetworkError):
            network.register(Sink("x", "atlantis"))

    def test_delivery_tap_sees_messages(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        seen = []
        network.add_delivery_tap(seen.append)
        network.send("a", "b", "m", {"v": 1})
        sim.run_until(1.0)
        assert len(seen) == 1


class TestSizedPayload:
    def test_handler_sees_unwrapped_payload(self, sim, network):
        wire(network, "a")
        b = wire(network, "b")
        network.send("a", "b", "m", SizedPayload({"x": 1}))
        sim.run_until(1.0)
        assert b.received[0].payload == {"x": 1}

    def test_memoized_size_is_used(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.send("a", "b", "m", SizedPayload({"ignored": True}, size=500))
        assert network.meter("a").bytes_sent == 500 + MESSAGE_OVERHEAD_BYTES

    def test_default_size_matches_approx_size(self):
        payload = {"node": "node-00042", "ram_mb": 4096}
        assert SizedPayload(payload).size == approx_size(payload)
        assert approx_size(SizedPayload(payload, size=7)) == 7


class TestDropAccounting:
    """Every lost message increments ``messages_dropped`` exactly once."""

    def test_unknown_destination_counted_once_at_send(self, sim, network):
        wire(network, "a")
        network.send("a", "ghost", "m", {})
        # Dropped immediately: no delivery event exists to double-count it.
        assert network.metrics.counter("messages_dropped").value == 1
        assert (
            network.metrics.counter("messages_dropped.unknown_destination").value == 1
        )
        sim.run_until(5.0)
        assert network.metrics.counter("messages_dropped").value == 1

    def test_blocked_counted_once_with_reason(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.block("a", "b")
        network.send("a", "b", "m", {})
        sim.run_until(1.0)
        assert network.metrics.counter("messages_dropped").value == 1
        assert network.metrics.counter("messages_dropped.blocked").value == 1

    def test_dead_endpoint_counted_once_with_reason(self, sim, network):
        wire(network, "a", "us-east-2")
        wire(network, "b", "us-west-2")
        network.send("a", "b", "m", {})
        network.unregister("b")
        sim.run_until(5.0)
        assert network.metrics.counter("messages_dropped").value == 1
        assert network.metrics.counter("messages_dropped.dead_endpoint").value == 1

    def test_dead_endpoint_keeps_its_region_latency(self, sim, network):
        # Regression: a message to a just-unregistered endpoint used to be
        # delayed by the *sender's* intra-region latency regardless of where
        # the dead node lived.
        wire(network, "a", "us-east-2")
        wire(network, "b", "us-west-2")
        network.unregister("b")
        network.send("a", "b", "m", {})
        intra = network.topology.latency("us-east-2", "us-east-2")
        cross = network.topology.latency("us-east-2", "us-west-2")
        assert cross > intra * 10
        sim.run_until(intra * (1 + network.jitter_fraction) + 0.001)
        # Still in flight across the continent: not yet dropped.
        assert network.metrics.counter("messages_dropped").value == 0
        sim.run_until(cross * (1 + network.jitter_fraction) + 0.001)
        assert network.metrics.counter("messages_dropped").value == 1


class TestAccounting:
    def test_meters_track_bytes_both_ends(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.send("a", "b", "m", {}, size=100)
        sim.run_until(1.0)
        expected = 100 + MESSAGE_OVERHEAD_BYTES
        assert network.meter("a").bytes_sent == expected
        assert network.meter("b").bytes_received == expected

    def test_rate_over_window(self, sim, network):
        """A window is the difference of the totals read at its ends."""
        wire(network, "a")
        wire(network, "b")
        for i in range(10):
            sim.schedule(i * 1.0, network.send, "a", "b", "m", {}, )
        meter = network.meter("b")
        sim.run_until(10.0)
        at_ten = meter.total_bytes
        sim.run_until(20.0)
        assert at_ten > 0
        assert meter.total_bytes == at_ten  # the last send landed by 10 s

    def test_meter_reset(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.send("a", "b", "m", {})
        sim.run_until(1.0)
        network.meter("a").reset()
        assert network.meter("a").bytes_sent == 0


class TestCounterCorrectness:
    """The cached bound-counter fast path must count exactly like the
    registry lookups it replaced, and resolve to the same objects."""

    def test_cached_counters_are_registry_counters(self, network):
        assert network._messages_sent is network.metrics.counter("messages_sent")
        assert network._bytes_sent is network.metrics.counter("bytes_sent")
        assert network._messages_delivered is network.metrics.counter(
            "messages_delivered"
        )

    def test_every_send_and_delivery_counted(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        for _ in range(25):
            network.send("a", "b", "m", {}, size=40)
        sim.run_until(5.0)
        metrics = network.metrics
        assert metrics.counter("messages_sent").value == 25
        assert metrics.counter("messages_delivered").value == 25
        assert metrics.counter("bytes_sent").value == 25 * (
            40 + MESSAGE_OVERHEAD_BYTES
        )
        assert metrics.get_counter("messages_dropped") is None  # lazy: no drops

    def test_drop_reason_counters_cached_and_correct(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.block("a", "b")
        for _ in range(3):
            network.send("a", "b", "m", {})
        network.send("a", "ghost", "m", {})
        sim.run_until(1.0)
        metrics = network.metrics
        assert metrics.counter("messages_dropped").value == 4
        assert metrics.counter("messages_dropped.blocked").value == 3
        assert metrics.counter("messages_dropped.unknown_destination").value == 1
        # The cache holds the very objects the registry returns.
        assert (
            network._drop_reason_counters["blocked"]
            is metrics.counter("messages_dropped.blocked")
        )


class TestWireSizeTable:
    def test_fixed_size_entry_used_when_no_explicit_size(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.register_message_size("fixed.kind", 500)
        network.send("a", "b", "fixed.kind", {"anything": "at all"})
        assert network.meter("a").bytes_sent == 500 + MESSAGE_OVERHEAD_BYTES

    def test_callable_entry_receives_payload(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.register_message_size("var.kind", lambda p: p["n"] * 10)
        network.send("a", "b", "var.kind", {"n": 7})
        assert network.meter("a").bytes_sent == 70 + MESSAGE_OVERHEAD_BYTES

    def test_explicit_size_still_wins(self, sim, network):
        wire(network, "a")
        wire(network, "b")
        network.register_message_size("fixed.kind", 500)
        network.send("a", "b", "fixed.kind", {}, size=5)
        assert network.meter("a").bytes_sent == 5 + MESSAGE_OVERHEAD_BYTES

    def test_rpc_envelope_sizes_match_generic_walk(self):
        """The precomputed RPC sizes must be byte-identical to approx_size,
        or byte accounting would change under the optimization."""
        from repro.sim.rpc import _request_size, _response_size

        for params in ({}, {"q": "cpu>2", "limit": 10}, [1, 2, 3], None, "s"):
            payload = {"id": "addr0#17", "method": "focus.query", "params": params}
            assert _request_size(payload) == approx_size(payload)
            payload = {"id": "addr0#17", "method": "focus.query", "result": params}
            assert _response_size(payload) == approx_size(payload)


class TestFailureInjection:
    def test_blocked_pair_drops(self, sim, network):
        wire(network, "a")
        b = wire(network, "b")
        network.block("a", "b")
        network.send("a", "b", "m", {})
        sim.run_until(1.0)
        assert b.received == []
        network.unblock("a", "b")
        network.send("a", "b", "m", {})
        sim.run_until(2.0)
        assert len(b.received) == 1

    def test_region_partition(self, sim, network):
        wire(network, "a", "us-east-2")
        b = wire(network, "b", "us-west-2")
        network.partition_regions("us-east-2", "us-west-2")
        network.send("a", "b", "m", {})
        sim.run_until(1.0)
        assert b.received == []
        network.heal_regions("us-east-2", "us-west-2")
        network.send("a", "b", "m", {})
        sim.run_until(2.0)
        assert len(b.received) == 1

    def test_loss_rate_drops_fraction(self, sim):
        network = Network(sim, Topology(), loss_rate=0.5)
        wire(network, "a")
        b = wire(network, "b")
        for _ in range(200):
            network.send("a", "b", "m", {})
        sim.run_until(1.0)
        assert 40 < len(b.received) < 160

    def test_heal_all(self, sim, network):
        wire(network, "a")
        b = wire(network, "b")
        network.block("a", "b")
        network.partition_regions("us-east-2", "us-west-2")
        network.heal_all()
        network.send("a", "b", "m", {})
        sim.run_until(1.0)
        assert len(b.received) == 1
