"""Which functions does a focusbench steady phase spend its time in?

    make hotspots WORKLOAD=group_mesh
    PYTHONPATH=src python -m benchmarks.hotspots --workload W [--seed 42]
        [--scale full|smoke] [--top 25] [--sample [--reps 4]]

One level below focusbench's 14-layer ledger: build, warm up and generate as
``focusbench/rep.py`` does, ``cProfile`` the steady phase, print the top
functions by self time with calls and calls/event, then the events by kind
(messages delivered per ``kind``, timer-wheel firings, posted and deadline
callbacks by name, gossip ticks — what the loop was asked to run, whether or
not it found anything to do), then the network's per-message path (send calls
by entry, sentinel flushes and retargets, the in-flight heap's high-water
mark, the Python calls between the kernel and a message's handler and inside
a gossip tick, RPC deadlines armed, cancelled and fired), then who measured
and decoded wire payloads (every ``approx_size`` walk, ``Query.from_json``
decode, ``json.dumps`` and sized-dict construction, by calling function: a
hop that re-measures or re-decodes what it was handed is one line), then how
much of the gossip traffic was re-delivery and what the gossip round cost
(custom wires delivered and first-time, gossip packets ``_on_gossip`` turned
away whole, ``_apply_updates`` entries by caller, member wires delivered,
turned away by identity, examined and applied, ``gossip_targets`` and
``_sample_exact`` entries by caller — wires counted by a delivery tap, which
runs before the handler), and how often a member that had left refuted its own
leave (must be 0), and last what the cyclic collector did (collections and
objects collected per generation, from ``gc.get_stats()`` around the phase,
what a ``gc.collect()`` after it finds, and that garbage per RPC call, which
must stay below 1: per-request state is freed by reference counting; then,
from a second, unprofiled steady phase on a fresh build, collections and
pauses per generation and the types of the objects promoted to generation
2, found by diffing it at each gen-1 collection), and from a third, on
another fresh build, how deep the broadcast queues were when gossip ticks
ran (max, p99, mean), how many transmissions — wires sent, one per
destination, over gossip and probe packets — each queued broadcast got, and
how the Serf query collectors ended: closed at the query's limit, or short
at the timeout (a member alive in the originator's view never answered), by
group size (the alive view when the query started), and how many directed
pulls the router answered in their first wave of group pulls and how many
needed a later one, with the sim latency (p50, max) of the latter, and from
a fourth, the serving plane's bytes by direction and message (an RPC's method,
request or reply, else the message kind): count, average and total bytes and
share, summing to the plane's meters, so the Fig. 7a server bandwidth is
split by what carried it.
Profiled seconds are ~3x untraced ones, so read counts and proportions here
and host time in focusbench.

With ``--sample`` the steady phase runs unprofiled under a ``SIGPROF``
sampler instead, ``--reps`` times on fresh builds, and the report is the
sampled self and cumulative shares by function and by line: real time, C
calls included in the line that made them, which ``cProfile`` understates.

No gate and no committed output; the exit status is non-zero when a check
the report makes fails (events that do not add up, a row the tool's tap,
wrappers or named methods should have fed reading 0, a self-refutation by a
member that left, one or more objects of cyclic garbage per RPC call, server
bytes by message that do not sum to the meters), which
is what ``make
hotspots-smoke`` runs for in CI: the tool patches and names private protocol
methods, and a rename must fail there instead of zeroing a row.
"""

import argparse
import cProfile
import gc
import json
import signal
import sys
import time
from collections import Counter, defaultdict

from benchmarks.focusbench.workloads import WORKLOADS
from repro.core.query import Query
from repro.core.router import QueryRouter
from repro.gossip.agent import QueryCollector, SerfAgent
from repro.gossip.broadcast import BroadcastQueue, SizedWire
from repro.gossip.membership import CODE_LEFT, MembershipTable, _sample_exact
from repro.gossip.swim import ACK, GOSSIP, PING, SwimAgent
from repro.sim.events import Deadline, EventQueue
from repro.sim.loop import Simulator, TimerWheel
from repro.sim.network import Network, SizedDict, approx_size
from repro.sim.process import Process
from repro.sim.rpc import REQUEST_KIND, RESPONSE_KIND, RpcMixin

#: CPU seconds between two ``--sample`` samples asked of ``setitimer``.
SAMPLE_INTERVAL_S = 0.001


#: Message kinds whose ``"u"`` list of piggybacked wires the receiver hands
#: to its update loop (a gossip packet of seen custom wires only to
#: ``SwimAgent._on_gossip``, which turns it away).
PIGGYBACK_KINDS = (GOSSIP, PING, ACK)

#: Rows the delivery tap and the push-pull wrapper feed.
WIRE_ROWS = ("custom wires delivered", "custom wires first-time",
             "member wires delivered")


def count_wires(wires, seen, tally: Counter) -> None:
    """Count ``wires`` as the update loop tells them apart: custom wires (a
    ``SizedWire``, or a plain dict whose ``"t"`` is not ``"m"``) delivered
    and first-time against ``seen``, and member wires (every other wire,
    interned or plain, with or without a ``"t"``) delivered. Makes no call,
    so nothing of it reaches the profile."""
    for wire in wires:
        if type(wire) is SizedWire or ("t" in wire and wire["t"] != "m"):
            tally["custom wires delivered"] += 1
            tally["custom wires first-time"] += wire["id"] not in seen
        else:
            tally["member wires delivered"] += 1


def delivery_tap(network, kinds, tally: Counter, peak: list):
    """A network delivery tap counting messages by kind, the in-flight
    heap's high-water mark (into ``peak[0]``) and the wires piggybacked on
    SWIM messages (:func:`count_wires`). Taps run before the handler, so the
    receiver's seen set is the one its handler will test, and a gossip
    packet the handler turns away whole is counted like any other. Gossip
    packets with a non-empty ``"u"`` list that reach a running receiver are
    counted too: each either enters ``_apply_updates`` once or is rejected
    whole. The tap makes no call: its frame is left out of the totals."""
    heap = network._in_flight.heap
    bindings = network._bindings

    def count_delivery(message) -> None:
        kind = message.kind
        kinds[kind] += 1
        while heap[peak[0]:]:  # a slice, unlike len(), is not a profiled call
            peak[0] += 1
        if kind in PIGGYBACK_KINDS and "u" in message.payload:
            receiver = bindings[message.dst][0]
            if not receiver.paused:  # a paused receiver drops it unhandled
                updates = message.payload["u"]
                count_wires(updates, receiver._seen, tally)
                if kind == GOSSIP and updates:
                    tally["gossip packets with updates handled"] += 1

    return count_delivery


def count_merged_wires(tally: Counter) -> None:
    """Wrap the push-pull prefilter to count the member wires it passes on
    to the update loop (:func:`count_wires`), the one way wires reach the
    loop without a delivery tap seeing them in a ``"u"`` list."""
    inner = MembershipTable.filter_superseding

    def counting(self, updates):
        kept = inner(self, updates)
        count_wires(kept, (), tally)
        return kept

    MembershipTable.filter_superseding = counting


def count_refutations_while_left(tally: Counter) -> None:
    """Wrap the self-update handler to count refutations (an incarnation
    bump) by an agent whose own record is ``left``: a member that has left
    must never re-announce itself alive, so the count must be 0. Reads the
    table's arrays directly, so the wrapper makes no profiled call."""
    inner = SwimAgent._handle_update_about_self

    def counting(self, update):
        members = self.members
        own = members._self_slot
        left = own >= 0 and members._state[own] == CODE_LEFT
        before = self.incarnation
        inner(self, update)
        if left and self.incarnation != before:
            tally["self-refutations while LEFT (must be 0)"] += 1

    SwimAgent._handle_update_about_self = counting


#: Network drop reasons decided when the message arrives: each such drop was
#: an event, like a delivery.
ARRIVAL_DROPS = ("dead_endpoint", "blocked_in_flight", "partitioned_in_flight")


def arrival_drops(network) -> int:
    counters = (network.metrics.get_counter(f"messages_dropped.{reason}")
                for reason in ARRIVAL_DROPS)
    return sum(int(counter.value) for counter in counters if counter is not None)


def code_of(function):
    return function if hasattr(function, "co_name") else function.__code__


def callees(stats, function, *helpers: str) -> Counter:
    """name -> times ``function`` (a function or code object) called it,
    ``helpers`` (names) left out."""
    code = code_of(function)
    found = Counter()
    for entry in stats:
        if entry.code is code:
            for edge in entry.calls or ():
                found[bare_name(edge.code)] += edge.callcount
    for helper in helpers:
        found.pop(helper, None)
    return found


def events_by_kind(stats, events: int, kinds: Counter, dropped: int) -> int:
    """Print the steady phase's events by what the loop ran.

    The loop's callees in the profile are the callbacks it popped. Behind one
    popped delivery sentinel further messages are flushed, each an event of
    its own, so arrivals are counted by a network tap (``kinds``) and the
    drop counters (``dropped``) instead; and a deadline sentinel that only
    swept cancelled entries is no event. The last row checks the sum; the
    difference is returned for :func:`main` to check.
    """
    popped = callees(stats, Simulator.run_until, EventQueue.pop_before.__name__,
                     Network._fire_deliveries.__name__)
    wheel = popped.pop(TimerWheel._fire_class.__name__, 0)
    posted = popped.pop(Process._post_fire.__name__, 0)
    ticks = popped.pop(SwimAgent._gossip_tick.__name__, 0)
    sentinel_firings = popped.pop(Simulator._fire_deadlines.__name__, 0)
    fired = callees(stats, Simulator._fire_deadlines, EventQueue.push_entry.__name__,
                    "<method 'popleft' of 'collections.deque' objects>")
    guarded = callees(stats, Process._post_fire, "<method 'append' of 'list' objects>")
    rows = [(0, "messages delivered", sum(kinds.values()))]
    rows += [(1, kind, count) for kind, count in kinds.most_common()]
    rows += [
        (0, "messages dropped on arrival", dropped),
        (0, "timer-wheel firings", wheel),
        (0, "gossip ticks (SwimAgent._gossip_tick)", ticks),
        (0, "posted callbacks (Process.post)", posted),
        (0, "deadline callbacks that fired", sum(fired.values())),
    ]
    # One level of call edges cannot tell which of the two a guarded callback
    # came through, so the names are listed once for both.
    by_name = guarded + Counter({callback: count for callback, count in fired.items()
                                 if callback != Process._post_fire.__name__})
    rows += [(1, callback, count) for callback, count in by_name.most_common()]
    rows += [(0, "other callbacks", sum(popped.values()))]
    rows += [(1, callback, count) for callback, count in popped.most_common()]
    unaccounted = sum(count for indent, _, count in rows if indent == 0) - events
    rows += [(0, "sum of the above - events (must be 0)", unaccounted),
             (0, "deadline sentinel firings that only swept (no event)",
              sentinel_firings - sum(fired.values()))]
    print(f"events by kind ({events} events):")
    for indent, what, count in rows:
        print(f"  {'  ' * indent}{what:<{54 - 2 * indent}}{count:>10}")
    return unaccounted


def callers(stats, function, key=None) -> Counter:
    """caller's label (or ``key(code)``) -> times it called ``function`` (a
    Python function or code object)."""
    code = code_of(function)
    key = key or label
    found = Counter()
    for entry in stats:
        for edge in entry.calls or ():
            if edge.code is code:
                found[key(entry.code)] += edge.callcount
    return found


def python_calls_below(stats, code) -> float:
    """Python function calls made under one call of ``code``, its callees'
    calls included: the call graph walked down, each callee charged its mean
    per call wherever it was called from (gprof's rule), and a recursive edge
    counted without its subtree."""
    entries = {entry.code: entry for entry in stats if not isinstance(entry.code, str)}
    if code not in entries:
        return 0.0
    below = {}

    def walk(code, stack):
        if code in below:
            return below[code]
        entry = entries[code]
        total = 0.0
        for edge in entry.calls or ():
            callee = edge.code
            if isinstance(callee, str) or callee not in entries:
                continue  # a builtin, or a frame of this tool's own
            total += edge.callcount
            if callee not in stack:
                total += edge.callcount * walk(callee, stack | {callee})
        below[code] = total / entry.callcount
        return below[code]

    return walk(code, frozenset((code,)))


def hops(stats, delivered: int) -> list:
    """Rows: Python calls from the delivery flush to a message's handler, per
    delivered message, and Python calls per gossip tick.

    Between the kernel and the protocol a message crosses the calls the flush
    makes for it (a meter method, ``handle_message`` or the handler) and the
    calls ``Process.handle_message`` makes (the handler, ``on_unhandled``);
    the flush's own bookkeeping is left out. A tick's count is the tick
    itself, any wrapper that called it, and everything below it
    (:func:`python_calls_below`).
    """
    flush = callees(stats, Network._fire_deliveries, *(
        f.__name__ for f in (Network._retarget_deliveries, Network._count_drop,
                             Network._in_flight_drop_reason, EventQueue.peek_key)))
    dispatch = callees(stats, Process.handle_message)
    python = {bare_name(e.code) for e in stats if not isinstance(e.code, str)}
    crossing = sum(n for name, n in (flush + dispatch).items() if name in python)
    tick = SwimAgent._gossip_tick.__code__
    ticks = sum(e.callcount for e in stats if e.code is tick)
    loop = {Simulator.run_until.__code__, Simulator._fire_deadlines.__code__}
    by_code = callers(stats, tick, key=lambda code: code)
    wrappers = sum(n for caller, n in by_code.items() if caller not in loop)
    per_tick = 0.0
    if ticks:
        per_tick = 1 + wrappers / ticks + python_calls_below(stats, tick)
    return [
        ("Python calls, flush to handler, per delivered message",
         crossing / delivered if delivered else 0.0),
        ("Python calls per gossip tick (wrappers and subtree)", per_tick),
    ]


def per_message_path(stats, sent: int, arrived: int, delivered: int,
                     high_water: int) -> None:
    """Print how messages entered the network and left the in-flight heap,
    what a delivery and a gossip tick cost in Python calls, and what the RPC
    layer's deadlines did.

    ``arrived`` is every message that left the heap (delivered or dropped on
    arrival); ``high_water`` the heap's largest size seen at a delivery.
    """
    rows = []
    for what, function in (("Network.send_fanout calls", Network.send_fanout),
                           ("Network.send calls", Network.send)):
        found = callers(stats, function)
        rows += [(0, what, sum(found.values()))]
        rows += [(1, caller, count) for caller, count in found.most_common()]
    flushes = sum(e.callcount for e in stats if e.code is Network._fire_deliveries.__code__)
    retargets = callers(stats, Network._retarget_deliveries)
    rows += [
        (0, "messages sent", sent),
        (0, "sentinel flushes (_fire_deliveries)", flushes),
        (0, "sentinel retargets (_retarget_deliveries)", sum(retargets.values())),
    ]
    rows += [(1, caller, count) for caller, count in retargets.most_common()]
    rows += [(0, "in-flight heap high-water mark (at a delivery)", high_water)]
    armed = callers(stats, Simulator.deadline)
    cancelled = callers(stats, Deadline.cancel)
    rows += [
        (0, "RPC deadlines armed",
         sum(n for caller, n in armed.items() if caller.startswith("sim/rpc.py"))),
        (0, "RPC deadlines cancelled",
         sum(n for caller, n in cancelled.items() if caller.startswith("sim/rpc.py"))),
        (0, "RPC deadlines fired",
         callees(stats, Simulator._fire_deadlines)[RpcMixin._rpc_timed_out.__name__]),
    ]
    print("per-message path:")
    for indent, what, count in rows:
        print(f"  {'  ' * indent}{what:<{54 - 2 * indent}}{count:>10}")
    per_flush = arrived / flushes if flushes else 0.0
    print(f"  {'messages off the heap per flush':<54}{per_flush:>10.2f}")
    for what, value in hops(stats, delivered):
        print(f"  {what:<54}{value:>10.2f}")


def wire_sizing(stats) -> None:
    """Print who measured, decoded and encoded wire payloads, by caller.

    The sized-dict row counts every ``SizedDict`` built, its subclasses
    (``SizedWire``, ``DecodedQueryJson``) included: their constructors show
    up among its callers.
    """
    print("wire sizing and decoding (entries by caller):")
    for what, function in (
        ("approx_size", approx_size),
        ("Query.from_json", Query.from_json.__func__),
        ("json.dumps", json.dumps),
        ("sized-dict constructions (SizedDict.__init__)", SizedDict.__init__),
    ):
        found = callers(stats, function)
        print(f"  {what:<54}{sum(found.values()):>10}")
        for caller, count in found.most_common():
            print(f"    {caller:<52}{count:>10}")


def collector(before, after, final: int, rpc_calls: int) -> float:
    """Print what the cyclic collector did in the steady phase, from two
    ``gc.get_stats()`` snapshots around it and the count a ``gc.collect()``
    right after it found; return the cyclic garbage per RPC call.

    Cyclic garbage is every object the phase's collections freed plus what
    the final collection found: what reference counting could not free.
    """
    print("collector (steady phase):")
    print(f"  {'generation':<38}{'collections':>12}{'collected':>12}")
    collected = 0
    for generation, (start, end) in enumerate(zip(before, after)):
        runs = end["collections"] - start["collections"]
        freed = end["collected"] - start["collected"]
        collected += freed
        print(f"  {f'gen{generation}':<38}{runs:>12}{freed:>12}")
    garbage = collected + final
    per_call = garbage / rpc_calls if rpc_calls else 0.0
    rows = [
        ("found by a gc.collect() after the phase", final),
        ("cyclic garbage (collected + found)", garbage),
        ("RPC calls (RpcMixin.call)", rpc_calls),
    ]
    for what, count in rows:
        print(f"  {what:<54}{count:>10}")
    print(f"  {'cyclic garbage per RPC call (must be < 1)':<54}{per_call:>10.2f}")
    return per_call


def census(workload, seed: int, sizes):
    """Run an unprofiled steady phase on a fresh build under a
    ``gc.callbacks`` hook; return per generation the collections and their
    pause seconds, and a Counter of type name -> objects promoted to
    generation 2.

    A gen-1 collection appends what survives of generations 0 and 1 to the
    tail of generation 2. As one starts, the hook notes the young objects'
    ids and types (keeping no reference, which would keep them alive); as it
    stops, it looks those ids up in the tail of generation 2. The objects
    found there are medium-lived: they outlived two collections and will
    cost a full pass to scan. The hook's own calls would land in a profile,
    hence the second phase; its work is left out of the pauses.
    """
    scenario, plan = prepare(workload, seed, sizes)
    collections = [0, 0, 0]
    pauses = [0.0, 0.0, 0.0]
    promoted = Counter()
    young = {}
    started = 0.0

    def on_collection(phase, info) -> None:
        nonlocal started
        generation = info["generation"]
        if phase == "start":
            if generation == 1:
                young.update((id(obj), type(obj)) for g in (0, 1)
                             for obj in gc.get_objects(g))
            started = time.perf_counter()
            return
        pauses[generation] += time.perf_counter() - started
        collections[generation] += 1
        if generation == 1:
            old = gc.get_objects(2)
            promoted.update(type(obj).__qualname__
                            for obj in old[len(old) - len(young):]
                            if young.get(id(obj)) is type(obj))
            young.clear()

    gc.collect()
    gc.callbacks.append(on_collection)
    try:
        scenario.sim.run_until(plan.end_time)
    finally:
        gc.callbacks.remove(on_collection)
    return collections, pauses, promoted


def print_census(collections, pauses, promoted, top: int) -> None:
    print("collector (a second steady phase, unprofiled):")
    print(f"  {'generation':<38}{'collections':>12}{'pause_s':>12}")
    for generation, (runs, pause) in enumerate(zip(collections, pauses)):
        print(f"  {f'gen{generation}':<38}{runs:>12}{pause:>12.3f}")
    print(f"  {'promoted to gen2 at gen-1 collections, by type':<54}"
          f"{sum(promoted.values()):>10}")
    for kind, count in promoted.most_common(top):
        print(f"    {kind:<52}{count:>10}")


def broadcast_queues(workload, seed: int, sizes):
    """Run an unprofiled steady phase on a fresh build with the gossip tick,
    the broadcast queue and the Serf query collector wrapped; return the
    queue depth at each tick that ran for its agent's current life, the
    counts (broadcasts ``queued``, transmissions ``sent``, wires times the
    peers each take fed, Serf collectors ``finished`` and ``closed`` at the
    limit, directed pulls answered in their ``first wave``), the collectors
    that ended short, by group size, and the sim latency in ms of each
    directed pull that needed a later wave.

    The wrappers go on before the build, so every agent binds the wrapped
    tick; the counts start after warm-up, with the steady phase."""
    depths = []
    counts = Counter()
    short = Counter()
    later_ms = []
    tick, enqueue, take = (SwimAgent._gossip_tick, BroadcastQueue.enqueue,
                           BroadcastQueue.take_batches)
    finish = QueryCollector.finish
    advance, finish_query = QueryRouter._advance, QueryRouter._finish
    waved = set()

    def counting_tick(self, life):
        if life == self._gossip_life and self.running and not self.paused:
            depths.append(len(self.broadcasts))
        tick(self, life)

    def counting_enqueue(self, *args, **kwargs):
        counts["queued"] += 1
        enqueue(self, *args, **kwargs)

    def counting_take(self, max_items, peers):
        runs = take(self, max_items, peers)
        counts["sent"] += sum(len(payloads) * count for payloads, _, count in runs)
        return runs

    def counting_finish(self):
        if not self.finished:
            counts["finished"] += 1
            counts["closed"] += self.closed
            if self.short:
                short[len(self.expected)] += 1
        finish(self)

    def counting_advance(self, state):
        # The conditions under which _advance launches the next wave.
        if (not state.finished and not state.limit_reached
                and not state.pending_groups and state.remaining_plan):
            waved.add(id(state))
        advance(self, state)

    def counting_finish_query(self, state, *, timed_out):
        if state.source == "groups":
            if id(state) in waved:
                waved.discard(id(state))
                later_ms.append((self.service.sim.now - state.started_at) * 1000)
            else:
                counts["first wave"] += 1
        finish_query(self, state, timed_out=timed_out)

    SwimAgent._gossip_tick = counting_tick
    BroadcastQueue.enqueue = counting_enqueue
    BroadcastQueue.take_batches = counting_take
    QueryCollector.finish = counting_finish
    QueryRouter._advance = counting_advance
    QueryRouter._finish = counting_finish_query
    try:
        scenario, plan = prepare(workload, seed, sizes)
        depths.clear()
        counts.clear()
        short.clear()
        scenario.sim.run_until(plan.end_time)
    finally:
        SwimAgent._gossip_tick = tick
        BroadcastQueue.enqueue = enqueue
        BroadcastQueue.take_batches = take
        QueryCollector.finish = finish
        QueryRouter._advance = advance
        QueryRouter._finish = finish_query
    return depths, counts, short, later_ms


def print_broadcast_queues(depths, counts: Counter, short: Counter,
                           later_ms) -> None:
    queued, sent = counts["queued"], counts["sent"]
    ordered = sorted(depths)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] if ordered else 0
    rows = [
        ("gossip ticks", len(depths)),
        ("queue depth at a tick, max", ordered[-1] if ordered else 0),
        ("queue depth at a tick, p99", p99),
        ("queue depth at a tick, mean",
         f"{sum(ordered) / len(ordered):.1f}" if ordered else "0"),
        ("broadcasts queued", queued),
        ("transmissions (wires sent, per destination)", sent),
        ("transmissions per broadcast queued",
         f"{sent / queued:.2f}" if queued else "0"),
        ("Serf query collectors finished", counts["finished"]),
        ("Serf query collectors closed at the query's limit", counts["closed"]),
        ("Serf query collectors that ended short", sum(short.values())),
    ]
    rows.extend((f"  in {size}-member groups", count)
                for size, count in sorted(short.items()))
    later = sorted(later_ms)
    rows += [
        ("directed pulls answered in their first wave", counts["first wave"]),
        ("directed pulls that needed a later wave", len(later)),
        ("  their sim latency, p50 ms",
         f"{later[len(later) // 2]:.0f}" if later else "-"),
        ("  their sim latency, max ms", f"{later[-1]:.0f}" if later else "-"),
    ]
    print("broadcast queues and router waves (a third steady phase, unprofiled):")
    for name, value in rows:
        print(f"  {name:<54}{value:>10}")


def rpc_method(kind: str, payload) -> str:
    """What a message is, for the byte table: an RPC request's or reply's
    method (both carry it) and which of the two, else its kind."""
    if kind == REQUEST_KIND:
        return f"{payload['method']} request"
    if kind == RESPONSE_KIND:
        return f"{payload['method']} reply"
    return kind


def server_bytes(workload, seed: int, sizes):
    """Run an unprofiled steady phase on a fresh build and count the serving
    plane's bytes by direction and message: what it sends, charged at the
    send (the sender's meter, so dropped copies count), and what it
    receives, charged at the delivery, as its meters charge them. Return
    the table ``(direction, method) -> [messages, bytes]`` and the meters'
    own total for the phase, which the table must sum to."""
    table = defaultdict(lambda: [0, 0])
    servers = set()
    send = Network.send_fanout

    def counting_send(self, src, dsts, kind, payload, *, size=None):
        if src not in servers:
            send(self, src, dsts, kind, payload, size=size)
            return
        meter = self._bindings[src][2]
        before = meter.bytes_sent
        send(self, src, dsts, kind, payload, size=size)
        row = table["out", rpc_method(kind, getattr(payload, "payload", payload))]
        row[0] += len(dsts)
        row[1] += meter.bytes_sent - before

    def count_delivery(message) -> None:
        if message.dst in servers:
            row = table["in", rpc_method(message.kind, message.payload)]
            row[0] += 1
            row[1] += message.size

    Network.send_fanout = counting_send
    try:
        scenario, plan = prepare(workload, seed, sizes)
        servers.update(scenario._server_addresses())
        scenario.network.add_delivery_tap(count_delivery)
        table.clear()
        scenario.sim.run_until(plan.end_time)
    finally:
        Network.send_fanout = send
    return table, scenario.server_bandwidth_bytes()


def print_server_bytes(table, metered: int, span_s: float, top: int) -> int:
    """Print the serving plane's bytes by direction and message, largest
    first; return the table's total minus the meters' (must be 0)."""
    total = sum(size for _, size in table.values())
    print(f"serving-plane bytes by message (a fourth steady phase, unprofiled; "
          f"{total / 1000.0 / span_s:.1f} KB/s over {span_s:.1f} sim-s):")
    print(f"  {'dir':<4}{'message':<36}{'count':>9}{'avg_B':>9}"
          f"{'total_B':>12}{'share':>7}")
    rows = sorted(table.items(), key=lambda item: -item[1][1])
    for (direction, method), (count, size) in rows[:top]:
        print(f"  {direction:<4}{method:<36}{count:>9}{size / count:>9.0f}"
              f"{size:>12}{size / total:>7.1%}")
    rest = rows[top:]
    if rest:
        size = sum(s for _, (_, s) in rest)
        print(f"  {'':<4}{f'{len(rest)} more':<36}{sum(c for _, (c, _) in rest):>9}"
              f"{'':>9}{size:>12}{size / total:>7.1%}")
    print(f"  {'sum of the above - serving-plane meters (must be 0)':<54}"
          f"{total - metered:>10}")
    return total - metered


def bare_name(code) -> str:
    """Bare function name of a profile entry's code."""
    return code if isinstance(code, str) else code.co_name


def label(code) -> str:
    """``file:line(name)``, the name qualified where the interpreter knows it
    (3.11+), so a constructor reads ``SizedWire.__init__``."""
    if isinstance(code, str):  # C builtin / method descriptor
        return code
    file = code.co_filename.rsplit("/repro/", 1)[-1]
    return f"{file}:{code.co_firstlineno}({getattr(code, 'co_qualname', code.co_name)})"


def line_label(code, line: int) -> str:
    file = code.co_filename.rsplit("/repro/", 1)[-1]
    return f"{file}:{line}({getattr(code, 'co_qualname', code.co_name)})"


def prepare(workload, seed: int, sizes):
    """Build, warm up and generate as ``focusbench/rep.py`` does."""
    scenario = workload.build(seed, sizes)
    workload.warm_up(scenario, seed, sizes)
    plan = workload.generate(scenario, seed, sizes)
    scenario.reset_bandwidth()
    return scenario, plan


def frame_line(frame) -> int:
    """The line a frame is on. A sample lands where the interpreter checks
    for signals, a loop's backward jump among them, which carries no line of
    its own: that counts as the line before it."""
    line = frame.f_lineno
    if line is None:
        for start, _, lineno in frame.f_code.co_lines():
            if start > frame.f_lasti:
                break
            if lineno is not None:
                line = lineno
    return line


def sample(args, workload, sizes) -> None:
    """``--sample``: the steady phase of ``--reps`` fresh builds under a
    ``SIGPROF`` sampler; print self and cumulative shares by function and by
    line. A sample is the interrupted frame: a C call's time lands on the
    Python line that made it. Frames of this tool and above it are left out,
    and a function or line on the stack twice counts once per sample."""
    tables = {name: Counter()
              for name in ("self_fn", "cum_fn", "self_line", "cum_line")}
    samples = 0
    cpu_s = 0.0

    def on_sample(signum, frame) -> None:
        nonlocal samples
        while frame is not None and frame.f_code.co_filename == __file__:
            frame = frame.f_back  # a sample taken inside this handler
        if frame is None:
            return
        samples += 1
        tables["self_fn"][frame.f_code] += 1
        tables["self_line"][frame.f_code, frame_line(frame)] += 1
        functions, lines = set(), set()
        while frame is not None and frame.f_code.co_filename != __file__:
            functions.add(frame.f_code)
            lines.add((frame.f_code, frame_line(frame)))
            frame = frame.f_back
        tables["cum_fn"].update(functions)
        tables["cum_line"].update(lines)

    previous = signal.signal(signal.SIGPROF, on_sample)
    try:
        for _ in range(args.reps):
            scenario, plan = prepare(workload, args.seed, sizes)
            gc.collect()
            started = time.process_time()
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            try:
                scenario.sim.run_until(plan.end_time)
            finally:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                cpu_s += time.process_time() - started
            del scenario, plan
    finally:
        signal.signal(signal.SIGPROF, previous)
    # The kernel's tick may be coarser than the interval asked for.
    print(f"== {args.workload} seed={args.seed} scale={args.scale}: {args.reps} steady "
          f"phases, {cpu_s:.2f} CPU-s, {samples} samples "
          f"(one per {cpu_s / max(samples, 1) * 1e3:.1f} ms)")
    for title, name, render in (
        ("self, by function", "self_fn", label),
        ("cumulative, by function", "cum_fn", label),
        ("self, by line", "self_line", lambda key: line_label(*key)),
        ("cumulative, by line", "cum_line", lambda key: line_label(*key)),
    ):
        print(f"{title}:\n{'share':>7}{'samples':>9}  where")
        for key, count in tables[name].most_common(args.top):
            print(f"{count / max(samples, 1):>7.1%}{count:>9}  {render(key)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="group_mesh")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--sample", action="store_true",
                        help="sample with SIGPROF instead of profiling")
    parser.add_argument("--reps", type=int, default=4,
                        help="steady phases to sample (with --sample)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes[args.scale]
    if args.sample:
        sample(args, workload, sizes)
        return 0
    scenario, plan = prepare(workload, args.seed, sizes)
    # Every key set up front: a missing one would call Counter.__missing__.
    tally = Counter({row: 0 for row in WIRE_ROWS})
    tally["self-refutations while LEFT (must be 0)"] = 0
    count_merged_wires(tally)
    count_refutations_while_left(tally)
    kinds = defaultdict(int)
    peak = [0]
    scenario.network.add_delivery_tap(delivery_tap(scenario.network, kinds, tally, peak))
    sent_counter = scenario.network.metrics.counter("messages_sent")
    sent_before = sent_counter.value
    before = scenario.sim.events_processed
    dropped_before = arrival_drops(scenario.network)
    profile = cProfile.Profile()
    gc.collect()
    gc_before = gc.get_stats()
    profile.runcall(scenario.sim.run_until, plan.end_time)
    gc_after = gc.get_stats()
    gc_found = gc.collect()
    events = scenario.sim.events_processed - before
    dropped = arrival_drops(scenario.network) - dropped_before
    stats = [entry for entry in profile.getstats()
             if isinstance(entry.code, str) or entry.code.co_filename != __file__]
    stats.sort(key=lambda entry: -entry.inlinetime)
    total_calls = sum(entry.callcount for entry in stats)
    total_self = sum(entry.inlinetime for entry in stats)
    print(f"== {args.workload} seed={args.seed} scale={args.scale}: {events} events, "
          f"{total_calls} calls ({total_calls / events:.2f}/event), "
          f"{total_self:.2f} s profiled self time\n"
          f"{'self_s':>8}{'share':>7}{'calls':>10}{'/event':>8}  function")
    for entry in stats[: args.top]:
        print(f"{entry.inlinetime:>8.3f}{entry.inlinetime / total_self:>7.1%}"
              f"{entry.callcount:>10}{entry.callcount / events:>8.3f}  {label(entry.code)}")

    delivered = sum(kinds.values())
    unaccounted = events_by_kind(stats, events, Counter(kinds), dropped)
    # The message in hand at the tap had already left the heap: + 1.
    per_message_path(stats, int(sent_counter.value - sent_before),
                     delivered + dropped, delivered, peak[0] + 1 if kinds else 0)
    wire_sizing(stats)

    def entries(function) -> int:
        code = code_of(function)
        return sum(e.callcount for e in stats if e.code is code)

    # The loop asks can_change of every member wire it does not turn away by
    # identity; probe handlers ask it of each sender record besides.
    judged_in_loop = sum(count for caller, count in
                         callers(stats, MembershipTable.can_change).items()
                         if caller.endswith("_apply_updates)"))
    member_wires = tally["member wires delivered"]
    refutations = tally["self-refutations while LEFT (must be 0)"]
    loop_entries = callers(stats, SwimAgent._apply_updates)
    from_on_gossip = sum(count for caller, count in loop_entries.items()
                         if caller.endswith("_on_gossip)"))
    rows = [
        (0, "custom wires delivered", tally["custom wires delivered"]),
        (0, "custom wires first-time", tally["custom wires first-time"]),
        (0, "handle_custom_update entries", entries(SwimAgent.handle_custom_update)
         + entries(SerfAgent.handle_custom_update)),
        (0, "gossip packets with updates handled",
         tally["gossip packets with updates handled"]),
        (1, "rejected whole by _on_gossip",
         tally["gossip packets with updates handled"] - from_on_gossip),
        (0, "_apply_updates entries", sum(loop_entries.values())),
    ]
    rows += [(1, caller, count) for caller, count in loop_entries.most_common()]
    rows += [
        (0, "member wires delivered", member_wires),
        (1, "rejected by identity (no can_change)", member_wires - judged_in_loop),
        (0, "member wires examined (can_change)", entries(MembershipTable.can_change)),
        (0, "member wires applied", entries(SwimAgent._apply_member_update)),
        (0, "self-refutations while LEFT (must be 0)", refutations),
    ]
    targets = callers(stats, MembershipTable.gossip_targets)
    draws = callers(stats, _sample_exact)
    rows += [(0, "gossip_targets entries", sum(targets.values()))]
    rows += [(1, caller, count) for caller, count in targets.most_common()]
    rows += [(0, "_sample_exact entries", sum(draws.values()))]
    rows += [(1, caller, count) for caller, count in draws.most_common()]
    rows += [(0, "random.Random.sample calls from gossip/", sum(
        edge.callcount
        for entry in stats if label(entry.code).startswith("gossip/")
        for edge in entry.calls or () if bare_name(edge.code) == "sample"
    ))]
    print("re-delivery and the gossip round (entries by caller):")
    for indent, name, count in rows:
        print(f"  {'  ' * indent}{name:<{54 - 2 * indent}}{count:>10}")
    garbage_per_call = collector(gc_before, gc_after, gc_found, entries(RpcMixin.call))
    wires = tally["custom wires delivered"] + member_wires
    ticks = entries(SwimAgent._gossip_tick)
    plan_span_s = plan.end_time - plan.start_time
    # The profiled build goes before the census builds its own: alive, it
    # would sit in generation 2 and lengthen the census's full passes.
    del scenario, plan, stats, profile, entries
    print_census(*census(workload, args.seed, sizes), top=10)
    depths, counts, short, later_ms = broadcast_queues(workload, args.seed, sizes)
    print_broadcast_queues(depths, counts, short, later_ms)
    table, metered = server_bytes(workload, args.seed, sizes)
    bytes_unaccounted = print_server_bytes(table, metered, plan_span_s, args.top)
    problems = [
        (unaccounted != 0,
         f"events by kind do not sum to the event count ({unaccounted:+})"),
        (kinds[GOSSIP] and not wires,
         f"{kinds[GOSSIP]} gossip packets delivered, none seen by the delivery tap"),
        (tally["custom wires first-time"] and not from_on_gossip,
         "first-time custom wires delivered, no _apply_updates entry from _on_gossip"),
        (ticks and not targets,
         f"{ticks} gossip ticks, no gossip_targets entry"),
        (ticks and not (depths and counts["sent"]),
         f"{ticks} gossip ticks, the queue wrappers saw no tick or no send"),
        (refutations != 0, f"{refutations} self-refutations by a member that left"),
        (garbage_per_call >= 1,
         f"{garbage_per_call:.2f} objects of cyclic garbage per RPC call"),
        (bytes_unaccounted != 0,
         f"serving-plane bytes by message do not sum to its meters "
         f"({bytes_unaccounted:+})"),
    ]
    for failed, what in problems:
        if failed:
            print(f"CHECK FAILED: {what}", file=sys.stderr)
    return 1 if any(failed for failed, _ in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
