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
must stay below 1: per-request state is freed by reference counting).
Profiled seconds are ~3x untraced ones, so read counts and proportions here
and host time in focusbench.

With ``--sample`` the steady phase runs unprofiled under a ``SIGPROF``
sampler instead, ``--reps`` times on fresh builds, and the report is the
sampled self and cumulative shares by function and by line: real time, C
calls included in the line that made them, which ``cProfile`` understates.

No gate and no committed output; the exit status is non-zero when a check
the report makes fails (events that do not add up, a row the tool's tap,
wrappers or named methods should have fed reading 0, a self-refutation by a
member that left, one or more objects of cyclic garbage per RPC call), which
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
from repro.gossip.agent import SerfAgent
from repro.gossip.broadcast import SizedWire
from repro.gossip.membership import CODE_LEFT, MembershipTable, _sample_exact
from repro.gossip.swim import ACK, GOSSIP, PING, SwimAgent
from repro.sim.events import Deadline, EventQueue
from repro.sim.loop import Simulator, TimerWheel
from repro.sim.network import Network, SizedDict, approx_size
from repro.sim.process import Process
from repro.sim.rpc import RpcMixin

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
              sentinel_firings - sum(fired.values())),
             (0, "queue compactions (EventQueue.compact)",
              sum(e.callcount for e in stats if e.code is EventQueue.compact.__code__))]
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
    problems = [
        (unaccounted != 0,
         f"events by kind do not sum to the event count ({unaccounted:+})"),
        (kinds[GOSSIP] and not wires,
         f"{kinds[GOSSIP]} gossip packets delivered, none seen by the delivery tap"),
        (tally["custom wires first-time"] and not from_on_gossip,
         "first-time custom wires delivered, no _apply_updates entry from _on_gossip"),
        (ticks and not targets,
         f"{ticks} gossip ticks, no gossip_targets entry"),
        (refutations != 0, f"{refutations} self-refutations by a member that left"),
        (garbage_per_call >= 1,
         f"{garbage_per_call:.2f} objects of cyclic garbage per RPC call"),
    ]
    for failed, what in problems:
        if failed:
            print(f"CHECK FAILED: {what}", file=sys.stderr)
    return 1 if any(failed for failed, _ in problems) else 0


if __name__ == "__main__":
    sys.exit(main())
