"""Which functions does a focusbench steady phase spend its time in?

    make hotspots WORKLOAD=group_mesh
    PYTHONPATH=src python -m benchmarks.hotspots --workload W [--seed 42]
        [--scale full|smoke] [--top 25]

One level below focusbench's 14-layer ledger: build, warm up and generate as
``focusbench/rep.py`` does, ``cProfile`` the steady phase, print the top
functions by self time with calls and calls/event, then the events by kind
(messages delivered per ``kind``, timer-wheel firings, posted and deadline
callbacks by name — what the loop was asked to run, whether or not it found
anything to do), then the network's per-message path (send calls by entry,
sentinel flushes and retargets, the in-flight heap's high-water mark, RPC
deadlines armed, cancelled and fired), then who measured and decoded wire
payloads (every
``approx_size`` walk, ``Query.from_json`` decode, ``json.dumps`` and sized-dict
construction, by calling function: a hop that re-measures or re-decodes what
it was handed is one line), then how much of the gossip traffic was
re-delivery (what the update loop's no-op path is worth: custom wires, and
member wires delivered, turned away by identity, examined and applied), and
how often a member that had left refuted its own leave (must be 0). No gate, no
committed output; profiled seconds are ~3x untraced ones, so read counts and
proportions here and host time in focusbench.
"""

import argparse
import cProfile
import gc
import json
from collections import Counter, defaultdict

from benchmarks.focusbench.workloads import WORKLOADS
from repro.core.query import Query
from repro.gossip.broadcast import SizedWire
from repro.gossip.membership import CODE_LEFT, MembershipTable
from repro.gossip.swim import SwimAgent
from repro.sim.events import Deadline
from repro.sim.loop import Simulator
from repro.sim.network import Network, SizedDict, approx_size


def count_deliveries(tally: Counter) -> None:
    """Wrap the update loop to count the wires handed to it: custom wires
    (a ``SizedWire``, or a plain dict whose ``"t"`` is not ``"m"``) delivered
    and first-time, and member wires (every other wire, interned or plain,
    with or without a ``"t"``) delivered. The wrapper makes no call per wire
    and its frame is left out of the totals."""
    inner = SwimAgent._apply_updates

    def counting(self, updates):
        seen = self._seen
        for wire in updates:
            if type(wire) is SizedWire or ("t" in wire and wire["t"] != "m"):
                tally["custom wires delivered"] += 1
                tally["custom wires first-time"] += wire["id"] not in seen
            else:
                tally["member wires delivered"] += 1
        inner(self, updates)

    SwimAgent._apply_updates = counting


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


def callees(stats, function: str, *helpers: str) -> Counter:
    """name -> times ``function`` called it, ``helpers`` left out."""
    found = Counter()
    for entry in stats:
        if bare_name(entry.code) == function:
            for edge in entry.calls or ():
                found[bare_name(edge.code)] += edge.callcount
    for helper in helpers:
        found.pop(helper, None)
    return found


def events_by_kind(stats, events: int, kinds: Counter, dropped: int) -> None:
    """Print the steady phase's events by what the loop ran.

    The loop's callees in the profile are the callbacks it popped. Behind one
    popped delivery sentinel further messages are flushed, each an event of
    its own, so arrivals are counted by a network tap (``kinds``) and the
    drop counters (``dropped``) instead; and a deadline sentinel that only
    swept cancelled entries is no event. The last row checks the sum.
    """
    popped = callees(stats, "run_until", "pop_before", "_fire_deliveries")
    wheel = popped.pop("_fire_class", 0)
    posted = popped.pop("_post_fire", 0)
    sentinel_firings = popped.pop("_fire_deadlines", 0)
    fired = callees(stats, "_fire_deadlines", "push_entry",
                    "<method 'popleft' of 'collections.deque' objects>")
    guarded = callees(stats, "_post_fire", "<method 'append' of 'list' objects>")
    rows = [(0, "messages delivered", sum(kinds.values()))]
    rows += [(1, kind, count) for kind, count in kinds.most_common()]
    rows += [
        (0, "messages dropped on arrival", dropped),
        (0, "timer-wheel firings", wheel),
        (0, "posted callbacks (Process.post)", posted),
        (0, "deadline callbacks that fired", sum(fired.values())),
    ]
    # One level of call edges cannot tell which of the two a guarded callback
    # came through, so the names are listed once for both.
    by_name = guarded + Counter({callback: count for callback, count in fired.items()
                                 if callback != "_post_fire"})
    rows += [(1, callback, count) for callback, count in by_name.most_common()]
    rows += [(0, "other callbacks", sum(popped.values()))]
    rows += [(1, callback, count) for callback, count in popped.most_common()]
    rows += [(0, "sum of the above - events (must be 0)",
              sum(count for indent, _, count in rows if indent == 0) - events),
             (0, "deadline sentinel firings that only swept (no event)",
              sentinel_firings - sum(fired.values())),
             (0, "queue compactions (EventQueue.compact)",
              sum(e.callcount for e in stats if bare_name(e.code) == "compact"))]
    print(f"events by kind ({events} events):")
    for indent, what, count in rows:
        print(f"  {'  ' * indent}{what:<{54 - 2 * indent}}{count:>10}")


def callers(stats, function) -> Counter:
    """caller's label -> times it called ``function`` (a Python function)."""
    code = function.__code__
    found = Counter()
    for entry in stats:
        for edge in entry.calls or ():
            if edge.code is code:
                found[label(entry.code)] += edge.callcount
    return found


def per_message_path(stats, sent: int, arrived: int, high_water: int) -> None:
    """Print how messages entered the network and left the in-flight heap,
    and what the RPC layer's deadlines did.

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
        (0, "RPC deadlines fired", callees(stats, "_fire_deadlines")["timed_out"]),
    ]
    print("per-message path:")
    for indent, what, count in rows:
        print(f"  {'  ' * indent}{what:<{54 - 2 * indent}}{count:>10}")
    per_flush = arrived / flushes if flushes else 0.0
    print(f"  {'messages off the heap per flush':<54}{per_flush:>10.2f}")


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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="group_mesh")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--top", type=int, default=25)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes[args.scale]
    scenario = workload.build(args.seed, sizes)
    workload.warm_up(scenario, args.seed, sizes)
    plan = workload.generate(scenario, args.seed, sizes)
    scenario.reset_bandwidth()
    tally = Counter()
    count_deliveries(tally)
    count_refutations_while_left(tally)
    kinds = defaultdict(int)
    heap = scenario.network._in_flight.heap
    peak = [0]

    def count_kind(message) -> None:  # no call of its own: its frame is left out
        kinds[message.kind] += 1
        while heap[peak[0]:]:  # a slice, unlike len(), is not a profiled call
            peak[0] += 1

    scenario.network.add_delivery_tap(count_kind)
    sent_counter = scenario.network.metrics.counter("messages_sent")
    sent_before = sent_counter.value
    before = scenario.sim.events_processed
    dropped_before = arrival_drops(scenario.network)
    profile = cProfile.Profile()
    gc.collect()
    profile.runcall(scenario.sim.run_until, plan.end_time)
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

    events_by_kind(stats, events, Counter(kinds), dropped)
    # The message in hand at the tap had already left the heap: + 1.
    per_message_path(stats, int(sent_counter.value - sent_before),
                     sum(kinds.values()) + dropped, peak[0] + 1 if kinds else 0)
    wire_sizing(stats)

    def entries(function: str) -> int:
        return sum(e.callcount for e in stats if bare_name(e.code) == function)

    # The loop asks can_change of every member wire it does not turn away by
    # identity; probe handlers ask it of each sender record besides.
    judged_in_loop = sum(count for caller, count in
                         callers(stats, MembershipTable.can_change).items()
                         if caller.endswith("_apply_updates)"))
    delivered = tally["member wires delivered"]
    rows = [
        ("custom wires delivered", tally["custom wires delivered"]),
        ("custom wires first-time", tally["custom wires first-time"]),
        ("handle_custom_update entries", entries("handle_custom_update")),
        ("member wires delivered", delivered),
        ("  rejected by identity (no can_change)", delivered - judged_in_loop),
        ("member wires examined (can_change)", entries("can_change")),
        ("member wires applied", entries("_apply_member_update")),
        ("self-refutations while LEFT (must be 0)",
         tally["self-refutations while LEFT (must be 0)"]),
        ("random.Random.sample calls from gossip/", sum(
            edge.callcount
            for entry in stats if label(entry.code).startswith("gossip/")
            for edge in entry.calls or () if bare_name(edge.code) == "sample"
        )),
    ]
    print("re-delivery (what the update loop turns away):")
    for name, count in rows:
        print(f"  {name:<42}{count:>10}")


if __name__ == "__main__":
    main()
