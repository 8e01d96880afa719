"""Which functions does a focusbench steady phase spend its time in?

    make hotspots WORKLOAD=group_mesh
    PYTHONPATH=src python -m benchmarks.hotspots --workload W [--seed 42]
        [--scale full|smoke] [--top 25]

One level below focusbench's 14-layer ledger: build, warm up and generate as
``focusbench/rep.py`` does, ``cProfile`` the steady phase, print the top
functions by self time with calls and calls/event, then how much of the gossip
traffic was re-delivery (what the update loop's no-op path is worth). No gate,
no committed output; profiled seconds are ~3x untraced ones, so read counts
and proportions here and host time in focusbench.
"""

import argparse
import cProfile
import gc
from collections import Counter

from benchmarks.focusbench.workloads import WORKLOADS
from repro.gossip.swim import SwimAgent


def count_deliveries(tally: Counter) -> None:
    """Wrap the update loop to count the custom wires handed to it. The
    wrapper makes no call per wire and its frame is left out of the totals."""
    inner = SwimAgent._apply_updates

    def counting(self, updates):
        seen = self._seen
        for wire in updates:
            if "t" in wire and wire["t"] != "m":
                tally["custom wires delivered"] += 1
                tally["custom wires first-time"] += wire["id"] not in seen
        inner(self, updates)

    SwimAgent._apply_updates = counting


def label(code) -> str:
    if isinstance(code, str):  # C builtin / method descriptor
        return code
    file = code.co_filename.rsplit("/repro/", 1)[-1]
    return f"{file}:{code.co_firstlineno}({code.co_name})"


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
    tally = Counter({"custom wires delivered": 0, "custom wires first-time": 0})
    count_deliveries(tally)
    before = scenario.sim.events_processed
    profile = cProfile.Profile()
    gc.collect()
    profile.runcall(scenario.sim.run_until, plan.end_time)
    events = scenario.sim.events_processed - before
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

    def entries(function: str) -> int:
        suffix = f"({function})"
        return sum(e.callcount for e in stats if label(e.code).endswith(suffix))

    tally["handle_custom_update entries"] = entries("handle_custom_update")
    tally["member wires examined (can_change)"] = entries("can_change")
    tally["member wires applied"] = entries("_apply_member_update")
    tally["random.Random.sample calls from gossip/"] = sum(
        edge.callcount
        for entry in stats if label(entry.code).startswith("gossip/")
        for edge in entry.calls or () if label(edge.code).endswith("(sample)")
    )
    print("re-delivery (what the update loop turns away):")
    for name, count in tally.items():
        print(f"  {name:<42}{count:>10}")


if __name__ == "__main__":
    main()
