"""The per-region worker process of the parallel kernel.

Each worker builds its own complete :class:`~repro.sim.loop.Simulator` +
:class:`~repro.sim.network.Network` (same seed, same topology, same derived
RNG labels — streams are label-keyed, so identical across processes), hosts
only the endpoints of its owned regions, and advances in lockstep windows
under the coordinator's command protocol:

* ``("window", end_time, inbound)`` — inject the pre-sorted cross-region
  messages ``inbound``, run the local loop to ``end_time`` (inclusive
  bound), reply ``("done", outbox)`` where ``outbox`` maps destination
  region -> exported message records from this window;
* ``("finish",)`` — reply ``("summary", shard.summary())`` and exit.

Any exception — in the builder, a handler, or the protocol — is caught and
shipped back as ``("error", traceback_text)`` so the coordinator can raise a
clear :class:`~repro.errors.SimulationError` instead of hanging on a dead
pipe.

Exported message records are tuples
``(arrival_time, src_region, seq, kind, payload, src, dst, size, sent_at)``;
the coordinator merges each destination's inbound stream in
``(arrival_time, src-region topology index, seq)`` order, which is a pure
function of plan + seed — never of worker scheduling.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.engine import ChaosEngine
from repro.faults.plan import FaultPlan
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.parallel.partition import slice_plan


@dataclass
class WorkerShard:
    """What a shard builder returns: the pieces the kernel drives.

    ``summary()`` runs after the last window and must return a *picklable*
    dict (it crosses the pipe back to the coordinator). ``address_regions``
    must map every address in the whole simulation — local and remote — to
    its region, so the local network can route exports without the remote
    endpoints ever registering. ``plan`` (optional) is the *full* fault
    plan; the worker slices it to its owned regions and executes the slice
    through a local :class:`ChaosEngine` before the first window.
    """

    sim: Simulator
    network: Network
    address_regions: Dict[str, str]
    summary: Callable[[], dict]
    plan: Optional[FaultPlan] = None
    chaos_targets: Dict[str, object] = field(default_factory=dict)
    chaos_name: str = "chaos"


#: Shard builders run *inside* the worker process (inherited via fork):
#: ``builder(worker_index, owned_regions) -> WorkerShard``.
ShardBuilder = Callable[[int, Tuple[str, ...]], WorkerShard]


def worker_main(
    conn,
    worker_index: int,
    owned_regions: Tuple[str, ...],
    remote_regions: Tuple[str, ...],
    builder: ShardBuilder,
) -> None:
    """Worker process entry point; see the module docstring for protocol."""
    try:
        shard = builder(worker_index, owned_regions)
        outbox: Dict[str, List[tuple]] = {}

        def exporter(src_region, dst_region, arrival, seq, kind, payload,
                     src, dst, size, sent_at):
            records = outbox.get(dst_region)
            if records is None:
                records = outbox[dst_region] = []
            records.append(
                (arrival, src_region, seq, kind, payload, src, dst, size,
                 sent_at)
            )

        shard.network.enable_region_sharding(
            owned_regions, remote_regions, shard.address_regions, exporter
        )
        if shard.plan is not None and not shard.plan.empty:
            engine = ChaosEngine(
                shard.sim,
                shard.network,
                name=shard.chaos_name,
                targets=shard.chaos_targets,
            )
            engine.execute(
                slice_plan(shard.plan, owned_regions, shard.address_regions)
            )
        inject = shard.network.inject_remote
        run_until = shard.sim.run_until
        while True:
            message = conn.recv()
            command = message[0]
            if command == "window":
                _, end_time, inbound = message
                # Inbound arrives pre-sorted in the deterministic merge
                # order; injecting in list order allocates local delivery
                # seqs in exactly that order.
                for (arrival, _src_region, _seq, kind, payload, src, dst,
                     size, sent_at) in inbound:
                    inject(arrival, kind, payload, src, dst, size, sent_at)
                run_until(end_time)
                conn.send(("done", outbox))
                outbox = {}
            elif command == "finish":
                conn.send(("summary", shard.summary()))
                conn.close()
                return
            else:
                raise RuntimeError(f"unknown worker command {command!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
            conn.close()
        except OSError:  # coordinator already gone
            pass
