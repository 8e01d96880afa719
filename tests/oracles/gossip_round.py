"""The shared gossip round: the oracle for memberlist's per-peer one.

What ``SwimAgent``'s gossip round did before it ran memberlist's
``gossip()``:

* one take from the broadcast queue per tick, the same batch sent to every
  drawn peer and counted as one transmission, so a member sent each wire up
  to ``gossip_fanout`` times its retransmit limit (48 sends against Serf's 12
  at 400 members and fan-out 4);
* targets drawn from the alive peers only, so a suspect never heard the
  gossip that carried its suspicion;
* the first tick posted one full ``gossip_interval`` after a wire reached
  an empty queue, with no phase drawn at start.

``tests/arms.py`` substitutes it (``kernel(gossip="shared")``); under it the
seeded kernel run digests to the checksum pinned before the round changed.
"""

from __future__ import annotations

import random
from typing import List

from repro.gossip.membership import _sample_exact
from repro.gossip.swim import GOSSIP

#: The seeded kernel checksum (``bench_kernel.determinism_checksum``) the
#: shared round produces.
SHARED_DETERMINISM_CHECKSUM = (
    "26ae3d3d67143a4955d486728f8c085b2125aa7a6c1f9cf3b542a8f4b308fabf"
)


def on_start(self) -> None:
    """``SwimAgent.on_start`` without the gossip phase draw."""
    self._gossip_life += 1
    self._gossip_scheduled = False
    self.every(
        self.config.probe_interval,
        self._probe_tick,
        jitter=self.config.probe_interval * 0.1,
    )
    self.every(
        self.config.sync_interval,
        self._sync_tick,
        jitter=self.config.sync_interval * 0.2,
    )
    self.members.prewarm()


def ensure_gossip_scheduled(self) -> None:
    """Queue the next tick one full interval from now."""
    if self._gossip_scheduled or not self.running:
        return
    self._gossip_scheduled = True
    self.sim.post(self.config.gossip_interval, self._next_gossip_tick, self._gossip_life)


def gossip_tick(self, life: int) -> None:
    """One take per tick, sent to every drawn peer."""
    if life != self._gossip_life or not self.running:
        return
    if self.paused:
        self._deferred.append((self._gossip_tick, (life,)))
        return
    broadcasts = self.broadcasts
    if broadcasts._queue:
        targets = self.members.gossip_targets(self._rng, self.config.gossip_fanout)
        if targets:
            updates, size = broadcasts.take_with_size(self.config.piggyback_max)
            if updates:
                self.network.send_fanout(
                    self.address, targets, GOSSIP, {"u": updates}, size=size + 8
                )
    if broadcasts._queue:
        self.sim.post(self.config.gossip_interval, self._next_gossip_tick, life)
    else:
        self._gossip_scheduled = False


def gossip_targets(self, rng: random.Random, max_fanout: int) -> List[str]:
    """``MembershipTable.gossip_targets`` over the alive peers only: one
    ``rng.sample`` over the alive view's addresses (:func:`_sample_exact`
    draws the bits the table's inline loop draws)."""
    view = self._alive_excl_arr()
    count = len(view)
    if not count:
        return []
    addresses = self.directory.addresses
    picked = _sample_exact(rng.getrandbits, count, min(max_fanout, count))
    return [addresses[view.item(j)] for j in picked]
