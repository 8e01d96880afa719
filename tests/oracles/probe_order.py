"""The full-shuffle probe walk: the oracle for the incremental draw.

What ``SwimAgent._next_probe_target`` did before it drew one target per
tick: when a pass wraps, materialize the alive view and shuffle the whole
list up front (``random.shuffle``'s bits, inlined), then walk it. The same
pass semantics — each member of the pass probed once, a member no longer
alive skipped, a joiner waiting for the next pass — at O(n) draws per pass
instead of O(1) per probe. ``tests/arms.py`` substitutes it
(``kernel(probes="shuffle")``); under it the seeded kernel run digests to
the checksum pinned before the walk changed.
"""

from __future__ import annotations

from typing import List, Optional

#: The seeded kernel checksum (``bench_kernel.determinism_checksum``) the
#: full-shuffle walk produces.
SHUFFLE_DETERMINISM_CHECKSUM = (
    "9ec2caaa660971febe8da333a58e906079ea841634fcfab125602b3946c51226"
)


def _shuffle_exact(x: List[str], getrandbits) -> None:
    """``random.shuffle`` inlined against raw ``getrandbits``.

    Draws the exact same bit sequence as ``random.shuffle`` (Fisher-Yates with
    rejection-sampled ``_randbelow``), so seeded runs are bit-identical, but
    skips the per-draw Python ``_randbelow`` call — ~1.85x faster on the large
    probe-order lists this module shuffles. (Bulk-pulling the underlying MT
    words via ``getrandbits(32 * j)`` was measured 2x *slower*: the cost is
    the per-element Python loop, not the ``getrandbits`` C calls.)
    """
    i = len(x) - 1
    if i < 1:
        return
    m = i + 1
    k = m.bit_length()
    threshold = 1 << (k - 1)
    while i > 0:
        if m < threshold:
            k -= 1
            threshold >>= 1
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        x[i], x[r] = x[r], x[i]
        i -= 1
        m -= 1


def next_probe_target(self) -> Optional[str]:
    """``SwimAgent._next_probe_target`` with the whole pass shuffled on wrap.
    Like it, leaves the returned member's address in ``_probe_address``."""
    # The alive view is only materialized on wrap — a probe tick that is
    # mid-round walks the existing shuffled order without touching it.
    if self._probe_index >= len(self._probe_order):
        # alive_names returns a fresh list, so we can shuffle it in
        # place without copying.
        alive = self.members.alive_names(exclude_self=True)
        if not alive:
            return None
        self._probe_order = alive
        _shuffle_exact(self._probe_order, self._rng.getrandbits)
        self._probe_index = 0
    while self._probe_index < len(self._probe_order):
        name = self._probe_order[self._probe_index]
        self._probe_index += 1
        address = self.members.alive_address(name)
        if address is not None:
            self._probe_address = address
            return name
    return self._next_probe_target()
