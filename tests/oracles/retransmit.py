"""The log2 retransmit limit: the oracle for memberlist's log10 one.

What ``repro.gossip.broadcast.retransmit_limit`` computed before it took
memberlist's ``retransmitLimit``: ``retransmit_mult * ceil(log2(n + 1))``,
which is the bit length of ``n`` for ``n >= 1`` — 2.5 to 3 times as many
transmissions per broadcast as Serf sends (36 against 12 at 400 members).
``tests/arms.py`` substitutes it (``kernel(retransmit="log2")``); under it
the seeded kernel run digests to the checksum pinned before the limit
changed.
"""

from __future__ import annotations

#: The seeded kernel checksum (``bench_kernel.determinism_checksum``) the
#: log2 limit produces.
LOG2_DETERMINISM_CHECKSUM = (
    "fc5bcf0234bddcbc17d2995568000369c6b9113b40531c3d2fc47f095b8db7e1"
)


def retransmit_limit(retransmit_mult: int, group_size: int) -> int:
    """``retransmit_mult * ceil(log2(n + 1))``; groups below 1 count as 1."""
    return retransmit_mult * max(group_size, 1).bit_length()
