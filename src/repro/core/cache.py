"""Query response cache with freshness semantics (§VI).

Checking the cache is the first step in processing a query. Each cached
entry stores the response and the time it was fetched from the groups; a
query's ``freshness`` parameter (milliseconds) bounds how old a cached
response may be. Freshness zero means "as close to real time as possible" —
it always bypasses the cache.

An entry holds the match records the answer arrived with, shared and never
copied or mutated (see :func:`~repro.core.query.match_record`), so a hit
ships them again at the size they carry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.core.query import Query, answer_payload


class CacheEntry:
    """One cached response and the time it was fetched from the groups."""
    __slots__ = ("matches", "fetched_at")

    def __init__(self, matches: List[dict], fetched_at: float) -> None:
        self.matches = matches
        self.fetched_at = fetched_at

    def answer(self, query: Query, now: float, source: str) -> Dict[str, object]:
        """This entry as an answer to ``query``: trimmed to its limit, with
        the entry's age at ``now`` as the ``staleness_ms`` bound."""
        matches = self.matches
        if query.limit is not None:
            matches = matches[: query.limit]
        age_ms = (now - self.fetched_at) * 1000.0
        return answer_payload(matches, source, staleness_ms=age_ms)


class QueryCache:
    """LRU cache keyed by the query's canonical form."""

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, query: Query, now: float) -> Optional[List[dict]]:
        """A cached response satisfying the query's freshness, or ``None``."""
        entry = self.lookup_entry(query, now)
        return entry.matches if entry is not None else None

    def lookup_entry(self, query: Query, now: float) -> Optional[CacheEntry]:
        """Like :meth:`lookup` but returns the whole entry, so callers can
        surface the answer's age as an explicit staleness bound."""
        if query.freshness_ms <= 0:
            self.misses += 1
            return None
        key = query.cache_key()
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        age_ms = (now - entry.fetched_at) * 1000.0
        if age_ms > query.freshness_ms:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def lookup_stale(self, query: Query) -> Optional[CacheEntry]:
        """The cached entry for ``query`` regardless of freshness.

        Degraded-mode reads only (circuit-breaker fallback): when the owning
        shard is unreachable, a stale answer stamped with its true age beats
        a timeout. Does not count toward hits/misses and does not touch LRU
        order — the default lookup paths are unchanged.
        """
        return self._entries.get(query.cache_key())

    def store(
        self, query: Query, matches: List[dict], now: float,
        *, staleness_ms: float = 0.0,
    ) -> None:
        """Cache ``matches``; ``staleness_ms`` is how stale the result already
        was when it arrived (a replicated or re-cached answer), so the entry's
        effective fetch time is backdated and freshness bounds stay honest."""
        key = query.cache_key()
        self._entries[key] = CacheEntry(matches, now - staleness_ms / 1000.0)
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def invalidate_all(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
