"""The FOCUS query structure (§V-A).

A query is a list of queryable attribute terms. Each term has a name, an
upper bound and a lower bound (equal bounds express exact match; ``None``
leaves a side unbounded, supporting lesser/greater-than). The query carries a
``limit`` (maximum responses) and a ``freshness`` in milliseconds — zero
demands results as close to real time as possible (bypassing the cache).

Static attributes may also match by equality on strings (e.g.
``arch == "x86"``); numeric bounds and string equality are both supported.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import QueryError
from repro.sim.network import SizedDict
from repro.store.table import Term

Value = Union[float, int, str]


class QueryTerm(Term):
    """One attribute constraint.

    For numeric attributes use ``lower``/``upper`` (inclusive). For string
    attributes use ``equals``. Matching and the JSON form are the store's
    :class:`~repro.store.table.Term`, so a replica filtering a scan applies
    exactly the rule a node applies to itself.
    """

    __slots__ = ()

    def __init__(
        self,
        name: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
        equals: Optional[str] = None,
    ) -> None:
        if not name:
            raise QueryError("term needs an attribute name")
        if equals is not None and (lower is not None or upper is not None):
            raise QueryError(f"term {name!r}: equals excludes numeric bounds")
        if equals is None and lower is None and upper is None:
            raise QueryError(f"term {name!r}: needs at least one bound")
        if lower is not None and upper is not None and lower > upper:
            raise QueryError(f"term {name!r}: lower {lower} > upper {upper}")
        Term.__init__(self, name, lower, upper, equals)

    @classmethod
    def exact(cls, name: str, value: Value) -> "QueryTerm":
        """Exact match: both bounds equal (numeric) or string equality."""
        if isinstance(value, str):
            return cls(name, equals=value)
        return cls(name, lower=float(value), upper=float(value))

    @classmethod
    def at_least(cls, name: str, value: float) -> "QueryTerm":
        return cls(name, lower=float(value))

    @classmethod
    def at_most(cls, name: str, value: float) -> "QueryTerm":
        return cls(name, upper=float(value))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        if self.equals is not None:
            return f"<{self.name} == {self.equals!r}>"
        return f"<{self.lower} <= {self.name} <= {self.upper}>"


class Query:
    """A multi-term query with ``limit`` and ``freshness`` (ms)."""

    __slots__ = ("terms", "limit", "freshness_ms")

    def __init__(
        self,
        terms: Iterable[QueryTerm],
        *,
        limit: Optional[int] = None,
        freshness_ms: float = 0.0,
    ) -> None:
        self.terms = list(terms)
        if not self.terms:
            raise QueryError("query needs at least one term")
        names = [t.name for t in self.terms]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate attribute terms in query: {names}")
        if limit is not None and limit <= 0:
            raise QueryError(f"limit must be positive, got {limit}")
        if freshness_ms < 0:
            raise QueryError(f"freshness must be >= 0 ms, got {freshness_ms}")
        self.limit = limit
        self.freshness_ms = freshness_ms

    @classmethod
    def from_bounds(
        cls,
        bounds: Dict[str, object],
        *,
        limit: Optional[int] = None,
        freshness_ms: float = 0.0,
    ) -> "Query":
        """Convenience constructor.

        ``bounds`` maps attribute name to either ``(lower, upper)`` (use
        ``None`` for an open side), a single number (exact match), or a
        string (equality).
        """
        terms = []
        for name, bound in bounds.items():
            if isinstance(bound, tuple):
                lower, upper = bound
                terms.append(QueryTerm(name, lower=lower, upper=upper))
            else:
                terms.append(QueryTerm.exact(name, bound))  # type: ignore[arg-type]
        return cls(terms, limit=limit, freshness_ms=freshness_ms)

    def term(self, name: str) -> Optional[QueryTerm]:
        for term in self.terms:
            if term.name == name:
                return term
        return None

    def matches(self, attributes: Dict[str, object]) -> bool:
        """Whether a node's full attribute dict satisfies every term."""
        return all(term.matches(attributes.get(term.name)) for term in self.terms)

    def to_json(self) -> Dict[str, object]:
        return {
            "terms": [t.to_json() for t in self.terms],
            "limit": self.limit,
            "freshness_ms": self.freshness_ms,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "Query":
        return cls(
            [QueryTerm.from_json(t) for t in data["terms"]],  # type: ignore[union-attr]
            limit=data.get("limit"),  # type: ignore[arg-type]
            freshness_ms=float(data.get("freshness_ms", 0.0)),  # type: ignore[arg-type]
        )

    def cache_key(self) -> Tuple[object, ...]:
        """Canonical key ignoring freshness (freshness is checked at lookup).

        Two queries share a key exactly when they ask for the same number of
        the same nodes: the limit, then the terms in name order, bounds
        compared as numbers (``1`` and ``1.0`` are one bound, as they are to
        :meth:`QueryTerm.matches`).
        """
        return (self.limit, *sorted(
            (t.name, t.lower, t.upper, t.equals) for t in self.terms
        ))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Query {self.terms} limit={self.limit} fresh={self.freshness_ms}ms>"


class DecodedQueryJson(SizedDict):
    """A query's JSON form, measured, with the :class:`Query` it decodes to.

    This is how a query travels: the client, the front router's forwards to
    its shards, a shard's pulls into its groups and the group member that
    gossips it on all ship one of these, and every hop that needs the query
    takes it from :func:`decode_query` instead of decoding the JSON again.
    On the wire it is the same JSON, charged the size it carries (see
    :class:`~repro.sim.network.SizedDict`). It is built per request by
    :meth:`of` and dies with the messages that carry it; nothing is kept on
    the caller's :class:`Query`. Nobody mutates a query in flight, so
    ``query`` cannot go stale.
    """

    __slots__ = ("query",)

    def __init__(self, data: Dict[str, object], query: Optional[Query] = None) -> None:
        super().__init__(data)
        self.query = decode_query(data) if query is None else query

    @classmethod
    def of(cls, query: Query) -> "DecodedQueryJson":
        """The wire form of ``query``: its :meth:`~Query.to_json`, carrying it."""
        return cls(query.to_json(), query)


def decode_query(data: Dict[str, object]) -> Query:
    """The :class:`Query` a received query JSON stands for.

    A :class:`DecodedQueryJson` hands over the query it carries; only a
    hand-built plain dict is decoded.
    """
    if type(data) is DecodedQueryJson:
        return data.query
    return Query.from_json(data)


def match_record(node: object, attrs: Dict[str, object], region: object) -> SizedDict:
    """One matching node as every hop ships it: ``{node, attrs, region}``.

    Built once where the match is found — the answering node's
    :class:`MatchAnswer`, the router's transition and static paths — and
    shared by every reply and cache after that. ``attrs`` is normally the answering node's sized
    snapshot, so measuring the record walks its three keys only.
    """
    return SizedDict({"node": node, "attrs": attrs, "region": region})


def answer_payload(
    matches: List[dict],
    source: str,
    *,
    timed_out: bool = False,
    groups_queried: int = 0,
    staleness_ms: float = 0.0,
    error: Optional[str] = None,
) -> Dict[str, object]:
    """A query answer as every serving-plane hop ships it.

    ``source`` says where the matches came from (``groups``, ``cache``,
    ``replica``, ...) and ``staleness_ms`` bounds their age. A refusal — a
    shed or throttled query, an open breaker — is an empty answer whose
    ``error`` names the reason, so clients degrade instead of timing out.
    """
    payload: Dict[str, object] = {
        "matches": matches,
        "source": source,
        "timed_out": timed_out,
        "groups_queried": groups_queried,
        "staleness_ms": staleness_ms,
    }
    if error is not None:
        payload["error"] = error
    return payload


class MatchAnswer(SizedDict):
    """A node's answer to a query it matches, ``{node, match, attrs,
    region}``, carrying the :func:`match_record` that ships it onward.

    The answering node builds one per attribute version and every query it
    matches shares it, so the aggregating group member takes ``record``
    instead of building a record per answer. On the wire it is the answer
    alone, charged the size it carries; ``record`` rides along like
    :class:`DecodedQueryJson`'s ``query``.
    """

    __slots__ = ("record",)

    def __init__(self, node: object, attrs: Dict[str, object], region: object) -> None:
        super().__init__({"node": node, "match": True, "attrs": attrs, "region": region})
        self.record = match_record(node, attrs, region)
