"""Table and row model.

The Registrar creates one table per *static* attribute (§VIII-A1). Each row
holds the node id, the attribute value, a catch-all dict of the node's other
attributes (so multi-attribute queries touch a single table), and a write
timestamp used for last-write-wins reconciliation:

    | node ID    | arch | attributes | timestamp  |
    | IP address | x86  | {cores:8}  | time value |

A scan can filter where the rows live: a :class:`Term` is one attribute
constraint (the one matching rule; the query layer's ``QueryTerm`` is this
class with validation), and :func:`row_matches` applies a list of them to a
row value's ``attributes`` map. A replica answering a scan with a ``where``
returns only the rows whose local newest version matches (see
:mod:`repro.store.replica`), or only the digest of those rows
(:func:`rows_digest`); the coordinator compares digests and settles
replicas that disagree (:meth:`repro.store.cluster.StoreClient.scan`).

A delete leaves a *tombstone*: a :class:`Row` whose ``value`` is ``None``,
carrying the delete's timestamp, so a replica that missed the delete cannot
win a later read with its older live copy.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.sim.network import SizedDict


class Term:
    """One attribute constraint: string equality (``equals``) or inclusive
    numeric bounds (``lower``/``upper``, ``None`` leaves a side open)."""

    __slots__ = ("name", "lower", "upper", "equals")

    def __init__(
        self,
        name: str,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
        equals: Optional[str] = None,
    ) -> None:
        self.name = name
        self.lower = lower
        self.upper = upper
        self.equals = equals

    def matches(self, value: object) -> bool:
        """Whether a node's attribute value satisfies this term."""
        if value is None:
            return False
        if self.equals is not None:
            return value == self.equals
        try:
            number = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return False
        if self.lower is not None and number < self.lower:
            return False
        if self.upper is not None and number > self.upper:
            return False
        return True

    def to_json(self) -> Dict[str, object]:
        data: Dict[str, object] = {"name": self.name}
        if self.lower is not None:
            data["lower"] = self.lower
        if self.upper is not None:
            data["upper"] = self.upper
        if self.equals is not None:
            data["equals"] = self.equals
        return data

    @classmethod
    def from_json(cls, data: Dict[str, object]):
        return cls(
            str(data["name"]),
            lower=data.get("lower"),  # type: ignore[arg-type]
            upper=data.get("upper"),  # type: ignore[arg-type]
            equals=data.get("equals"),  # type: ignore[arg-type]
        )


def row_matches(value: Dict[str, object], terms: Sequence[Term]) -> bool:
    """Whether a row value's ``attributes`` map satisfies every term."""
    attributes = value.get("attributes") or {}
    for term in terms:
        if not term.matches(attributes.get(term.name)):  # type: ignore[union-attr]
            return False
    return True


class RowWire(SizedDict):
    """A row's wire ``{"k", "v", "ts"}``, carrying its share of a scan
    digest: the canonical JSON of ``[key, ts, value]``, encoded once when the
    wire is built (a row's wire is built once per row version)."""

    __slots__ = ("share",)

    def __init__(self, fields: Dict[str, object]) -> None:
        super().__init__(fields)
        self.share = json.dumps(
            [fields["k"], fields["ts"], fields["v"]],
            sort_keys=True,
            separators=(",", ":"),
        ).encode()


def rows_digest(wires: Iterable[RowWire]) -> str:
    """The 32-hex MD5 over the ``(key, ts, value)`` of row wires, as a set:
    what a digest replica returns for a filtered scan instead of its rows.

    The shares are hashed sorted, because a table keeps its rows in the
    order its writes arrived, and two replicas can receive the same writes
    in another order (a Cassandra range scan returns rows in token order,
    the same on every replica). Each share is a JSON array, so their
    concatenation is unambiguous.
    """
    return hashlib.md5(b"".join(sorted(wire.share for wire in wires))).hexdigest()


class Row:
    """A versioned row. Greater ``timestamp`` wins on merge; a ``value`` of
    ``None`` is a tombstone (the key was deleted at ``timestamp``).

    A row is never modified once built — :meth:`Table.put` replaces it — and
    nobody mutates its ``value`` after the put, so its wire is built and
    measured once, on first use, and shared by every reply that carries it.
    """

    __slots__ = ("key", "value", "timestamp", "_wire")

    def __init__(self, key: str, value: Dict[str, object], timestamp: float) -> None:
        self.key = key
        self.value = value
        self.timestamp = timestamp
        self._wire: Optional[RowWire] = None

    def to_wire(self) -> RowWire:
        """``{"k", "v", "ts"}`` as a :class:`RowWire`: a scan reply of N rows
        then costs the RPC sizer N steps, and its digest N cached shares."""
        wire = self._wire
        if wire is None:
            wire = self._wire = RowWire(
                {"k": self.key, "v": self.value, "ts": self.timestamp}
            )
        return wire

    @classmethod
    def from_wire(cls, data: Dict[str, object]) -> "Row":
        value = data["v"]
        return cls(
            str(data["k"]),
            None if value is None else dict(value),  # type: ignore[arg-type]
            float(data["ts"]),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Row {self.key} ts={self.timestamp:.3f}>"


class Table:
    """An in-memory keyed table with last-write-wins semantics.

    A delete keeps a tombstone for the key, with the delete's timestamp: a
    put no newer than it is refused (at equal timestamps the delete wins,
    whichever arrives first). The live views — :meth:`get`, :meth:`scan`,
    ``len``, ``in``, iteration, :meth:`keys`, :meth:`items` — skip
    tombstones; :meth:`version` and :meth:`tombstones` are what a replica
    hands a coordinator. Tombstones are never purged: the tables are small
    (a row per node or group), and a safe purge would need Cassandra's
    ``gc_grace_seconds``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._rows: Dict[str, Row] = {}
        self._tombstones: Dict[str, Row] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows.values())

    def get(self, key: str) -> Optional[Row]:
        return self._rows.get(key)

    def version(self, key: str) -> Optional[Row]:
        """The key's newest version: its live row or its tombstone."""
        return self._rows.get(key) or self._tombstones.get(key)

    def put(self, key: str, value: Dict[str, object], timestamp: float) -> bool:
        """Write if ``timestamp`` is newer; returns True if applied."""
        current = self._rows.get(key)
        if current is not None:
            if current.timestamp > timestamp:
                return False
        else:
            tombstone = self._tombstones.get(key)
            if tombstone is not None:
                if tombstone.timestamp >= timestamp:
                    return False
                del self._tombstones[key]
        self._rows[key] = Row(key, value, timestamp)
        return True

    def delete(self, key: str, timestamp: float) -> bool:
        """Leave a tombstone unless a newer version is stored; returns True
        if a live row was removed."""
        current = self.version(key)
        if current is not None and current.timestamp > timestamp:
            return False
        self._tombstones[key] = Row(key, None, timestamp)  # type: ignore[arg-type]
        return self._rows.pop(key, None) is not None

    def tombstones(self) -> List[Row]:
        return list(self._tombstones.values())

    def scan(
        self,
        predicate: Optional[Callable[[Row], bool]] = None,
        limit: Optional[int] = None,
    ) -> List[Row]:
        """All live rows matching ``predicate``, up to ``limit``."""
        rows = []
        for row in self._rows.values():
            if predicate is None or predicate(row):
                rows.append(row)
                if limit is not None and len(rows) >= limit:
                    break
        return rows

    def keys(self) -> List[str]:
        return list(self._rows.keys())

    def items(self) -> List[Tuple[str, Row]]:
        return list(self._rows.items())
