"""The Registrar (§VIII-A1).

Listens for node registration requests carrying the node's id, region and
attribute-value pairs. Static attributes land in per-attribute store tables
(node ID | value | other attributes | timestamp); dynamic attributes are
handed to the DGM, which suggests p2p groups for the node to join. A
deregistration deletes the node's rows again, so neither a static query
(whose scan the store's replicas filter, see :mod:`repro.store.cluster`)
nor a recovery after a restart finds a node that has left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import RegistrationError


@dataclass
class NodeRecord:
    """The service's registration record for one node."""

    node_id: str
    region: str
    static: Dict[str, object]
    registered_at: float
    #: Dynamic values as of the last registration/suggestion (coarse view).
    last_dynamic: Dict[str, float] = field(default_factory=dict)


def static_table_name(attribute: str) -> str:
    """Store table holding one static attribute's rows (SS VIII-A1)."""
    return f"static::{attribute}"


class Registrar:
    """Registration component; owns the node registry and static tables."""

    def __init__(self, service) -> None:
        self.service = service
        self.nodes: Dict[str, NodeRecord] = {}
        #: Rows per static-attribute table; lets the router pick the
        #: smallest table for multi-attribute static queries (§VIII-A1).
        self.static_counts: Dict[str, int] = {}

    def register(self, params: Dict[str, object]) -> Dict[str, object]:
        """Process a registration request; returns group suggestions.

        Raises :class:`RegistrationError` for malformed requests. Re-registration
        of a known node id replaces its record (a node restart).
        """
        node_id = params.get("node_id")
        region = params.get("region")
        if not node_id or not isinstance(node_id, str):
            raise RegistrationError("registration needs a node_id")
        if not region or not isinstance(region, str):
            raise RegistrationError(f"node {node_id!r}: registration needs a region")
        static = dict(params.get("static") or {})
        dynamic = dict(params.get("dynamic") or {})
        schema = self.service.config.schema
        for name in dynamic:
            spec = schema.maybe_get(name)
            if spec is None or not spec.is_dynamic:
                raise RegistrationError(
                    f"node {node_id!r}: unknown dynamic attribute {name!r}"
                )

        record = NodeRecord(
            node_id=node_id,
            region=region,
            static=static,
            registered_at=self.service.sim.now,
            last_dynamic={k: float(v) for k, v in dynamic.items()},
        )
        previous = self.nodes.get(node_id)
        if previous is not None:
            for name in previous.static:
                self.static_counts[name] = self.static_counts.get(name, 1) - 1
        self.nodes[node_id] = record
        for name in static:
            self.static_counts[name] = self.static_counts.get(name, 0) + 1
        self._write_static_tables(record)
        suggestions = self.service.dgm.suggest_for_registration(record)
        self.service.metrics.counter("registrations").inc()
        return {"groups": suggestions}

    def deregister(self, node_id: str) -> None:
        record = self.nodes.pop(node_id, None)
        if record is not None:
            for name in record.static:
                self.static_counts[name] = self.static_counts.get(name, 1) - 1
            self._delete_static_tables(record)
        self.service.dgm.forget_node(node_id)
        self.service.views.forget_node(node_id)

    def get(self, node_id: str) -> Optional[NodeRecord]:
        return self.nodes.get(node_id)

    def restore_record(self, node_id: str, row_value: Dict[str, object]) -> None:
        """Rebuild one registration record from a persisted ``nodes`` row."""
        static = dict(row_value.get("static") or {})
        record = NodeRecord(
            node_id=node_id,
            region=str(row_value.get("region", "")),
            static=static,
            registered_at=float(row_value.get("registered_at", 0.0)),  # type: ignore[arg-type]
        )
        previous = self.nodes.get(node_id)
        if previous is not None:
            for name in previous.static:
                self.static_counts[name] = self.static_counts.get(name, 1) - 1
        self.nodes[node_id] = record
        for name in static:
            self.static_counts[name] = self.static_counts.get(name, 0) + 1

    # --------------------------------------------------------------- storage
    def _write_static_tables(self, record: NodeRecord) -> None:
        """Asynchronously persist static attributes, one table per attribute.

        Each row also carries all the node's other static attributes so a
        multi-attribute static query only touches one table (§VIII-A1).
        """
        store = self.service.store_client
        if store is None or not self.service.persist_statics:
            return
        for name, value in record.static.items():
            store.put(
                static_table_name(name),
                record.node_id,
                {
                    "value": value,
                    "attributes": record.static,
                    "region": record.region,
                },
            )
        store.put(
            "nodes",
            record.node_id,
            {
                "region": record.region,
                "registered_at": record.registered_at,
                # Full static attributes ride along so a restarted service
                # can rebuild the registry from this one table.
                "static": record.static,
            },
        )

    def _delete_static_tables(self, record: NodeRecord) -> None:
        """Asynchronously delete every row :meth:`_write_static_tables` wrote."""
        store = self.service.store_client
        if store is None or not self.service.persist_statics:
            return
        for name in record.static:
            store.delete(static_table_name(name), record.node_id)
        store.delete("nodes", record.node_id)
