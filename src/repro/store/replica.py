"""A storage replica process.

Serves get/put/delete/scan RPCs over its local tables. Placement and quorum
logic live in the coordinator (:mod:`repro.store.cluster`); the replica is
deliberately dumb, like a Cassandra storage node from the coordinator's
perspective. A scan may carry a ``where`` (query terms in their JSON form)
and a ``limit``: the replica then returns only the rows whose local newest
version matches every term, at most ``limit`` of them. With ``"digest":
true`` as well it returns, in place of those rows, only their digest
(:func:`~repro.store.table.rows_digest`, an MD5 over each row's key,
timestamp and value), as a Cassandra replica answers a digest read. It
cannot know whether another replica holds a newer version; the coordinator
does. A get and an unfiltered scan also return the replica's tombstones
(deleted keys with the delete's timestamp), so the coordinator's
newest-version merge sees a delete that another replica missed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rpc import RpcMixin
from repro.store.table import Row, Table, Term, row_matches, rows_digest


class StoreReplica(Process, RpcMixin):
    """One replica node holding a shard of every table."""

    def __init__(self, sim: Simulator, network: Network, address: str, region: str) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()
        # Coordinators may retransmit writes (retries / hinted handoff);
        # answer duplicates from the reply cache instead of re-executing.
        self.enable_rpc_idempotency()
        self.tables: Dict[str, Table] = {}
        self.serve("store.get", self._rpc_get)
        self.serve("store.put", self._rpc_put)
        self.serve("store.delete", self._rpc_delete)
        self.serve("store.scan", self._rpc_scan)

    def table(self, name: str) -> Table:
        if name not in self.tables:
            self.tables[name] = Table(name)
        return self.tables[name]

    def wipe(self) -> None:
        """Discard all local state (models a crash that loses the disk).

        The replica relies on read repair and hinted handoff from
        coordinators to be repopulated after :meth:`restart`.
        """
        self.tables.clear()
        if self._rpc_reply_cache is not None:
            self._rpc_reply_cache.clear()

    # ------------------------------------------------------------------ RPCs
    def _rpc_get(self, params, respond, message):
        table = self.tables.get(params["table"])
        row: Optional[Row] = table.version(params["key"]) if table is not None else None
        return {"row": row.to_wire() if row is not None else None}

    def _rpc_put(self, params, respond, message):
        applied = self.table(params["table"]).put(
            params["key"], params["value"], params["ts"]
        )
        return {"ok": True, "applied": applied}

    def _rpc_delete(self, params, respond, message):
        applied = self.table(params["table"]).delete(params["key"], params["ts"])
        return {"ok": True, "applied": applied}

    def _rpc_scan(self, params, respond, message):
        table = self.tables.get(params["table"])
        if table is None:
            table = Table(params["table"])  # answers as an empty table
        where = params.get("where")
        predicate = None
        if where is not None:
            terms = [Term.from_json(term) for term in where]

            def predicate(row: Row) -> bool:
                return row_matches(row.value, terms)

        rows = table.scan(predicate, params.get("limit"))
        if where is None:
            rows += table.tombstones()
        elif params.get("digest"):
            return {"digest": rows_digest(row.to_wire() for row in rows)}
        return {"rows": [row.to_wire() for row in rows]}
