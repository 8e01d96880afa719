"""Quorum coordinator client and cluster factory.

:class:`StoreClient` gives any RPC-capable process Cassandra-style table
operations: writes go to the key's N replicas and complete at W acks, reads
query the replicas and complete at R responses with last-write-wins
reconciliation plus read repair. :class:`StoreCluster` wires up the replica
processes across regions.

Degraded operation (how the store keeps answering through faults):

* **stale reads** — pass ``on_stale`` to :meth:`StoreClient.get` and a read
  whose quorum is unreachable falls back to the freshest reply that *did*
  arrive (flagged, counted under ``store.stale_reads``) instead of erroring;
* **hinted handoff** — a write acknowledged by too few replicas leaves a
  hint per unreachable replica; hints are replayed on a timer until the
  replica answers again (timestamped last-write-wins makes replay
  idempotent), healing the quorum after a crash-restart;
* **partial scans** — ``scan(..., allow_partial=True)`` merges whatever
  replicas answered instead of failing the whole scan.

A scan reads every replica. With a ``where`` it is Cassandra's digest read:
the replicas filter, the first in ring order (the data replica) returns its
matching rows and the others only a digest of theirs; when a digest differs
from the data rows', the coordinator reads the table again unfiltered and
filters the newest versions itself (:meth:`StoreClient.scan`).

A delete leaves a tombstone (:class:`~repro.store.table.Table`). Replicas
return tombstones on gets and unfiltered scans; both coordinator merges
count a tombstone as a version, so a newer delete beats an older live copy
and the key is absent from the answer, and read repair pushes the delete.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import QuorumError
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.store.hashring import ConsistentHashRing
from repro.store.replica import StoreReplica
from repro.store.table import Row, Term, row_matches, rows_digest


class _QuorumOp:
    """Tracks one multi-replica operation until quorum or failure."""

    def __init__(self, total: int, needed: int, on_done, on_error) -> None:
        self.total = total
        self.needed = needed
        self.on_done = on_done
        self.on_error = on_error
        self.successes: List[object] = []
        self.failures = 0
        self.finished = False

    def succeed(self, result: object) -> None:
        if self.finished:
            return
        self.successes.append(result)
        if len(self.successes) >= self.needed:
            self.finished = True
            self.on_done(self.successes)

    def fail(self) -> None:
        if self.finished:
            return
        self.failures += 1
        if self.total - self.failures < self.needed:
            self.finished = True
            if self.on_error is not None:
                self.on_error(
                    QuorumError(
                        f"quorum unreachable: {self.failures}/{self.total} failed, "
                        f"needed {self.needed}"
                    )
                )


class StoreClient:
    """Quorum read/write client bound to a host process.

    The host must provide ``call`` (see :class:`repro.sim.rpc.RpcMixin`) and a
    ``sim`` attribute for timestamps.
    """

    def __init__(
        self,
        host,
        ring: ConsistentHashRing,
        *,
        replication_factor: int = 3,
        write_quorum: int = 2,
        read_quorum: int = 2,
        timeout: float = 2.0,
        retries: int = 0,
        retry_backoff: float = 0.25,
        hinted_handoff: bool = True,
        hint_capacity: int = 512,
        hint_replay_interval: float = 5.0,
    ) -> None:
        if write_quorum > replication_factor or read_quorum > replication_factor:
            raise ValueError("quorum cannot exceed replication factor")
        self.host = host
        self.ring = ring
        self.replication_factor = replication_factor
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        self.timeout = timeout
        #: Per-replica RPC retries (exponential backoff + full jitter); safe
        #: because every mutation carries its original timestamp (LWW).
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.hinted_handoff = hinted_handoff
        self.hint_capacity = hint_capacity
        self.hint_replay_interval = hint_replay_interval
        #: Pending hints: ``(replica, method, params)``; params keep their
        #: original write timestamp so replay is idempotent.
        self.hints: List[Tuple[str, str, Dict[str, object]]] = []
        self._hint_replay_scheduled = False

    def _counter(self, name: str):
        # Lazily created so fault-free runs never grow new metrics entries.
        return self.host.network.metrics.counter(name)

    # ------------------------------------------------------- hinted handoff
    def _record_hint(self, replica: str, method: str, params: Dict[str, object]) -> None:
        """Remember a write a replica missed; replayed until it answers."""
        if not self.hinted_handoff:
            return
        if len(self.hints) >= self.hint_capacity:
            self._counter("store.hints_dropped").inc()
            return
        self.hints.append((replica, method, params))
        self._schedule_hint_replay()

    def _schedule_hint_replay(self) -> None:
        if self._hint_replay_scheduled or not self.hints:
            return
        self._hint_replay_scheduled = True
        self.host.after(self.hint_replay_interval, self._replay_hints)

    def _replay_hints(self) -> None:
        self._hint_replay_scheduled = False
        batch, self.hints = self.hints, []
        for replica, method, params in batch:
            self.host.call(
                replica,
                method,
                params,
                on_reply=lambda result: self._counter("store.hints_replayed").inc(),
                on_timeout=lambda r=replica, m=method, p=params: self._requeue_hint(
                    r, m, p
                ),
                timeout=self.timeout,
            )

    def _requeue_hint(self, replica: str, method: str, params: Dict[str, object]) -> None:
        if len(self.hints) >= self.hint_capacity:
            self._counter("store.hints_dropped").inc()
            return
        self.hints.append((replica, method, params))
        self._schedule_hint_replay()

    # ----------------------------------------------------------------- writes
    def _write(
        self,
        method: str,
        replicas: List[str],
        params: Dict[str, object],
        on_done: Optional[Callable[[], None]],
        on_error: Optional[Callable[[Exception], None]],
    ) -> None:
        op = _QuorumOp(
            len(replicas),
            min(self.write_quorum, len(replicas)),
            lambda results: on_done() if on_done is not None else None,
            on_error,
        )

        def missed(replica: str) -> None:
            # The write carries its original timestamp, so replaying it later
            # can never clobber a newer value on the recovered replica.
            self._record_hint(replica, method, params)
            op.fail()

        for replica in replicas:
            self.host.call(
                replica,
                method,
                params,
                on_reply=lambda result, op=op: op.succeed(result),
                on_timeout=lambda r=replica: missed(r),
                timeout=self.timeout,
                retries=self.retries,
                retry_backoff=self.retry_backoff,
            )

    def put(
        self,
        table: str,
        key: str,
        value: Dict[str, object],
        *,
        on_done: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        replicas = self.ring.nodes_for(key, self.replication_factor)
        if not replicas:
            raise QuorumError("store has no replicas")
        params = {"table": table, "key": key, "value": value, "ts": self.host.sim.now}
        self._write("store.put", replicas, params, on_done, on_error)

    def delete(
        self,
        table: str,
        key: str,
        *,
        on_done: Optional[Callable[[], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        replicas = self.ring.nodes_for(key, self.replication_factor)
        params = {"table": table, "key": key, "ts": self.host.sim.now}
        self._write("store.delete", replicas, params, on_done, on_error)

    # ------------------------------------------------------------------ reads
    @staticmethod
    def _newest_row(results: List[object]) -> Optional[Row]:
        """The first strictly newest reply's row, the only one decoded (a
        tombstone wins a tie and decodes with ``value`` ``None``)."""
        newest = None
        newest_ts = 0.0
        for result in results:
            wire = result.get("row") if isinstance(result, dict) else None
            if wire is None:
                continue
            ts = float(wire["ts"])
            if newest is None or ts > newest_ts or (
                ts == newest_ts and wire["v"] is None
            ):
                newest, newest_ts = wire, ts
        return Row.from_wire(newest) if newest is not None else None

    @staticmethod
    def _live(row: Optional[Row]) -> Optional[Row]:
        """``row``, or ``None`` for a tombstone: the key is absent."""
        return None if row is None or row.value is None else row

    def get(
        self,
        table: str,
        key: str,
        on_done: Callable[[Optional[Row]], None],
        *,
        on_error: Optional[Callable[[Exception], None]] = None,
        on_stale: Optional[Callable[[Optional[Row]], None]] = None,
    ) -> None:
        """Quorum read; exactly one of ``on_done``/``on_stale``/``on_error``.

        With ``on_stale`` set, a read whose quorum is unreachable degrades to
        the freshest reply that did arrive (possibly ``None``) instead of
        erroring; no read repair is attempted from a sub-quorum answer.
        """
        replicas = self.ring.nodes_for(key, self.replication_factor)
        if not replicas:
            raise QuorumError("store has no replicas")

        def reconcile(results: List[object]) -> None:
            newest = self._newest_row(results)
            if newest is not None:
                self._read_repair(table, replicas, newest)
            on_done(self._live(newest))

        op = _QuorumOp(
            len(replicas), min(self.read_quorum, len(replicas)), reconcile, on_error
        )
        if on_stale is not None:

            def degrade(error: Exception) -> None:
                self._counter("store.stale_reads").inc()
                on_stale(self._live(self._newest_row(op.successes)))

            op.on_error = degrade
        params = {"table": table, "key": key}
        for replica in replicas:
            self.host.call(
                replica,
                "store.get",
                params,
                on_reply=lambda result, op=op: op.succeed(result),
                on_timeout=op.fail,
                timeout=self.timeout,
                retries=self.retries,
                retry_backoff=self.retry_backoff,
            )

    def _read_repair(self, table: str, replicas: List[str], newest: Row) -> None:
        """Push the newest version — a put, or a tombstone's delete — back to
        all replicas (idempotent by ts)."""
        if newest.value is None:
            method = "store.delete"
            params = {"table": table, "key": newest.key, "ts": newest.timestamp}
        else:
            method = "store.put"
            params = {
                "table": table,
                "key": newest.key,
                "value": newest.value,
                "ts": newest.timestamp,
            }
        for replica in replicas:
            self.host.call(
                replica,
                method,
                params,
                on_reply=lambda result: None,
                timeout=self.timeout,
            )

    def scan(
        self,
        table: str,
        on_done: Callable[[List[Row]], None],
        *,
        where: Optional[List[Dict[str, object]]] = None,
        limit: Optional[int] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
        allow_partial: bool = False,
    ) -> None:
        """Merge rows from every replica (newest version per key wins, and a
        tombstone winner leaves the key out).

        With ``where`` (query terms in their JSON form, see
        :class:`~repro.store.table.Term`) this is a digest read. The terms
        and ``limit`` go to every replica, and each filters: it takes the
        rows whose local newest version matches, at most ``limit``. The
        first replica in ring order, the data replica, returns those rows;
        the others return only their digest
        (:func:`~repro.store.table.rows_digest`, which ignores the order a
        replica's writes arrived in). When every digest equals the data
        rows' digest, every replica took those rows at those versions, and
        they are the answer. When one differs,
        or a replica did not answer, one replica may hold a stale matching
        version of a key whose newer version elsewhere does not match (the
        hazard Cassandra's replica filtering protection closes): the
        coordinator reads the table again unfiltered and applies the terms
        to each key's newest version itself (counted under
        ``store.scan_fallbacks``). This pays off when every replica holds
        every row (replication factor = replica count, as
        :meth:`StoreCluster.client_for` sets up for three replicas); with
        more replicas the digests always differ and every filtered scan
        falls back. Without ``where`` every row and tombstone is read from
        every replica and ``limit`` trims the merge.

        ``allow_partial=True`` degrades gracefully: if any replica times out,
        whatever the others returned is merged and delivered (counted under
        ``store.partial_scans``, once per read) instead of failing the whole
        scan. A filtered scan missing a reply reads again unfiltered first,
        so its answer is the merge of the unfiltered read.
        """
        unfiltered = {"table": table, "limit": None}
        if where is None:
            self._scan_replicas(
                unfiltered,
                lambda results: on_done(self._merge(results, limit)),
                on_error,
                allow_partial,
            )
            return
        filtered = {"table": table, "where": where, "limit": limit}
        replica_count = len(self.ring)

        def settle(results: List[object]) -> None:
            rows = next((r["rows"] for r in results if "rows" in r), None)
            if rows is not None and len(results) == replica_count:
                digest = rows_digest(rows)
                if all(r.get("digest", digest) == digest for r in results):
                    on_done([Row.from_wire(wire) for wire in rows])
                    return
            self._counter("store.scan_fallbacks").inc()
            terms = [Term.from_json(term) for term in where]
            self._scan_replicas(
                unfiltered,
                lambda results: on_done(self._merge(results, limit, terms)),
                on_error,
                allow_partial,
            )

        self._scan_replicas(
            filtered, settle, on_error, allow_partial, {**filtered, "digest": True}
        )

    def _scan_replicas(
        self,
        params: Dict[str, object],
        on_results: Callable[[List[object]], None],
        on_error: Optional[Callable[[Exception], None]],
        allow_partial: bool,
        digest_params: Optional[Dict[str, object]] = None,
    ) -> None:
        """Send one ``store.scan`` to every replica (``digest_params``, when
        given, to all but the first in ring order); ``on_results`` gets the
        replies once all have answered (or, partial, once the rest failed)."""
        replicas = self.ring.nodes
        if not replicas:
            raise QuorumError("store has no replicas")
        # A full scan must cover the whole ring; require all replicas so no
        # token range is missed (our tables are small).
        op = _QuorumOp(len(replicas), len(replicas), on_results, on_error)
        if allow_partial:

            def degrade(error: Exception) -> None:
                self._counter("store.partial_scans").inc()
                on_results(list(op.successes))

            op.on_error = degrade
        for index, replica in enumerate(replicas):
            self.host.call(
                replica,
                "store.scan",
                params if index == 0 or digest_params is None else digest_params,
                on_reply=lambda result, op=op: op.succeed(result),
                on_timeout=op.fail,
                timeout=self.timeout,
                retries=self.retries,
                retry_backoff=self.retry_backoff,
            )

    @staticmethod
    def _merge(
        results: List[object],
        limit: Optional[int],
        terms: Optional[List[Term]] = None,
    ) -> List[Row]:
        """Each key's newest version, in first-seen key order, those that are
        not tombstones and match ``terms`` (when given), up to ``limit``. A
        tombstone wins a tie, as it does on a replica.

        Versions are compared on the wire; only the winners returned are
        decoded.
        """
        newest: Dict[str, Tuple[float, Dict[str, object]]] = {}
        for result in results:
            for wire in result.get("rows", ()):
                ts = float(wire["ts"])
                current = newest.get(wire["k"])
                if current is None or ts > current[0] or (
                    ts == current[0] and wire["v"] is None
                ):
                    newest[wire["k"]] = (ts, wire)
        winners = [wire for _, wire in newest.values() if wire["v"] is not None]
        if terms is not None:
            winners = [wire for wire in winners if row_matches(wire["v"], terms)]
        if limit is not None:
            winners = winners[:limit]
        return [Row.from_wire(wire) for wire in winners]


class StoreCluster:
    """Factory owning a set of replicas and the placement ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        num_replicas: int = 3,
        region: Optional[str] = None,
        name: str = "store",
    ) -> None:
        self.sim = sim
        self.network = network
        self.ring = ConsistentHashRing()
        self.replicas: List[StoreReplica] = []
        regions = [r.name for r in network.topology.regions]
        for i in range(num_replicas):
            replica_region = region if region is not None else regions[i % len(regions)]
            replica = StoreReplica(sim, network, f"{name}-replica-{i}", replica_region)
            replica.start()
            self.replicas.append(replica)
            self.ring.add_node(replica.address)

    def client_for(self, host, **kwargs) -> StoreClient:
        """Create a quorum client bound to ``host`` (an RPC-capable process)."""
        defaults = {"replication_factor": min(3, len(self.replicas))}
        quorum = defaults["replication_factor"] // 2 + 1
        defaults.update({"write_quorum": quorum, "read_quorum": quorum})
        defaults.update(kwargs)
        return StoreClient(host, self.ring, **defaults)

    def stop(self) -> None:
        for replica in self.replicas:
            replica.stop()
