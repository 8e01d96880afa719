"""Application-side client — the REST API equivalent (§V).

:class:`FocusClient` is bound to any RPC-capable host process and issues
northbound queries. It transparently handles *delegated* responses (§VI):
when the server is overloaded it returns group candidate lists instead of
results, and the client performs the directed pull itself (those responses
never traverse — and are never cached by — the server).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.query import DecodedQueryJson, Query, match_record
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.rpc import RpcMixin

#: Timeout of each group or node pull the client makes for a delegated
#: query.
DELEGATED_PULL_TIMEOUT = 2.0


@dataclass
class QueryResponse:
    """Outcome of one FOCUS query as seen by the application."""

    matches: List[dict]
    source: str
    elapsed: float
    timed_out: bool = False
    groups_queried: int = 0
    #: Upper bound on the answer's age (0 for a live directed pull; cached
    #: and replica answers report how stale their snapshot may be).
    staleness_ms: float = 0.0
    error: Optional[str] = None
    #: Set when a shard of a sharded plane shed or throttled the query: the
    #: answer lacks those shards' matches (named in ``refused_shards``).
    partial: bool = False
    refused_shards: Tuple[str, ...] = ()

    @property
    def node_ids(self) -> List[str]:
        return [str(m["node"]) for m in self.matches]


class FocusClient:
    """Query client for one application process."""

    def __init__(self, host, focus_address: str = "focus") -> None:
        self.host = host
        self.focus_address = focus_address

    def query(
        self,
        query: Query,
        on_response: Callable[[QueryResponse], None],
        *,
        timeout: float = 10.0,
    ) -> None:
        started = self.host.sim.now

        def on_reply(result: dict) -> None:
            delegated = result.get("delegated")
            if delegated:
                self._pull_delegated(query, delegated, started, on_response)
                return
            on_response(
                QueryResponse(
                    matches=list(result.get("matches", ())),
                    source=str(result.get("source", "unknown")),
                    elapsed=self.host.sim.now - started,
                    timed_out=bool(result.get("timed_out", False)),
                    groups_queried=int(result.get("groups_queried", 0)),
                    staleness_ms=float(result.get("staleness_ms", 0.0)),
                    error=result.get("error"),
                    partial=bool(result.get("partial", False)),
                    refused_shards=tuple(result.get("refused_shards", ())),
                )
            )

        def on_timeout() -> None:
            on_response(
                QueryResponse(
                    matches=[],
                    source="timeout",
                    elapsed=self.host.sim.now - started,
                    timed_out=True,
                )
            )

        self.host.call(
            self.focus_address,
            "focus.query",
            {"query": DecodedQueryJson.of(query)},
            on_reply=on_reply,
            on_timeout=on_timeout,
            timeout=timeout,
        )

    # -------------------------------------------------------- materialized views
    def create_view(
        self,
        query: Query,
        on_done: Optional[Callable[[dict], None]] = None,
        *,
        view_id: Optional[str] = None,
    ) -> None:
        """Register a standing query as a materialized view (§XII)."""
        self.host.call(
            self.focus_address,
            "focus.create-view",
            {"query": query.to_json(), "view_id": view_id},
            on_reply=on_done if on_done is not None else lambda result: None,
        )

    def drop_view(self, view_id: str,
                  on_done: Optional[Callable[[dict], None]] = None) -> None:
        self.host.call(
            self.focus_address,
            "focus.drop-view",
            {"view_id": view_id},
            on_reply=on_done if on_done is not None else lambda result: None,
        )

    # ------------------------------------------------------------- delegation
    def _pull_delegated(
        self,
        query: Query,
        delegated: dict,
        started: float,
        on_response: Callable[[QueryResponse], None],
    ) -> None:
        """Client-side directed pull using server-provided candidates.

        As the router's pull, the answer is flagged ``timed_out`` when a
        group answered short or never answered, unless the limit was met."""
        groups = list(delegated.get("groups", ()))
        transitions = list(delegated.get("transitions", ()))
        state = {
            "pending": 0,
            "matches": {},
            "done": False,
            "short": False,
            "groups_queried": 0,
        }
        rng = self.host.sim.derive_rng(f"client/{self.host.address}/delegated")
        wire = DecodedQueryJson.of(query)

        def finish(timed_out: bool) -> None:
            if state["done"]:
                return
            state["done"] = True
            matches = list(state["matches"].values())
            if query.limit is not None:
                matches = matches[: query.limit]
            on_response(
                QueryResponse(
                    matches=matches,
                    source="delegated",
                    elapsed=self.host.sim.now - started,
                    timed_out=timed_out,
                    groups_queried=state["groups_queried"],
                )
            )

        def advance() -> None:
            if state["done"]:
                return
            if query.limit is not None and len(state["matches"]) >= query.limit:
                finish(False)
            elif state["pending"] == 0:
                finish(state["short"])

        def on_group_reply(result) -> None:
            state["pending"] -= 1
            result = result or {}
            if result.get("short"):
                state["short"] = True
            for record in result.get("matches", ()):
                state["matches"][str(record["node"])] = record
            advance()

        def on_node_reply(result) -> None:
            state["pending"] -= 1
            if result and result.get("match"):
                state["matches"][str(result["node"])] = match_record(
                    result["node"], result.get("attrs", {}), result.get("region", "")
                )
            advance()

        def on_timeout() -> None:
            state["pending"] -= 1
            advance()

        def on_group_timeout() -> None:
            state["short"] = True
            on_timeout()

        for group in groups:
            candidates = list(group.get("candidates", ()))
            if not candidates:
                continue
            member = rng.choice(candidates)
            state["pending"] += 1
            state["groups_queried"] += 1
            self.host.call(
                member,
                "node.group-query",
                {"group": group["name"], "query": wire},
                on_reply=on_group_reply,
                on_timeout=on_group_timeout,
                timeout=DELEGATED_PULL_TIMEOUT,
            )
        for node_id in transitions:
            state["pending"] += 1
            self.host.call(
                node_id,
                "node.query",
                {"query": wire},
                on_reply=on_node_reply,
                on_timeout=on_timeout,
                timeout=DELEGATED_PULL_TIMEOUT,
            )
        if state["pending"] == 0:
            finish(False)


class Application(Process, RpcMixin):
    """A minimal application process hosting a :class:`FocusClient`.

    Examples and benchmarks instantiate one of these per querying service
    (e.g. the OpenStack scheduler, the ONAP homing service).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        region: str,
        focus_address: str = "focus",
    ) -> None:
        Process.__init__(self, sim, network, address, region)
        self.init_rpc()
        self.client = FocusClient(self, focus_address)
        self.responses: List[QueryResponse] = []

    def query(
        self,
        query: Query,
        on_response: Optional[Callable[[QueryResponse], None]] = None,
    ) -> None:
        """Issue a query; responses are also collected in ``self.responses``."""

        def record(response: QueryResponse) -> None:
            self.responses.append(response)
            if on_response is not None:
                on_response(response)

        self.client.query(query, record)
