"""FOCUS deployment configuration.

:class:`FocusConfig` holds the knobs a caller sets: attribute cutoffs (via
the schema), the group size cap that triggers forks, the representatives'
upload period, the server-side query timeout, the response cache switch, the
geographic split threshold, delegation, smallest-group routing, the gossip
parameters passed down to the node agents' Serf clients (fanout 4 / interval
100 ms, §VIII-B), the serving plane's shape and the overload model.

Settings that no caller varies are constants in the one module that reads
them, not fields (a test that needs another value patches the constant):

* :data:`repro.core.service.SERVER_PROCESSING_DELAY` (the ~45 ms cache path of
  Fig. 8c) and :data:`~repro.core.service.STORE_SYNC_INTERVAL`;
* :data:`repro.core.agent.GROUP_QUERY_TIMEOUT` and
  :data:`~repro.core.agent.COLLECTION_INTERVAL`;
* :data:`repro.core.dgm.REPRESENTATIVES_PER_GROUP` and
  :data:`~repro.core.dgm.TRANSITION_TTL`;
* :data:`repro.core.rest.DELEGATED_PULL_TIMEOUT`;
* the response cache's capacity, :class:`~repro.core.cache.QueryCache`'s
  default;
* the ring's virtual nodes and the replica refresh period, in
  :mod:`repro.core.shardplane`.

``tests/test_exports.py`` pins the field names of :class:`FocusConfig` and
:class:`~repro.core.admission.OverloadConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.admission import OverloadConfig
from repro.core.attributes import AttributeSchema, openstack_schema
from repro.core.naming import group_name
from repro.errors import ConfigError
from repro.gossip.agent import SerfConfig


def _default_serf_config() -> SerfConfig:
    return SerfConfig(gossip_fanout=4, gossip_interval=0.1)


@dataclass
class FocusConfig:
    """All FOCUS service and node-agent knobs in one place."""

    schema: AttributeSchema = field(default_factory=openstack_schema)
    #: Fork a group once its size estimate reaches this (§VII). The paper
    #: observes average group sizes of ~150 in the trace experiment.
    max_group_size: int = 150
    #: Representative upload period, seconds.
    report_interval: float = 5.0
    #: Server-side query abort timeout (§VIII-A3).
    query_timeout: float = 3.0
    #: Enable/disable the response cache entirely (disabled in Fig. 7c).
    cache_enabled: bool = True
    #: Split a group family per-region once its members span more than this
    #: great-circle distance (km); None disables geo splits. The paper
    #: presents geo splits as an optional capability (§VII) and its own
    #: evaluation runs groups spanning all four regions, so the default is
    #: off; ``examples/geo_split_monitoring.py`` and the DGM tests turn it on.
    geo_split_km: Optional[float] = None
    #: Under heavy load, hand the group-query fan-out to the application
    #: instead of performing it server-side (§VI "Optimizations").
    delegation_enabled: bool = False
    #: Outstanding server-side queries above which delegation kicks in.
    delegation_threshold: int = 64
    #: Route multi-constraint queries to the attribute with the fewest
    #: candidate nodes (§VI). Disabling picks the most populous attribute
    #: instead — the ablation benchmark shows what the optimisation saves.
    smallest_group_routing: bool = True
    #: Gossip configuration for node agents' per-group Serf clients.
    serf: SerfConfig = field(default_factory=_default_serf_config)
    #: §XII: per-attribute gossip fanout overrides. Groups of a listed
    #: attribute run their Serf clients at the given fanout — "when set to a
    #: high value, of great use for time-sensitive applications" at the cost
    #: of member bandwidth (see the fanout ablation).
    fanout_overrides: Dict[str, int] = field(default_factory=dict)
    #: Number of serving-plane shards. 1 (the default) keeps the legacy
    #: single ``FocusService`` — byte-identical to the pre-sharding code
    #: path. Above 1, :func:`~repro.core.shardplane.build_shard_plane`
    #: partitions the attribute/group tables over a consistent-hash ring of
    #: group-family keys and fronts them with a scatter-gather
    #: :class:`~repro.core.shardplane.ShardRouter`.
    shards: int = 1
    #: Deploy one read replica per region, answering bounded-staleness
    #: queries from a region-local cache + materialized views (CQRS reads).
    replica_reads: bool = False
    #: Model each server's query processing as a serial queue instead of
    #: infinite concurrency. Off by default so existing seeded runs keep
    #: their exact byte streams. On its own (``overload`` untouched) the
    #: service time is the fixed
    #: :data:`~repro.core.service.SERVER_PROCESSING_DELAY` — the knob the
    #: shard scale-out bench turns on to expose its saturation knee. It is
    #: also the master switch for the overload subsystem: the CPU
    #: service-time model and every admission-control defense in
    #: ``overload`` require it (enforced by :meth:`validate`).
    server_queue_enabled: bool = False
    #: CPU service-time model + overload defenses (throttling, admission
    #: queue, bulkheads, circuit breaker). Everything defaults off; see
    #: :class:`repro.core.admission.OverloadConfig`.
    overload: OverloadConfig = field(default_factory=OverloadConfig)

    def validate(self) -> None:
        """Fail fast on unknown/unused knob combinations.

        Called by :func:`repro.core.shardplane.build_shard_plane` before any
        process is built, so a config that silently does nothing (defenses
        configured but the master switch off) is an error, not a no-op.
        """
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        self.overload.validate()
        if self.overload.cpu_model_enabled and not self.server_queue_enabled:
            raise ConfigError(
                "overload.cpu_model_enabled requires server_queue_enabled=True "
                "— the serial service queue is the master switch the CPU model "
                "plugs into"
            )
        if self.overload.breaker_enabled and self.shards < 2:
            raise ConfigError(
                "overload.breaker_enabled requires shards >= 2 — the per-shard "
                "circuit breaker lives in the scatter-gather ShardRouter, which "
                "only exists for a sharded plane"
            )

    def cutoff_for(self, attribute: str) -> float:
        spec = self.schema.get(attribute)
        if spec.cutoff is None:
            raise ValueError(f"attribute {attribute!r} is static (no cutoff)")
        return spec.cutoff

    def family_of(self, attribute: str, value: float) -> str:
        """The family key of the group covering ``value``: its base group
        name, which a shard plane hashes to the family's owner."""
        return group_name(attribute, float(value), self.cutoff_for(attribute))

    def fanout_for(self, attribute: str) -> int:
        """Gossip fanout for groups of ``attribute`` (override or default)."""
        return self.fanout_overrides.get(attribute, self.serf.gossip_fanout)
