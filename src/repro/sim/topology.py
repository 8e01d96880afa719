"""Geographic topology: regions, sites and distance-derived latencies.

The paper's testbed spans four EC2 regions in North America — Ohio, Canada
(Central), Oregon and California (§X-A). We model regions as points on the
globe and derive inter-region one-way latency from great-circle distance at
two-thirds the speed of light plus a fixed processing overhead, which lands
within a few milliseconds of published EC2 inter-region RTTs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

EARTH_RADIUS_KM = 6371.0
# Effective propagation speed of light in fibre, km per second.
FIBRE_KM_PER_SECOND = 200_000.0
# Fibre paths are not great circles; typical stretch factor.
PATH_STRETCH = 1.6


@dataclass(frozen=True)
class Region:
    """A geographic region hosting simulation endpoints."""

    name: str
    latitude: float
    longitude: float

    def __str__(self) -> str:
        return self.name


#: The four regions used in the paper's evaluation (Section X-A).
PAPER_REGIONS: Tuple[Region, ...] = (
    Region("us-east-2", 39.96, -83.00),  # Ohio
    Region("ca-central-1", 45.50, -73.57),  # Canada (Montreal)
    Region("us-west-2", 45.52, -122.68),  # Oregon
    Region("us-west-1", 37.35, -121.96),  # N. California
)


def geo_distance_km(a: Region, b: Region) -> float:
    """Great-circle distance between two regions in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


@dataclass(frozen=True)
class Site:
    """A deployment site (datacenter / edge location) within a region.

    FOCUS nodes inherit their site's global attributes (Section V-A), e.g. a
    host inherits its site's ``region`` attribute.
    """

    name: str
    region: Region
    attributes: Dict[str, object] = field(default_factory=dict)

    def inherited_attributes(self) -> Dict[str, object]:
        """Attributes every node in this site inherits."""
        merged = {"site": self.name, "region": self.region.name}
        merged.update(self.attributes)
        return merged


class Topology:
    """Latency model over a set of regions.

    Parameters
    ----------
    regions:
        Regions participating in the simulation. Defaults to the paper's four.
    intra_region_latency:
        One-way latency between endpoints in the same region (seconds).
    processing_overhead:
        Fixed per-hop overhead added to propagation delay (seconds).
    """

    def __init__(
        self,
        regions: Optional[Iterable[Region]] = None,
        *,
        intra_region_latency: float = 0.0005,
        processing_overhead: float = 0.0015,
    ) -> None:
        self.regions: List[Region] = list(regions) if regions is not None else list(PAPER_REGIONS)
        if not self.regions:
            raise ValueError("topology requires at least one region")
        self.intra_region_latency = intra_region_latency
        self.processing_overhead = processing_overhead
        self._latency: Dict[Tuple[str, str], float] = {}
        self._by_name: Dict[str, Region] = {r.name: r for r in self.regions}
        for a in self.regions:
            for b in self.regions:
                self._latency[(a.name, b.name)] = self._compute_latency(a, b)

    def _compute_latency(self, a: Region, b: Region) -> float:
        if a.name == b.name:
            return self.intra_region_latency
        distance = geo_distance_km(a, b) * PATH_STRETCH
        return distance / FIBRE_KM_PER_SECOND + self.processing_overhead

    def region(self, name: str) -> Region:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown region {name!r}") from None

    def latency(self, region_a: str, region_b: str) -> float:
        """One-way latency in seconds between two regions."""
        try:
            return self._latency[(region_a, region_b)]
        except KeyError:
            raise KeyError(f"unknown region pair ({region_a!r}, {region_b!r})") from None

    def latency_map(self) -> Dict[Tuple[str, str], float]:
        """The full ``(region_a, region_b) -> latency`` table.

        Exposed for per-message hot paths (the network's fan-out loop) that
        want one dict probe instead of a method call per destination. The
        table is fixed at construction; callers must treat it as read-only.
        """
        return self._latency

    def max_distance_km(self, region_names: Iterable[str]) -> float:
        """Largest pairwise distance among the given regions.

        Used by the DGM's geographic group-split rule (Section VII): a group
        spanning regions farther apart than a threshold is split per region.
        """
        names = list(region_names)
        best = 0.0
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                best = max(best, geo_distance_km(self.region(a), self.region(b)))
        return best

    def make_sites(self, per_region: int = 1, prefix: str = "site") -> List[Site]:
        """Create ``per_region`` sites in each region, round-robin named."""
        sites = []
        for region in self.regions:
            for i in range(per_region):
                sites.append(Site(f"{prefix}-{region.name}-{i}", region))
        return sites
