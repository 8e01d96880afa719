"""Per-layer cost ledger from one ``cProfile`` run of the steady phase.

A layer is a group of source files. A Python function's self time and calls
go to the layer of the file that defines it. Code with no file under
``repro`` (C builtins, stdlib) is charged to whoever called it: each caller
edge carries its own share of the callee's self time and calls, and a
non-``repro`` caller passes its share up its own caller edges in turn. Only
code nothing in ``repro`` called lands in ``python.other``.

Self times are split over edges by time and call counts by calls, so the
counts never depend on a timer and repeat exactly between runs.
"""

from __future__ import annotations

import cProfile
from typing import Dict, List, Optional, Tuple

#: Layer -> files under ``src/repro`` (a trailing slash covers a package).
LAYER_FILES: Dict[str, Tuple[str, ...]] = {
    "sim.events": ("sim/events.py",),
    "sim.loop": ("sim/loop.py", "sim/process.py"),
    "sim.network": ("sim/network.py", "sim/topology.py"),
    "sim.rpc": ("sim/rpc.py",),
    "sim.metrics": ("sim/metrics.py",),
    "gossip.swim": (
        "gossip/swim.py", "gossip/agent.py", "gossip/broadcast.py",
        "gossip/probe.py", "gossip/coalesce.py",
    ),
    "gossip.membership": ("gossip/membership.py", "gossip/member.py"),
    "core.agent": ("core/agent.py",),
    "core.router": (
        "core/router.py", "core/shardplane.py", "core/rest.py", "core/cache.py",
    ),
    "core.service": (
        "core/service.py", "core/dgm.py", "core/registrar.py", "core/groups.py",
        "core/query.py", "core/naming.py", "core/attributes.py", "core/views.py",
        "core/config.py",
    ),
    "core.admission": ("core/admission.py", "core/cpumodel.py"),
    "store": ("store/",),
    # Driver code running inside the timed region, this benchmark's included.
    "workloads": ("workloads/", "faults/", "harness/"),
}
OTHER = "python.other"
LAYERS: Tuple[str, ...] = tuple(LAYER_FILES) + (OTHER,)

_FILE_LAYER = {
    path: layer
    for layer, paths in LAYER_FILES.items()
    for path in paths
    if not path.endswith("/")
}
_PACKAGE_LAYER = {
    path: layer
    for layer, paths in LAYER_FILES.items()
    for path in paths
    if path.endswith("/")
}


def layer_of_file(filename: str) -> Optional[str]:
    """The layer owning ``filename``, or ``None`` for code outside the
    program (stdlib, site-packages)."""
    path = filename.replace("\\", "/")
    if "/benchmarks/focusbench/" in path:
        return "workloads"
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    relative = path[marker + len("/repro/"):]
    layer = _FILE_LAYER.get(relative)
    if layer is not None:
        return layer
    package = relative.split("/", 1)[0] + "/"
    return _PACKAGE_LAYER.get(package, OTHER)


def _own_layer(code) -> Optional[str]:
    if isinstance(code, str):  # C builtin / method descriptor
        return None
    return layer_of_file(code.co_filename)


class Ledger:
    """``self_s`` and ``calls`` per layer for one profiled steady phase."""

    def __init__(self, profile: cProfile.Profile) -> None:
        entries = profile.getstats()
        # callee -> [(caller, calls on this edge, callee self time on it)]
        self._inbound: Dict[object, List[Tuple[object, int, float]]] = {}
        for entry in entries:
            for edge in entry.calls or ():
                self._inbound.setdefault(edge.code, []).append(
                    (entry.code, edge.callcount, edge.inlinetime)
                )
        self._shares: Dict[Tuple[object, bool], Dict[str, float]] = {}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        # Sorted so float sums run in one order and counts repeat exactly.
        for entry in sorted(entries, key=lambda e: _sort_key(e.code)):
            layer = _own_layer(entry.code)
            if layer is not None:
                self.self_s[layer] += entry.inlinetime
                self.calls[layer] += entry.callcount
                continue
            for target, share in self._share(entry.code, by_time=True).items():
                self.self_s[target] += entry.inlinetime * share
            for target, share in self._share(entry.code, by_time=False).items():
                self.calls[target] += entry.callcount * share
        self.total_s = sum(self.self_s.values())
        self.total_calls = sum(self.calls.values())

    def _share(self, code, *, by_time: bool, _open=None) -> Dict[str, float]:
        """How a non-program callee's cost splits over layers (sums to 1)."""
        key = (code, by_time)
        cached = self._shares.get(key)
        if cached is not None:
            return cached
        _open = _open if _open is not None else set()
        edges = sorted(self._inbound.get(code, ()), key=lambda e: _sort_key(e[0]))
        weights = [e[2] if by_time else float(e[1]) for e in edges]
        total = sum(weights)
        if by_time and total <= 0.0:
            weights = [float(e[1]) for e in edges]
            total = sum(weights)
        share: Dict[str, float] = {}
        if total <= 0.0 or code in _open:
            share[OTHER] = 1.0
        else:
            _open.add(code)
            for (caller, _calls, _time), weight in zip(edges, weights):
                if weight <= 0.0:
                    continue
                layer = _own_layer(caller)
                if layer is not None:
                    share[layer] = share.get(layer, 0.0) + weight / total
                    continue
                upstream = self._share(caller, by_time=by_time, _open=_open)
                for target, part in upstream.items():
                    share[target] = share.get(target, 0.0) + part * weight / total
            _open.discard(code)
            self._shares[key] = share
        return share

    def rows(self, events: int) -> List[Dict[str, object]]:
        """One row per layer, largest share first."""
        rows = [
            {
                "layer": layer,
                "self_s": self.self_s[layer],
                "self_frac": self.self_s[layer] / self.total_s if self.total_s else 0.0,
                "calls_per_event": self.calls[layer] / events if events else 0.0,
            }
            for layer in LAYERS
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["layer"]))
        return rows


def _sort_key(code) -> Tuple[str, int, str]:
    if isinstance(code, str):
        return ("", 0, code)
    return (code.co_filename, code.co_firstlineno, code.co_name)


def render(rows: List[Dict[str, object]]) -> str:
    lines = [f"{'layer':<20}{'self_s':>10}{'self_frac':>11}{'calls/event':>13}"]
    for row in rows:
        lines.append(
            f"{row['layer']:<20}{row['self_s']:>10.3f}"
            f"{row['self_frac']:>11.4f}{row['calls_per_event']:>13.3f}"
        )
    return "\n".join(lines)
