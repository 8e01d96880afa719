"""Vectorized SWIM membership bookkeeping.

:class:`MembershipTable` is the SWIM agent's membership view. It keeps the
per-member protocol state — alive/suspect/faulty status, incarnation
numbers, suspicion deadlines — in numpy arrays keyed by a **stable node
index** instead of a dict of :class:`~repro.gossip.member.Member` objects.
Status filtering, suspicion expiry, dead-member reclamation and stale-update
rejection become array operations; the selection views the protocol hot
paths hit every tick
(alive peers, probe-target names, gossip/sync addresses, anti-entropy
snapshots) are cached and invalidated only when membership actually changes,
so a converged group pays O(1) per tick where a dict walk would pay O(n).

Node identity is interned once in a :class:`NodeDirectory` — the stable
index allocator. Tables on one directory share the name/address/region
strings, the per-node wire sizes and the piggyback wire dicts across all
views of the same node. Who shares: every p2p agent a FOCUS
:class:`~repro.core.agent.NodeAgent` starts for a group uses that group's one
directory, owned by the simulation (``Simulator.shared``), so there is one
node universe per group per simulation — within a group a node's address and
region are a function of its id, so no table can change what another reads,
and each table's own insertion order (not the slot numbering) decides every
list it returns. A table constructed without a directory, as a hand-built
``SerfAgent`` gets, makes a private one.

A warm start fills the converged full mesh through one bulk path,
:func:`seed_converged`: the group's members are interned once and every table
takes the slot array in a handful of array operations
(:meth:`MembershipTable.seed_alive`), leaving each table exactly as one
``upsert`` per (table, peer) pair would — same records, same insertion order,
same counts (``tests/oracles/warm_start.py`` keeps that loop as the oracle).

Semantics are pinned to the dict-of-``Member`` oracle in
``tests/oracles/member_list.py`` two ways (``tests/test_gossip_membership.py``):
Hypothesis property tests drive both through random
join/suspect/refute/fault sequences, and a seeded full-protocol SWIM run must
be bit-identical — same event order, same RNG draws, same metrics — with the
oracle substituted for the table.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gossip.member import (
    RANK_BY_VALUE,
    Member,
    MemberState,
    supersedes,
)

#: Dense state codes used in the numpy arrays.
CODE_ALIVE, CODE_SUSPECT, CODE_DEAD, CODE_LEFT = 0, 1, 2, 3

CODE_BY_VALUE = {"alive": 0, "suspect": 1, "dead": 2, "left": 3}
VALUE_BY_CODE = ("alive", "suspect", "dead", "left")
STATE_BY_CODE = (
    MemberState.ALIVE,
    MemberState.SUSPECT,
    MemberState.DEAD,
    MemberState.LEFT,
)
#: Update-ordering ranks per code; dead and left tie (see member.py). The
#: tuple serves the scalar rule (``can_change``), the array the vector one
#: (``filter_superseding``).
_RANK_OF_CODE = (0, 1, 2, 2)
_RANK_BY_CODE = np.array(_RANK_OF_CODE, dtype=np.int8)
#: Keyed by enum member identity: Enum.value is a descriptor hop, this isn't.
CODE_BY_STATE = {state: CODE_BY_VALUE[state.value] for state in MemberState}

#: Wire states of a death notice.
_GONE_VALUES = (MemberState.DEAD.value, MemberState.LEFT.value)

_NEVER = np.inf


def _sample_exact(getrandbits: Callable[[int], int], n: int, k: int) -> List[int]:
    """``random.sample(range(n), k)`` inlined against raw ``getrandbits``.

    Consumes exactly the bits ``Random.sample`` would — both of CPython's
    branches: the shrinking-pool walk while an ``n``-list is smaller than a
    ``k``-set (``n <= 21``, more once ``k > 5``) and rejection against the
    already-selected indices above that — so seeded runs are bit-identical,
    without ``rng.sample``'s ``Sequence`` ABC check and Python ``_randbelow``
    call per draw, and without a sequence of addresses to hand it: the caller
    indexes its slot array. With ``k == 1`` it is ``rng.choice``'s one draw.
    The sibling of the probe walk's inlined ``_randbelow`` draw
    (``SwimAgent._next_probe_target``); ``tests/test_gossip_membership.py``
    holds both branches to ``random.sample`` on every CI interpreter.

    The gossip tick does not come here for the rejection branch:
    :meth:`MembershipTable.gossip_targets` repeats that loop inline,
    resolving each address as it draws, and calls this function for the
    pool branch only. This function stays the draw oracle the inline copy
    is tested against.
    """
    picked = [-1] * k  # -1 is never drawn, so unfilled entries match no index
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            picked[i] = pool[j]
            pool[j] = pool[m - 1]
    else:
        bits = n.bit_length()
        for i in range(k):
            j = getrandbits(bits)
            # k is a fan-out (a handful): a list probe beats building a set.
            while j >= n or j in picked:
                j = getrandbits(bits)
            picked[i] = j
    return picked


class MemberWire(dict):
    """An interned member update: the ``{n, a, r, i, s}`` wire of one
    ``(node, incarnation, state)``, built once per directory by
    :meth:`NodeDirectory.wire_for` and never mutated.

    Every agent that gossips that fact queues this same object, so epidemic
    dissemination hands each member the same wire tens of times. ``slot`` is
    the node's slot in the directory that built it: a table that rejected the
    wire remembers it under that slot (:attr:`MembershipTable.rejected`), and
    the update loop turns a re-delivery away with one identity test — the
    member-wire twin of :class:`~repro.gossip.broadcast.SizedWire`'s ``id``.
    """

    __slots__ = ("slot",)

    def __init__(self, fields: Dict[str, object], slot: int) -> None:
        super().__init__(fields)
        self.slot = slot


class NodeDirectory:
    """Global node universe: one stable index (*slot*) per node name.

    The directory interns everything about a node that is identical across
    every agent's view of it — name, address, region, estimated wire size,
    and the piggyback wire dicts for each ``(incarnation, state)`` the node
    has been seen in — so a 6400-agent simulation stores each of these once
    instead of once per agent. "Global" is per gossip group: the agents of
    one group share one directory (see the module docstring).
    """

    def __init__(self) -> None:
        self._slot_of: Dict[str, int] = {}
        self.names: List[str] = []
        self.addresses: List[str] = []
        self.regions: List[str] = []
        self.region_ids: List[int] = []
        self._region_id_of: Dict[str, int] = {}
        self.region_names: List[str] = []
        self._wire_sizes: List[int] = []
        #: Per-slot interned wires keyed by (incarnation, state code).
        self._wires: List[Dict[Tuple[int, int], MemberWire]] = []
        # Object-array mirrors of names/addresses for vectorized view
        # rebuilds (fancy-index + tolist beats a Python listcomp ~10x at
        # 6400 slots). Built lazily, dropped whenever identity changes.
        self._names_np: Optional[np.ndarray] = None
        self._addrs_np: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.names)

    def slot_of(self, name: str) -> Optional[int]:
        return self._slot_of.get(name)

    def region_id(self, region: str) -> int:
        rid = self._region_id_of.get(region)
        if rid is None:
            rid = len(self.region_names)
            self._region_id_of[region] = rid
            self.region_names.append(region)
        return rid

    def intern(self, name: str, address: str, region: str) -> int:
        """Return ``name``'s stable slot, allocating one on first sight."""
        slot = self._slot_of.get(name)
        if slot is None:
            slot = len(self.names)
            self._slot_of[name] = slot
            self.names.append(name)
            self.addresses.append(address)
            self.regions.append(region)
            self.region_ids.append(self.region_id(region))
            self._wire_sizes.append(48 + len(name) + len(address) + len(region))
            self._wires.append({})
            self._names_np = None
            self._addrs_np = None
            return slot
        if self.addresses[slot] != address or self.regions[slot] != region:
            # A node re-registered under a new address/region: refresh the
            # interned identity and drop the now-stale wire dicts.
            self.addresses[slot] = address
            self.regions[slot] = region
            self.region_ids[slot] = self.region_id(region)
            self._wire_sizes[slot] = 48 + len(name) + len(address) + len(region)
            self._wires[slot] = {}
            self._names_np = None
            self._addrs_np = None
        return slot

    def name_array(self) -> np.ndarray:
        """Object-array view of :attr:`names` (lazily mirrored)."""
        if self._names_np is None or len(self._names_np) != len(self.names):
            self._names_np = np.array(self.names, dtype=object)
        return self._names_np

    def address_array(self) -> np.ndarray:
        """Object-array view of :attr:`addresses` (lazily mirrored)."""
        if self._addrs_np is None or len(self._addrs_np) != len(self.addresses):
            self._addrs_np = np.array(self.addresses, dtype=object)
        return self._addrs_np

    def wire_size(self, slot: int) -> int:
        return self._wire_sizes[slot]

    def wire_for(self, slot: int, incarnation: int, code: int) -> MemberWire:
        """Interned member wire for one ``(node, incarnation, state)``.

        The one source of the member wires agents gossip and snapshot:
        shared across every agent that carries that node state, and —
        because a changed state allocates a *new* wire rather than mutating
        the old one — safe to reference from in-flight messages.
        """
        cache = self._wires[slot]
        wire = cache.get((incarnation, code))
        if wire is None:
            wire = MemberWire(
                {
                    "n": self.names[slot],
                    "a": self.addresses[slot],
                    "r": self.regions[slot],
                    "i": incarnation,
                    "s": VALUE_BY_CODE[code],
                },
                slot,
            )
            cache[(incarnation, code)] = wire
        return wire


class MembershipTable:
    """One agent's membership view, vectorized.

    A dict-like API (``get`` / ``apply`` / ``upsert`` / ``alive`` /
    snapshots / the selection helpers) with the record state held in numpy
    arrays indexed by the shared :class:`NodeDirectory` slot.
    :class:`Member` objects are materialized on demand as *views* — nothing
    retains them, so an N-agent full-mesh simulation holds N arrays instead
    of N^2 member objects. The directory may be shared with other tables (one
    per group per simulation in the FOCUS stack) and so may hold slots this
    table has never met, past the end of its arrays: every reader treats such
    a slot as unknown.

    The stale-update rule lives here, once per shape: :meth:`can_change`
    answers "can this wire change my view?" for one wire (what the agent asks
    of every piggybacked member update and of every probe's sender record),
    :meth:`filter_superseding` answers it for an anti-entropy batch in one
    array pass. Each is the other's test oracle. Nearly every member wire an
    agent hears is a re-delivery of an interned :class:`MemberWire` it has
    already turned away, so :meth:`can_change` remembers each such wire in
    :attr:`rejected` and the agent's update loop rejects its next delivery by
    identity, without the call.

    Ordering contract (load-bearing for seeded-run equivalence): every list
    this table returns — alive members, probe-target names, gossip/sync/relay
    addresses, snapshots — is in *insertion order*, exactly like iterating
    a dict keyed by name. Removal followed by re-insertion moves a node to
    the end, like a dict re-insert.
    """

    def __init__(
        self, self_name: str, directory: Optional[NodeDirectory] = None
    ) -> None:
        self.self_name = self_name
        self.directory = directory if directory is not None else NodeDirectory()
        capacity = max(64, len(self.directory))
        self._known = np.zeros(capacity, dtype=bool)
        self._state = np.zeros(capacity, dtype=np.int8)
        self._inc = np.zeros(capacity, dtype=np.int64)
        self._state_time = np.zeros(capacity, dtype=np.float64)
        self._deadline = np.full(capacity, _NEVER, dtype=np.float64)
        #: pos[slot] == index of the slot's live entry in _order, else -1.
        self._pos = np.full(capacity, -1, dtype=np.int64)
        # Insertion order as a C int64 buffer, not a Python list: a list of
        # N distinct ints per table is N heap objects plus N GC-tracked refs,
        # which at 6400 nodes is ~41M of each across the population — the
        # cyclic collector then rescans all of it on every gen2 pass. The
        # array is opaque to the GC and mirrors into numpy via one memcpy.
        self._order = array("q")
        self._order_arr: Optional[np.ndarray] = None  # numpy mirror of _order
        self._count = 0
        self._alive_count = 0
        self._self_slot = -1
        # Deadlines set for names with no live record yet; they must
        # survive until insertion.
        self._pending_deadline: Dict[str, float] = {}
        # Lazily rebuilt views; None means dirty. The base view is the
        # int64 array of alive slots; the name/address lists derive from it
        # independently so a path that never asks for one never builds it.
        self._alive_cache: Optional[np.ndarray] = None  # alive slots, in order
        self._alive_excl: Optional[np.ndarray] = None  # ... minus self
        # Set with _alive_excl: when that view is the directory's slots
        # 0..n in order but for one, the missing slot's position (n if none
        # is missing), so view[j] == j + (j >= gap); else -1.
        self._alive_excl_gap = -1
        self._snapshot: Optional[List[Dict[str, object]]] = None
        self._snapshot_size: Optional[int] = None
        #: slot -> the last interned wire :meth:`can_change` rejected about
        #: that slot's node, dropped whenever the slot's record changes: while
        #: an entry stands, a re-delivery of that same object is stale by
        #: construction. A sparse dict filled on rejection, not a per-slot
        #: array — most tables reject wires about few of their peers.
        self.rejected: Dict[int, MemberWire] = {}

    # ------------------------------------------------------------- invariants
    def _grow(self, slot: int) -> None:
        capacity = len(self._known)
        if slot >= capacity:
            self._resize(max(capacity * 2, slot + 1))

    def _resize(self, new: int) -> None:
        capacity = len(self._known)
        for attr, fill in (
            ("_known", False),
            ("_state", 0),
            ("_inc", 0),
            ("_state_time", 0.0),
            ("_deadline", _NEVER),
            ("_pos", -1),
        ):
            old = getattr(self, attr)
            grown = np.full(new, fill, dtype=old.dtype)
            grown[:capacity] = old
            setattr(self, attr, grown)

    def _invalidate(self, *, alive_changed: bool) -> None:
        if self._snapshot is not None or self._snapshot_size is not None:
            self._snapshot = None
            self._snapshot_size = None
        if alive_changed and self._alive_cache is not None:
            self._alive_cache = None
            self._alive_excl = None

    def _order_np(self, order: "array") -> np.ndarray:
        """Numpy mirror of ``_order``; rebuilt only when the buffer grew.

        ``tobytes`` + ``frombuffer`` is one memcpy (vs. an O(n) Python-level
        ``fromiter`` loop). A zero-copy ``frombuffer(order)`` view would be
        cheaper still, but a live buffer export makes ``array.append`` raise
        ``BufferError``, so the mirror must own its bytes.
        """
        mirror = self._order_arr
        if mirror is None or len(mirror) != len(order):
            mirror = np.frombuffer(order.tobytes(), dtype=np.int64)
            self._order_arr = mirror
        return mirror

    def _live_arr(self) -> np.ndarray:
        """Known slots in insertion order (compacts ``_order`` when stale)."""
        order = self._order
        arr = self._order_np(order)
        if len(order) == self._count:
            return arr
        live = self._pos[arr] == np.arange(len(order))
        kept = arr[live]
        if len(order) > 2 * self._count + 64:
            compacted = array("q")
            compacted.frombytes(kept.tobytes())
            self._order = compacted
            self._order_arr = kept
            self._pos[kept] = np.arange(len(kept))
        return kept

    def _live_slots(self) -> Sequence[int]:
        """Iterable twin of :meth:`_live_arr` for the Member-view paths."""
        if len(self._order) == self._count:
            return self._order
        return self._live_arr().tolist()

    _VECTOR_MIN = 64

    def prewarm(self) -> None:
        """Materialize the lazy numpy views (order mirror, alive caches).

        Agents call this at start so the first in-run probe or gossip tick
        doesn't pay the one-time O(population) view construction inside a
        measured region. Pure caching — the run is byte-identical with or
        without it.
        """
        self._alive_excl_arr()

    def _alive_arr(self) -> np.ndarray:
        """Alive slots in insertion order (int64; the base cached view)."""
        if self._alive_cache is None:
            arr = self._live_arr()
            if len(arr):
                arr = arr[self._state[arr] == CODE_ALIVE]
            self._alive_cache = arr
        return self._alive_cache

    def _alive_excl_arr(self) -> np.ndarray:
        if self._alive_excl is None:
            arr = self._alive_arr()
            arr = arr[arr != self._self_slot] if len(arr) else arr
            gap = -1
            # Strictly rising slots, the last at most n: at most one is
            # missing from 0..n (a warm-started table's own).
            if len(arr) and arr[-1] <= len(arr) and (arr[1:] > arr[:-1]).all():
                gap = int(np.count_nonzero(arr == np.arange(len(arr))))
            self._alive_excl = arr
            self._alive_excl_gap = gap
        return self._alive_excl

    def _take_names(self, arr: np.ndarray) -> List[str]:
        if len(arr) >= self._VECTOR_MIN:
            return self.directory.name_array()[arr].tolist()
        names = self.directory.names
        return [names[s] for s in arr.tolist()]

    # ------------------------------------------------------------- dict-like
    def __contains__(self, name: str) -> bool:
        slot = self.directory.slot_of(name)
        return (
            slot is not None and slot < len(self._known) and bool(self._known[slot])
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Member]:
        return iter([self._view(slot) for slot in self._live_slots()])

    def _view(self, slot: int) -> Member:
        directory = self.directory
        return Member(
            directory.names[slot],
            directory.addresses[slot],
            directory.regions[slot],
            incarnation=int(self._inc[slot]),
            state=STATE_BY_CODE[self._state[slot]],
            state_time=float(self._state_time[slot]),
        )

    def get(self, name: str) -> Optional[Member]:
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return None
        return self._view(slot)

    def peek(self, name: str) -> Optional[Tuple[int, str]]:
        """O(1) ``(incarnation, state value)`` without building a Member."""
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return None
        return int(self._inc[slot]), VALUE_BY_CODE[self._state[slot]]

    def alive_address(self, name: str) -> Optional[str]:
        """``name``'s address if this view holds it alive, else ``None``."""
        slot = self.directory._slot_of.get(name)
        if (
            slot is None
            or slot >= len(self._known)
            or not self._known[slot]
            or self._state[slot] != CODE_ALIVE
        ):
            return None
        return self.directory.addresses[slot]

    # ---------------------------------------------------------------- writes
    def _write(self, slot: int, code: int, inc: int, state_time: float) -> None:
        was_known = self._known[slot]
        was_alive = was_known and self._state[slot] == CODE_ALIVE
        is_alive = code == CODE_ALIVE
        if not was_known:
            self._known[slot] = True
            self._count += 1
            self._pos[slot] = len(self._order)
            self._order.append(slot)
        self._state[slot] = code
        self._inc[slot] = inc
        self._state_time[slot] = state_time
        self.rejected.pop(slot, None)
        if was_alive != is_alive:
            self._alive_count += 1 if is_alive else -1
        self._invalidate(alive_changed=(was_alive != is_alive) or not was_known)

    def upsert(self, member: Member) -> None:
        """Insert or unconditionally replace a member record."""
        slot = self.directory.intern(member.name, member.address, member.region)
        if slot >= len(self._known):
            self._grow(slot)
        if member.name == self.self_name:
            self._self_slot = slot
        self._write(
            slot,
            CODE_BY_STATE[member.state],
            member.incarnation,
            member.state_time,
        )
        self._absorb_pending_deadline(member.name, slot)

    def _absorb_pending_deadline(self, name: str, slot: int) -> None:
        if self._pending_deadline:
            deadline = self._pending_deadline.pop(name, None)
            if deadline is not None:
                self._deadline[slot] = deadline

    def seed_alive(self, slots: np.ndarray, state_time: float) -> None:
        """Bulk ``upsert``: learn every slot in ``slots`` except this table's
        own as alive at incarnation 0 since ``state_time``.

        Leaves the table exactly as ``upsert(Member(name, address, region,
        incarnation=0, state=ALIVE, state_time=state_time))`` over the same
        slots in the same order would: slots new to the table are appended to
        the insertion order in the order given, slots it already knows are
        overwritten where they stand, and pending suspicion deadlines are
        absorbed. ``slots`` are distinct slots of this table's directory
        (:func:`seed_converged` makes them).
        """
        own = self.directory.slot_of(self.self_name)
        if own is not None:
            slots = slots[slots != own]
        if not len(slots):
            return
        if len(self.directory) > len(self._known):
            # Sized to the directory, not doubled: a warm start knows its
            # whole group up front.
            self._resize(len(self.directory))
        known = self._known[slots]
        fresh = slots[~known]
        self._alive_count += len(slots) - int(
            (known & (self._state[slots] == CODE_ALIVE)).sum()
        )
        self._pos[fresh] = np.arange(len(self._order), len(self._order) + len(fresh))
        self._order.frombytes(fresh.tobytes())
        self._count += len(fresh)
        self._known[slots] = True
        self._state[slots] = CODE_ALIVE
        self._inc[slots] = 0
        self._state_time[slots] = state_time
        # Records rewritten in bulk: forget every rejection (a warm start
        # has made none yet).
        self.rejected.clear()
        if self._pending_deadline:
            names = self.directory.names
            for slot in slots.tolist():
                self._absorb_pending_deadline(names[slot], slot)
        self._invalidate(alive_changed=True)

    def remove(self, name: str) -> None:
        if self._pending_deadline:
            self._pending_deadline.pop(name, None)
        slot = self.directory.slot_of(name)
        if slot is None or slot >= len(self._known) or not self._known[slot]:
            return
        self._known[slot] = False
        self._pos[slot] = -1
        self._deadline[slot] = _NEVER
        self.rejected.pop(slot, None)
        self._count -= 1
        if self._state[slot] == CODE_ALIVE:
            self._alive_count -= 1
        self._invalidate(alive_changed=True)

    def apply(self, update: Member) -> bool:
        """Apply ``update`` if it supersedes the current record.

        Returns True if the view changed (the caller should re-broadcast).
        """
        directory = self.directory
        slot = directory.slot_of(update.name)
        known = (
            slot is not None and slot < len(self._known) and self._known[slot]
        )
        if known and not supersedes(
            update.state,
            update.incarnation,
            STATE_BY_CODE[self._state[slot]],
            int(self._inc[slot]),
        ):
            # Stale: reject *before* interning, so a stale update carrying a
            # different address/region cannot refresh the shared identity.
            return False
        slot = directory.intern(update.name, update.address, update.region)
        if slot >= len(self._known):
            self._grow(slot)
        if update.name == self.self_name:
            self._self_slot = slot
        self._write(slot, CODE_BY_STATE[update.state], update.incarnation, update.state_time)
        self._absorb_pending_deadline(update.name, slot)
        return True

    # -------------------------------------------------------------- views
    @property
    def alive_count(self) -> int:
        """Number of alive members, maintained incrementally (O(1))."""
        return self._alive_count

    def alive(self, *, exclude_self: bool = False) -> List[Member]:
        arr = self._alive_excl_arr() if exclude_self else self._alive_arr()
        return [self._view(s) for s in arr.tolist()]

    def alive_names(self, *, exclude_self: bool = False) -> List[str]:
        # Always a fresh list the caller may own: holding materialized name
        # lists per agent is what the GC then has to scan every gen2 pass.
        arr = self._alive_excl_arr() if exclude_self else self._alive_arr()
        return self._take_names(arr)

    def suspects(self) -> List[Member]:
        arr = self._live_arr()
        if not len(arr):
            return []
        return [self._view(s) for s in arr[self._state[arr] == CODE_SUSPECT].tolist()]

    # --------------------------------------------------- selection hot paths
    def _draw_addresses(
        self, rng: random.Random, arr: np.ndarray, k: int
    ) -> List[str]:
        """Addresses of ``k`` slots of ``arr``, drawn as ``rng.sample`` over
        the addresses would draw them (:func:`_sample_exact`)."""
        addresses = self.directory.addresses
        picked = _sample_exact(rng.getrandbits, len(arr), k)
        return [addresses[arr.item(j)] for j in picked]

    def gossip_targets(self, rng: random.Random, max_fanout: int) -> List[str]:
        """Addresses of up to ``max_fanout`` random alive peers.

        Exactly the draws of one ``rng.sample`` over the insertion-ordered
        alive view's addresses, made in this one frame, as it runs on every
        gossip tick. A fan-out of at most 5 over more than 21 peers —
        ``random.sample``'s rejection branch, the steady state of every
        group — is :func:`_sample_exact`'s rejection loop inlined: the same
        ``getrandbits`` calls in the same order, each address taken as its
        index is drawn. Smaller views and larger fan-outs walk the pool in
        :func:`_sample_exact`.

        The view is the cached alive array. In a warm-started group it is
        the directory's slots in order but for this table's own, and a drawn
        index maps to its slot by arithmetic (``_alive_excl_gap``), so
        ``directory.addresses`` is read directly; else through
        ``arr.item``. Neither keeps a list per table: that would be N² refs
        across a full mesh.
        """
        view = self._alive_excl
        if view is None:
            view = self._alive_excl_arr()
        count = len(view)
        if not count:
            return []
        gap = self._alive_excl_gap
        addresses = self.directory.addresses
        k = max_fanout if max_fanout < count else count
        if k > 5 or count <= 21:
            return [
                addresses[j + (j >= gap) if gap >= 0 else view.item(j)]
                for j in _sample_exact(rng.getrandbits, count, k)
            ]
        getrandbits = rng.getrandbits
        bits = count.bit_length()
        picked = [-1] * k
        targets = [None] * k
        for i in range(k):
            j = getrandbits(bits)
            while j >= count or j in picked:
                j = getrandbits(bits)
            picked[i] = j
            targets[i] = addresses[j + (j >= gap) if gap >= 0 else view.item(j)]
        return targets

    def sync_peer(self, rng: random.Random) -> Optional[str]:
        """Address of one random alive peer for push-pull anti-entropy
        (the one draw of ``rng.choice`` over the alive view)."""
        arr = self._alive_excl_arr()
        if not len(arr):
            return None
        return self._draw_addresses(rng, arr, 1)[0]

    def relay_sample(
        self, rng: random.Random, count: int, exclude_name: str
    ) -> List[str]:
        """Addresses of up to ``count`` relays for an indirect probe."""
        arr = self._alive_excl_arr()
        if len(arr):
            excluded = self.directory.slot_of(exclude_name)
            if excluded is not None:
                arr = arr[arr != excluded]
        if not len(arr):
            return []
        return self._draw_addresses(rng, arr, min(count, len(arr)))

    # ------------------------------------------------------- the stale rule
    def wire_of(self, member: Member) -> MemberWire:
        """The interned wire of ``member``'s ``(incarnation, state)``: what
        the agent gossips, so every agent queues the same object."""
        directory = self.directory
        slot = directory.intern(member.name, member.address, member.region)
        return directory.wire_for(
            slot, member.incarnation, CODE_BY_STATE[member.state]
        )

    def can_change(self, wire: Dict[str, object]) -> bool:
        """Whether the member update ``wire`` can change this view.

        The SWIM ordering rule, for one wire: about a member this view does
        not hold, anything but a death notice can (a ``dead``/``left`` for a
        node we never knew is garbage — applying it would resurrect reclaimed
        tombstones forever via anti-entropy merges); about this table's own
        member, anything can (the agent decides whether to refute); otherwise
        a higher incarnation can, and at equal incarnation a higher rank
        (dead/left > suspect > alive, dead and left tying). A slot past this
        table's arrays — a node only other tables on the directory have met —
        is a member this view does not hold. No object is built and nothing
        is interned. A rejected :class:`MemberWire` is remembered in
        :attr:`rejected` under its node's slot here, so the update loop turns
        its re-deliveries away by identity and this call runs about once per
        fact per table, not once per delivery; a plain-dict wire (a probe's
        sender record, a hand-built update) is judged afresh every time.
        :meth:`filter_superseding` is the same rule over a batch.
        """
        slot = self.directory._slot_of.get(wire["n"])
        if slot is None:
            return wire["s"] not in _GONE_VALUES
        if slot >= len(self._known) or not self._known[slot]:
            changes = wire["s"] not in _GONE_VALUES
        elif slot == self._self_slot:
            return True
        else:
            incarnation = wire["i"]
            held = self._inc.item(slot)
            if incarnation != held:
                changes = incarnation > held
            else:
                changes = RANK_BY_VALUE[wire["s"]] > _RANK_OF_CODE[self._state[slot]]
        if not changes and type(wire) is MemberWire:
            # Keyed by this directory's slot for the name, so a wire interned
            # by another directory can never be matched under a wrong slot.
            self.rejected[slot] = wire
        return changes

    def filter_superseding(
        self, updates: Sequence[Dict[str, object]]
    ) -> Sequence[Dict[str, object]]:
        """Drop updates that cannot change this view, in one array pass.

        Exactly :meth:`can_change` (incarnation dominates; at equal
        incarnation dead/left > suspect > alive; updates about *self* and
        about unknown-but-living members are always kept), evaluated with
        numpy over the whole batch. Falls back to returning the batch
        untouched when it is small, contains non-membership payloads, or
        mentions the same member twice (the sequential loop must then see
        intermediate states).
        """
        n = len(updates)
        if n < 16:
            return updates
        try:
            names = [w["n"] for w in updates]
            incs = np.fromiter((w["i"] for w in updates), np.int64, count=n)
            codes = np.fromiter(
                (CODE_BY_VALUE[w["s"]] for w in updates), np.int8, count=n
            )
        except (KeyError, TypeError):
            return updates  # custom (non-membership) payloads in the batch
        if len(set(names)) != n:
            return updates
        slot_of = self.directory._slot_of
        slots = np.fromiter(
            (slot_of.get(name, -1) for name in names), np.int64, count=n
        )
        # A shared directory can hold slots past this table's capacity (a
        # node only other tables have met): those are unknown here, whatever
        # the member at the clipped index happens to be.
        in_table = (slots >= 0) & (slots < len(self._known))
        bounded = np.where(in_table, slots, 0)
        known = in_table & self._known[bounded]
        prev_inc = self._inc[bounded]
        prev_rank = _RANK_BY_CODE[self._state[bounded]]
        rank = _RANK_BY_CODE[codes]
        stale_known = known & (
            (incs < prev_inc) | ((incs == prev_inc) & (rank <= prev_rank))
        )
        dead_unknown = ~known & (codes >= CODE_DEAD)
        keep = ~(stale_known | dead_unknown)
        if self._self_slot >= 0:
            keep |= known & (slots == self._self_slot)
        if keep.all():
            return updates
        return [w for w, k in zip(updates, keep.tolist()) if k]

    def expire_dead(self, cutoff: float) -> int:
        """Reclaim dead/left records older than ``cutoff``; returns count."""
        arr = self._live_arr()
        if not len(arr):
            return 0
        stale = arr[
            (self._state[arr] >= CODE_DEAD) & (self._state_time[arr] < cutoff)
        ].tolist()
        names = self.directory.names
        for slot in stale:
            self.remove(names[slot])
        return len(stale)

    # ------------------------------------------------------------- suspicion
    def set_suspicion_deadline(self, name: str, deadline: float) -> None:
        slot = self.directory.slot_of(name)
        if slot is not None and slot < len(self._known) and self._known[slot]:
            self._deadline[slot] = deadline
        else:
            self._pending_deadline[name] = deadline

    def due_suspects(self, now: float) -> List[str]:
        """Names of suspects whose suspicion deadline has passed."""
        arr = self._live_arr()
        if not len(arr):
            return []
        due = arr[
            (self._state[arr] == CODE_SUSPECT) & (self._deadline[arr] <= now)
        ].tolist()
        names = self.directory.names
        return [names[s] for s in due]

    # ---------------------------------------------------------------- regions
    def region_mask(self, region: str) -> np.ndarray:
        """Known-member bitmap for one region (indexed by directory slot)."""
        rid = self.directory._region_id_of.get(region)
        mask = self._known.copy()
        if rid is None:
            mask[:] = False
            return mask
        # The directory can be shorter than the table (spare capacity) or
        # longer (slots only other tables on it have met).
        ids = np.fromiter(
            self.directory.region_ids, dtype=np.int64, count=len(self.directory)
        )[: len(mask)]
        mask[: len(ids)] &= ids == rid
        mask[len(ids):] = False
        return mask

    def region_alive_counts(self) -> Dict[str, int]:
        """Alive members per region, one vectorized pass."""
        arr = self._alive_arr()
        region_ids = self.directory.region_ids
        counts: Dict[str, int] = {}
        if len(arr):
            ids = np.fromiter(region_ids, dtype=np.int64, count=len(region_ids))
            got = np.bincount(ids[arr], minlength=len(self.directory.region_names))
            for rid, count in enumerate(got.tolist()):
                if count:
                    counts[self.directory.region_names[rid]] = count
        return counts

    # --------------------------------------------------------------- snapshot
    def snapshot_wire(self) -> List[Dict[str, object]]:
        """Full state for push-pull sync; cached until membership changes."""
        if self._snapshot is None:
            directory = self.directory
            inc = self._inc
            state = self._state
            self._snapshot = [
                directory.wire_for(slot, int(inc[slot]), state[slot])
                for slot in self._live_slots()
            ]
        return self._snapshot

    def snapshot_size(self) -> int:
        """Estimated wire size of :meth:`snapshot_wire`; cached likewise."""
        if self._snapshot_size is None:
            arr = self._live_arr()
            sizes = np.fromiter(
                self.directory._wire_sizes,
                dtype=np.int64,
                count=len(self.directory),
            )
            self._snapshot_size = int(2 + (sizes[arr] + 1).sum()) if len(arr) else 2
        return self._snapshot_size


def seed_converged(
    tables: Sequence[MembershipTable],
    identities: Sequence[Tuple[str, str, str]],
    state_time: float,
) -> None:
    """Warm-start one group: every table learns every peer, in bulk.

    ``identities`` are the group's ``(name, address, region)`` triples and
    ``tables`` the members' views, all on one :class:`NodeDirectory`. Each
    identity is interned once for the whole group, and each table then takes
    the slot array through :meth:`MembershipTable.seed_alive` — the converged
    full mesh for N interns and N array passes where an ``upsert`` per
    (table, peer) pair costs N² of each, with every table left exactly as
    that loop would leave it.
    """
    if not tables:
        return
    directory = tables[0].directory
    assert all(table.directory is directory for table in tables), (
        "bulk seeding indexes every table by one directory's slots"
    )
    slots = np.fromiter(
        (directory.intern(*identity) for identity in identities),
        np.int64,
        count=len(identities),
    )
    assert len(set(slots.tolist())) == len(slots), "a member is listed twice"
    for table in tables:
        table.seed_alive(slots, state_time)
