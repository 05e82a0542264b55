"""The scheduling view: delta-maintained numpy columns over one cluster.

The paper's cluster runs tens of thousands of jobs over thousands of GPUs
with a scheduler triggered at every arrival, completion and capacity
change (§3, §7.1).  Recomputing the world from scratch at each epoch —
scanning every server for free pools, re-ranking all servers per placed
worker, re-sorting the whole pending queue — makes the hot path
O(epochs × jobs × servers).  :class:`ClusterView` is the one scheduling
state every kernel carries instead:

* the *hot* server state lives in numpy structure-of-arrays **columns**
  (free level, on-loan flag, GPU-type code, placement-group code, perf
  factor, has-allocation flag, server-id rank) over stable slots, so the
  placement engine's questions — best candidate
  (:meth:`select_best`), whole-worker capacity of a domain
  (:meth:`domain_capacity`) — are vectorized masks, not object scans;
* three **derived columns** — the packed placement key, the
  ``(on_loan, group)`` cell and the region code — turn the best
  candidate into one ``argmin``; they are caches, re-derived from the
  columns on first use and never pickled;
* cached **pool totals** and the per-type on-loan census make
  :meth:`pools` O(1), with the §5.2 **on-loan cost** derived from the
  *set* of loaned GPU types (never from iteration order);
* a cached **pending-queue ordering** per policy, recomputed only when
  the queue actually changed;
* a cached per-server **preemption-cost index** consumed by the
  orchestrator's reclaim path.

Delta protocol
--------------

The view never polls.  Every mutation point must notify it:

* ``Server.allocate`` / ``Server.release`` fire the server's
  ``_on_change`` hook, wired by :meth:`Cluster.attach_view` — this covers
  job start, finish, scale-out, scale-in and preemption, whether booked
  directly or through the :class:`~repro.rm.manager.ResourceManager`;
* ``Cluster.add_server`` / ``Cluster.remove_server`` call
  :meth:`server_added` / :meth:`server_removed` — capacity loaning and
  reclaiming (:class:`~repro.cluster.cluster.ClusterPair` routes through
  them);
* placement and the plan journal's rollback call
  :meth:`note_group_change` after (re)assigning ``Server.group`` — group
  assignment happens *after* the allocation hook fired, so that hook
  cannot see it;
* the kernel calls :meth:`note_queue_change` on every pending-queue
  mutation, :meth:`note_server_attrs` after a perf-factor change, and
  :meth:`bump` on events the books cannot see (node failure/recovery).

Every delta except :meth:`note_group_change` increments
:attr:`version`; consumers cache derived results keyed by the version,
and the kernel skips a scheduling epoch entirely when an idempotent
policy would re-run against an unchanged version.

Bit-exactness rules
-------------------

Decisions must not depend on slot order or on vector arithmetic:

* **Integer state is mirrored, float state is ranked.**  Free levels and
  worker costs are integers — vector math over them is exact.  Float
  values (perf factors, preemption costs) are only ever *compared*,
  never re-accumulated in a different order.
* **Selection is by total order.**  The placement key ends in
  ``server_id``, so the best candidate is unique and the ``argmin`` of
  the packed key is the head of the list a sorted Python scan builds.

The packed placement key
------------------------

The ranking ``(tier, -perf_factor, idle, free_gpus, server_id)`` is
packed into one int64 per slot, one disjoint bit field per component,
the highest-priority field highest — so integer order *is* the ranking
order.  Low to high:

=========  =====  ======  ============================================
field      shift  width   value
=========  =====  ======  ============================================
id rank    0      22      rank of ``server_id`` among the members
free       22     12      free GPUs
idle       34     1       1 when the server holds no allocation
perf rank  35     22      distinct perf factors ranked, fastest 0
tier       57     3       per-request addend: §5.3 tier 0–3, 4 =
                          ineligible (a domain the job may not use,
                          and every empty slot)
=========  =====  ======  ============================================

Each field is an exact rank or count, so the packing is injective and
preserves order.  The view stores the low four fields (the *key*, below
``2**57``); a query adds its tier from a six-entry offset table indexed
by the ``(on_loan, group)`` cell column.  Empty slots hold ``4 << 57``
in the key itself.  The largest sum is therefore ``4 << 57`` plus
``4 << 57``, i.e. ``2**60``, well inside int64: no addition can
overflow.  :meth:`_index` refuses (``OverflowError``) a server with
``2**12`` or more GPUs and a member past the ``2**22``-th — the perf
rank is below the member count, so its field fits too.  Slots that
cannot host the worker (free below its cost, the wrong GPU type,
unhealthy, excluded) are set to the int64 maximum, the *sentinel*,
before the ``argmin``; a winner at or above ``4 << 57`` means no
candidate.  :meth:`server_changed` rewrites one slot's key from its
static part (perf rank, id rank) with scalar integer work; the whole
key is re-derived only when membership changes (the id ranks move) or
a perf factor does (the perf ranks move).

The scan-from-scratch answer to the same queries lives in
:mod:`repro.oracle.refview`; it is the differential reference for the
golden suite, ``repro check`` and the view property tests, and
:meth:`assert_consistent` audits the live columns against a scan and
the derived ones against a from-scratch pack.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server
from repro.core.allocation import Pools
from repro.core.reclaim import preemption_cost_index

#: group codes mirrored into the ``_group_code`` column
_GROUP_CODES = {None: 0, BASE_GROUP: 1, FLEX_GROUP: 2}

#: initial slot capacity; columns grow geometrically
_INITIAL_SLOTS = 64

#: the columns, with dtype and the value an empty slot holds
_COLUMNS = (
    ("_free", np.int64, 0),
    ("_on_loan", bool, False),
    ("_type_code", np.int64, 0),
    ("_group_code", np.int64, 0),
    ("_perf", np.float64, 1.0),
    ("_has_alloc", bool, False),
    ("_active", bool, False),
    ("_id_rank", np.int64, 0),
)

#: the derived columns: caches over the columns, left out of pickles.
#: ``_key is None`` means key, cell and static parts are all stale;
#: ``_regions`` is stale on its own (None) or for another oracle.
_DERIVED = ("_key", "_cell", "_static", "_regions")

#: packed placement key layout (see the module docstring)
_ID_BITS = 22
_FREE_BITS = 12
_FREE_SHIFT = _ID_BITS
_IDLE_SHIFT = _FREE_SHIFT + _FREE_BITS
_PERF_SHIFT = _IDLE_SHIFT + 1
_TIER_SHIFT = _PERF_SHIFT + _ID_BITS
#: tier 4: a domain the job may not use, and every empty slot
_INELIGIBLE = 4 << _TIER_SHIFT
#: a slot that cannot host the worker
_SENTINEL = np.iinfo(np.int64).max


@functools.lru_cache(maxsize=None)
def _tier_offsets(
    flexible: bool,
    heterogeneous: bool,
    elastic: bool,
    special_grouping: bool,
    train_ok: bool,
    loan_ok: bool,
) -> np.ndarray:
    """Placement preference tier by cell ``3 * on_loan + group code``
    (§5.3), shifted into the packed key's top field.

    Lower wins.  Inelastic jobs (and the Table 6 ablation without the
    elastic-aware grouping) take dedicated training servers first.  A
    heterogeneous job puts base workers on training and flexible ones
    on inference hardware whenever possible.  An elastic job prefers
    on-loan servers — its own BASE/FLEX group, then ungrouped ones,
    then training servers, and the other group only as a last resort —
    so reclaiming can vacate the flexible group without preemption.  A
    domain the job may not use is ineligible.
    """
    if special_grouping and heterogeneous:
        train, loan = (1, 0) if flexible else (0, 1)
        rows = [[train] * 3, [loan] * 3]
    elif special_grouping and elastic:
        loan = [1, 3, 3]
        loan[_GROUP_CODES[FLEX_GROUP if flexible else BASE_GROUP]] = 0
        rows = [[2] * 3, loan]
    else:
        rows = [[0] * 3, [1] * 3]
    for on_loan, ok in enumerate((train_ok, loan_ok)):
        if not ok:
            rows[on_loan] = [_INELIGIBLE >> _TIER_SHIFT] * 3
    table = np.array(rows, dtype=np.int64).ravel() << _TIER_SHIFT
    table.setflags(write=False)  # cached: every caller shares it
    return table


def deterministic_onloan_cost(
    rel_computes: Sequence[float], default: float = 3.0
) -> float:
    """The §5.2 on-loan cost factor, made iteration-order independent.

    With heterogeneous loaned hardware the historical scan derived the
    cost from whichever on-loan server happened to iterate last.  The
    deterministic rule: charge the cost of the *weakest* loaned GPU type
    (``max`` of ``1/relative_compute``) — conservative in the only
    direction that matters, since the allocator uses the cost to decide
    whether normalized demand fits the physical on-loan pool and must
    never overcommit it.  Falls back to ``default`` when nothing is on
    loan, and never drops below 1 (loaned GPUs are never *stronger*
    per-GPU bookkeeping-wise, §7.5).
    """
    if not rel_computes:
        return max(1.0, default)
    return max(1.0, max(1.0 / rel for rel in rel_computes))


class ClusterView:
    """Delta-maintained scheduling state over one (training) cluster."""

    def __init__(
        self,
        cluster: Cluster,
        default_onloan_cost: float = 3.0,
        jobs: Optional[Mapping[int, "Job"]] = None,
        attach: bool = True,
    ):
        self.cluster = cluster
        self.default_onloan_cost = default_onloan_cost
        #: live job table (set by the kernel); needed only for the
        #: reclaim-cost index
        self.jobs = jobs
        #: bumped on every delta; consumers key caches off it
        self.version = 0
        #: GPU type name -> column code, and per-code relative compute
        self._type_codes: Dict[str, int] = {}
        self._rel_by_code: List[float] = []
        # ---- version-keyed caches ----
        self._pending_cache: Dict[str, Tuple[int, List["Job"]]] = {}
        self._cost_cache: Optional[Tuple[int, Dict[str, float]]] = None
        self.rebuild()
        if attach:
            cluster.attach_view(self)

    def __getstate__(self) -> dict:
        # Snapshots carry state, not caches: the version-keyed caches are
        # pure functions of (columns, version) and recompute on first
        # miss, the derived columns are re-derived on first query.  The
        # columns themselves are pickled as they are, so a restored run
        # keeps the slot layout of the continuous one.
        state = dict(self.__dict__)
        state["_pending_cache"] = {}
        state["_cost_cache"] = None
        state["_worker_costs"] = {}
        for name in _DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._drop_derived()

    # ------------------------------------------------------------------
    # column storage
    # ------------------------------------------------------------------
    def rebuild(self) -> None:
        """Recompute every column from the cluster's current state."""
        slots = _INITIAL_SLOTS
        for name, dtype, empty in _COLUMNS:
            setattr(self, name, np.full(slots, empty, dtype=dtype))
        self._slot_of: Dict[str, int] = {}
        self._server_at: List[Optional[Server]] = [None] * slots
        self._free_slots: List[int] = list(range(slots - 1, -1, -1))
        self._ranks_stale = True
        self._drop_derived()
        #: per-slot worker cost by (GPUs per worker, type-lock code)
        #: (valid until a slot is refilled — type codes change nowhere
        #: else)
        self._worker_costs: Dict[Tuple[int, Optional[int]], np.ndarray] = {}
        #: free GPUs per domain, indexed by the on-loan flag
        self._free_total = [0, 0]
        #: on-loan servers per GPU-type code (the §5.2 cost census)
        self._onloan_types: Dict[int, int] = {}
        for server in self.cluster.servers:
            self._index(server)
        self.version += 1

    def _grow(self) -> None:
        old = len(self._active)
        for name, dtype, empty in _COLUMNS:
            grown = np.full(old * 2, empty, dtype=dtype)
            grown[:old] = getattr(self, name)
            setattr(self, name, grown)
        self._server_at.extend([None] * old)
        self._free_slots.extend(range(old * 2 - 1, old - 1, -1))

    def _index(self, server: Server) -> None:
        """Fill one slot from a server (the only column-fill routine)."""
        if (
            server.num_gpus >= 1 << _FREE_BITS
            or len(self._slot_of) >= 1 << _ID_BITS
        ):
            raise OverflowError(
                f"server {server.server_id!r} ({server.num_gpus} GPUs, "
                f"{len(self._slot_of) + 1} members) exceeds the placement "
                f"key's {_FREE_BITS}-bit free / {_ID_BITS}-bit rank fields"
            )
        if not self._free_slots:
            self._grow()
        slot = self._free_slots.pop()
        self._slot_of[server.server_id] = slot
        self._server_at[slot] = server
        tname = server.gpu_type.name
        code = self._type_codes.get(tname)
        if code is None:
            code = self._type_codes[tname] = len(self._rel_by_code)
            self._rel_by_code.append(server.gpu_type.relative_compute)
        self._free[slot] = server.free_gpus
        self._on_loan[slot] = server.on_loan
        self._type_code[slot] = code
        self._group_code[slot] = _GROUP_CODES[server.group]
        self._perf[slot] = server.perf_factor
        self._has_alloc[slot] = bool(server.allocations)
        self._active[slot] = True
        self._ranks_stale = True
        self._drop_derived()
        self._worker_costs.clear()
        self._free_total[server.on_loan] += server.free_gpus
        if server.on_loan:
            self._onloan_types[code] = self._onloan_types.get(code, 0) + 1

    # ------------------------------------------------------------------
    # delta entry points
    # ------------------------------------------------------------------
    def server_changed(self, server: Server) -> None:
        """A member server's books changed (allocate/release hook)."""
        slot = self._slot_of.get(server.server_id)
        if slot is None:  # not (or no longer) a member of this cluster
            return
        new = server.free_gpus
        old = int(self._free[slot])
        busy = bool(server.allocations)
        if new != old:
            self._free[slot] = new
            self._free_total[bool(self._on_loan[slot])] += new - old
        self._has_alloc[slot] = busy
        key = self._key
        if key is not None:
            key[slot] = (
                self._static[slot]
                | (new << _FREE_SHIFT)
                | ((not busy) << _IDLE_SHIFT)
            )
        self.version += 1

    def server_added(self, server: Server) -> None:
        self._index(server)
        self.version += 1

    def server_removed(self, server: Server) -> None:
        slot = self._slot_of.pop(server.server_id)
        self._free_total[bool(self._on_loan[slot])] -= int(self._free[slot])
        if self._on_loan[slot]:
            code = int(self._type_code[slot])
            if self._onloan_types[code] > 1:
                self._onloan_types[code] -= 1
            else:
                del self._onloan_types[code]
        self._active[slot] = False
        self._server_at[slot] = None
        self._free_slots.append(slot)
        self._ranks_stale = True
        self._drop_derived()
        self.version += 1

    def note_queue_change(self) -> None:
        """The kernel's pending queue changed (arrive/start/requeue)."""
        self.version += 1

    def bump(self) -> None:
        """Invalidate for a state change the GPU books cannot express
        (node health transitions)."""
        self.version += 1

    def note_group_change(self, server: Server) -> None:
        """A member server's placement group was (re)assigned.

        No version bump: group changes only alongside an allocate or
        release delta that already bumped.  Placement and the plan
        journal's rollback are the only two call sites.
        """
        slot = self._slot_of.get(server.server_id)
        if slot is not None:
            code = self._group_code[slot] = _GROUP_CODES[server.group]
            if self._key is not None:
                self._cell[slot] = 3 * int(self._on_loan[slot]) + code

    def note_server_attrs(self, server: Server) -> None:
        """A member server's non-book attributes changed (perf factor).

        Callers must invoke this *after* mutating the attribute.
        """
        slot = self._slot_of.get(server.server_id)
        if slot is not None:
            self._perf[slot] = server.perf_factor
            self._key = None  # perf ranks are cluster-wide: re-derive
        self.version += 1

    # ------------------------------------------------------------------
    # queries: pools and on-loan cost
    # ------------------------------------------------------------------
    @property
    def dedicated_free(self) -> int:
        """Free GPUs on dedicated training servers — O(1)."""
        return self._free_total[False]

    @property
    def onloan_free(self) -> int:
        """Free GPUs on on-loan servers — O(1)."""
        return self._free_total[True]

    def onloan_cost(self) -> float:
        """Deterministic §5.2 cost factor of the loaned hardware."""
        return deterministic_onloan_cost(
            [self._rel_by_code[code] for code in self._onloan_types],
            default=self.default_onloan_cost,
        )

    def pools(self) -> Pools:
        """The free-capacity pools, without scanning a single server."""
        return Pools(
            training=self._free_total[False],
            onloan=self._free_total[True],
            onloan_cost=self.onloan_cost(),
        )

    # ------------------------------------------------------------------
    # queries: placement
    # ------------------------------------------------------------------
    def _worker_cost(
        self, gpus_per_worker: int, type_lock: Optional[int] = None
    ) -> np.ndarray:
        """Per-slot physical GPUs per worker (§5.2 normalization).

        With a ``type_lock`` code, a slot of any other GPU type costs the
        sentinel, so no free level can host the worker there.
        """
        cost = self._worker_costs.get((gpus_per_worker, type_lock))
        if cost is None:
            rel = np.asarray(self._rel_by_code, dtype=np.float64)
            by_code = np.ceil(gpus_per_worker / rel).astype(np.int64)
            if type_lock is not None:
                by_code[np.arange(by_code.size) != type_lock] = _SENTINEL
            cost = by_code[self._type_code]
            self._worker_costs[(gpus_per_worker, type_lock)] = cost
        return cost

    def _ranks(self) -> np.ndarray:
        """Lexicographic rank of each active slot's server id.

        Makes ``server_id`` usable as the final field of the packed
        placement key: recomputed only when membership changes
        (loans/reclaims), which is orders of magnitude rarer than
        placement queries.
        """
        if self._ranks_stale:
            for rank, sid in enumerate(sorted(self._slot_of)):
                self._id_rank[self._slot_of[sid]] = rank
            self._ranks_stale = False
        return self._id_rank

    def _drop_derived(self) -> None:
        """Forget the derived columns; the next query re-derives them."""
        for name in _DERIVED:
            setattr(self, name, None)

    def _derive(self) -> np.ndarray:
        """Pack the placement key and the cell column from the columns.

        ``_static`` keeps each slot's perf-rank and id-rank fields as a
        Python list, so :meth:`server_changed` re-packs one slot with
        integer operations and a single array write.
        """
        active = self._active
        perfs = np.unique(self._perf[active])
        perf_rank = perfs.size - np.searchsorted(perfs, self._perf, "right")
        static = (perf_rank << _PERF_SHIFT) | self._ranks()
        key = (
            static
            | (self._free << _FREE_SHIFT)
            | ((~self._has_alloc).astype(np.int64) << _IDLE_SHIFT)
        )
        key[~active] = _INELIGIBLE
        self._cell = 3 * self._on_loan + self._group_code
        self._static = static.tolist()
        self._key = key
        return key

    def _region_codes(
        self, region_of: Callable[[Server], Optional[str]]
    ) -> Tuple[np.ndarray, Dict[str, int]]:
        """Region code per slot (-1: none) and the code of each region.

        Derived with the id ranks: a server's region changes only when
        it joins or leaves the cluster (a loan's borrower is fixed for
        the contract), so it is read once per membership change.
        """
        cached = self._regions
        if cached is None or cached[0] != region_of:
            codes = np.full(len(self._active), -1, dtype=np.int64)
            names: Dict[str, int] = {}
            for slot in self._slot_of.values():
                region = region_of(self._server_at[slot])
                if region is not None:
                    codes[slot] = names.setdefault(region, len(names))
            cached = self._regions = (region_of, codes, names)
        return cached[1], cached[2]

    def select_best(
        self,
        gpus_per_worker: int,
        train_ok: bool,
        loan_ok: bool,
        type_lock: Optional[str],
        flexible: bool,
        heterogeneous: bool,
        elastic: bool,
        special_grouping: bool,
        unhealthy_ids: Optional[Set[str]] = None,
        exclude_ids: Optional[Set[str]] = None,
        job_region: Optional[str] = None,
        region_of: Optional[Callable[[Server], Optional[str]]] = None,
    ) -> Optional[Server]:
        """The best server able to host one more worker, or None.

        Best fit within a preference tier: the ranking is ``(tier,
        -perf_factor, idle, free_gpus, server_id)`` — fewest free GPUs
        first, partially-used servers before empty ones to curb
        fragmentation, full-speed servers before known stragglers
        (perf_factor is 1.0 everywhere absent faults).  The key is a
        total order, so the winner is the head of the list a sorted
        full scan would build: one ``argmin`` over the packed key plus
        the request's tier offsets, with every slot that cannot host
        the worker set to the sentinel.

        With a locality oracle (``region_of``, multi-cluster markets)
        and a ``job_region``, a same-region server wins among the
        candidates that tie on everything above ``server_id``.
        Locality must stay a tie-break *below* free_gpus: ranking it
        above best-fit lets region affinity override packing, which
        fragments a scarce on-loan pool until some opportunistic job's
        base demand can never fit again.
        """
        if not self._rel_by_code:
            return None
        lock = None
        if type_lock is not None:
            lock = self._type_codes.get(type_lock)
            if lock is None:
                return None
        key = self._key if self._key is not None else self._derive()
        total = _tier_offsets(
            flexible, heterogeneous, elastic, special_grouping,
            train_ok, loan_ok,
        ).take(self._cell)
        total += key
        np.putmask(
            total, self._free < self._worker_cost(gpus_per_worker, lock),
            _SENTINEL,
        )
        for hidden in (unhealthy_ids, exclude_ids):
            for sid in hidden or ():
                slot = self._slot_of.get(sid)
                if slot is not None:
                    total[slot] = _SENTINEL
        best = int(total.argmin())
        head = int(total[best])
        if head >= _INELIGIBLE:
            return None
        if region_of is not None and job_region is not None:
            codes, names = self._region_codes(region_of)
            code = names.get(job_region)
            if code is not None:
                # the lowest-id same-region slot among those tied with
                # the head on every field above the id rank
                local = np.where(codes == code, total, _SENTINEL)
                nearest = int(local.argmin())
                if local[nearest] >> _ID_BITS == head >> _ID_BITS:
                    best = nearest
        return self._server_at[best]

    def domain_capacity(self, on_loan: bool, gpus_per_worker: int) -> int:
        """Whole workers one domain can still host at per-type cost."""
        if not self._rel_by_code:
            return 0
        mask = self._active & (self._on_loan == on_loan)
        return int(
            (self._free[mask] // self._worker_cost(gpus_per_worker)[mask]).sum()
        )

    # ------------------------------------------------------------------
    # queries: pending-queue ordering
    # ------------------------------------------------------------------
    def ordered_pending(
        self,
        cache_key: str,
        key_fn: Callable[["Job"], Tuple],
        pending: Sequence["Job"],
    ) -> List["Job"]:
        """``sorted(pending, key=key_fn)``, cached until the next delta.

        Valid only for *static* ordering keys (keys that cannot change
        without a tracked delta, e.g. submit time or estimated
        duration); time-varying orders (least-attained-service) must
        sort fresh each epoch.  The returned list is shared — callers
        must treat it as read-only.
        """
        cached = self._pending_cache.get(cache_key)
        if cached is not None and cached[0] == self.version:
            return cached[1]
        ordered = sorted(pending, key=key_fn)
        self._pending_cache[cache_key] = (self.version, ordered)
        return ordered

    # ------------------------------------------------------------------
    # queries: reclaim cost (per-server job-fraction index)
    # ------------------------------------------------------------------
    def reclaim_cost_index(self) -> Dict[str, float]:
        """Preemption cost of every allocated on-loan server (Table 1's
        server-fraction model), cached until the next delta."""
        if self._cost_cache is not None and self._cost_cache[0] == self.version:
            return self._cost_cache[1]
        slots = np.flatnonzero(self._active & self._on_loan & self._has_alloc)
        servers = sorted(
            (self._server_at[int(s)] for s in slots),
            key=lambda server: server.server_id,
        )
        jobs = self.jobs if self.jobs is not None else {}
        index = preemption_cost_index(servers, jobs)
        self._cost_cache = (self.version, index)
        return index

    def reclaim_cost(self, server_id: str) -> float:
        """Preemption cost of one server (0 for unallocated servers)."""
        return self.reclaim_cost_index().get(server_id, 0.0)

    # ------------------------------------------------------------------
    # consistency (the property-test contract)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """The maintained state as plain comparable structures."""
        groups = {code: name for name, code in _GROUP_CODES.items()}
        types = {code: name for name, code in self._type_codes.items()}
        servers = {}
        for sid, slot in self._slot_of.items():
            servers[sid] = {
                "free": int(self._free[slot]),
                "on_loan": bool(self._on_loan[slot]),
                "type": types[int(self._type_code[slot])],
                "group": groups[int(self._group_code[slot])],
                "perf": float(self._perf[slot]),
                "has_alloc": bool(self._has_alloc[slot]),
            }
        return {
            "servers": servers,
            "active_slots": int(self._active.sum()),
            "free_total": list(self._free_total),
            "onloan_types": {
                types[code]: n for code, n in self._onloan_types.items()
            },
            "onloan_cost": self.onloan_cost(),
        }

    def assert_consistent(self) -> None:
        """Raise AssertionError unless the maintained state equals what a
        scan of the live ``Server`` objects says it should be."""
        servers = self.cluster.servers
        loaned = [s for s in servers if s.on_loan]
        fresh = {
            "servers": {
                s.server_id: {
                    "free": s.free_gpus,
                    "on_loan": s.on_loan,
                    "type": s.gpu_type.name,
                    "group": s.group,
                    "perf": s.perf_factor,
                    "has_alloc": bool(s.allocations),
                }
                for s in servers
            },
            "active_slots": len(servers),
            "free_total": [
                sum(s.free_gpus for s in servers if not s.on_loan),
                sum(s.free_gpus for s in loaned),
            ],
            "onloan_types": dict(Counter(s.gpu_type.name for s in loaned)),
            "onloan_cost": deterministic_onloan_cost(
                [s.gpu_type.relative_compute for s in loaned],
                default=self.default_onloan_cost,
            ),
        }
        live = self.snapshot()
        # the derived columns against a from-scratch pack of the servers
        key = self._key if self._key is not None else self._derive()
        perfs = sorted({s.perf_factor for s in servers}, reverse=True)
        ranks = {sid: r for r, sid in enumerate(sorted(fresh["servers"]))}
        fresh["placement_key"] = {
            s.server_id: (
                perfs.index(s.perf_factor) << _PERF_SHIFT
                | s.idle << _IDLE_SHIFT
                | s.free_gpus << _FREE_SHIFT
                | ranks[s.server_id],
                3 * s.on_loan + _GROUP_CODES[s.group],
            )
            for s in servers
        }
        live["placement_key"] = {
            sid: (int(key[slot]), int(self._cell[slot]))
            for sid, slot in self._slot_of.items()
        }
        fresh["empty_slots_ineligible"] = True
        live["empty_slots_ineligible"] = bool(
            (key[~self._active] == _INELIGIBLE).all()
        )
        if self._regions is not None:
            region_of, codes, names = self._regions
            region = {code: name for name, code in names.items()}
            fresh["regions"] = {s.server_id: region_of(s) for s in servers}
            live["regions"] = {
                sid: region.get(int(codes[slot]))
                for sid, slot in self._slot_of.items()
            }
        for field in live:
            assert live[field] == fresh[field], (
                f"ClusterView drift in {field!r}:\n"
                f"  maintained: {live[field]!r}\n"
                f"  scanned:    {fresh[field]!r}"
            )
        cost = self.onloan_cost()
        assert cost >= 1.0, (
            f"on-loan cost {cost!r} < 1.0: the §5.2 weakest-type "
            f"normalization guarantees at least one physical GPU per "
            f"normalized GPU — the GPU-type census is corrupt"
        )
