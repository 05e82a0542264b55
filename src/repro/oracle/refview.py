"""The scan-from-scratch reference for the scheduling view.

:class:`ReferenceView` answers every query of
:class:`repro.core.view.ClusterView` by walking the live ``Server``
objects — no columns, no totals, no caches.  The only thing it keeps is
the ``version`` counter, bumped by the same deltas, so epoch skipping and
heartbeat skip-ahead (which key off the version) behave exactly as they
do in production.  Its one job is to be the slow, obviously-correct
side of a differential test.

No production parameter selects it.  :func:`install_reference_view`
swaps it into an already-built kernel; the golden equivalence suite,
``repro check`` replays and the view property tests then require the
production run and the reference run to agree event for event.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server
from repro.core.allocation import Pools
from repro.core.view import DEFAULT_ONLOAN_COST


def placement_tier(
    server: Server,
    flexible: bool,
    heterogeneous: bool,
    elastic: bool,
    special_grouping: bool,
) -> int:
    """Domain/group preference tier of one server (§5.3): lower wins."""
    if not special_grouping:
        # Table 6 ablation: naive BFD — treat every server alike,
        # training hardware first for determinism
        return 1 if server.on_loan else 0
    if heterogeneous:
        # base on training, flexible on inference whenever possible
        if flexible:
            return 0 if server.on_loan else 1
        return 1 if server.on_loan else 0
    if elastic:
        if not server.on_loan:
            return 2  # training servers after on-loan options
        if server.group == (FLEX_GROUP if flexible else BASE_GROUP):
            return 0
        if server.group is None:
            return 1
        return 3  # wrong group: last resort among on-loan
    # inelastic: dedicated training first
    return 1 if server.on_loan else 0


class ReferenceView:
    """Full-scan answers to the :class:`ClusterView` queries."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.version = 0

    # -- deltas: nothing to maintain, only the version moves ------------
    def _bump(self, server: Optional[Server] = None) -> None:
        self.version += 1

    server_changed = server_added = server_removed = _bump
    note_queue_change = bump = note_server_attrs = _bump

    def note_group_change(self, server: Server) -> None:
        """Group is read live; production does not bump here either."""

    # -- pools ----------------------------------------------------------
    @property
    def dedicated_free(self) -> int:
        return sum(s.free_gpus for s in self.cluster.servers if not s.on_loan)

    @property
    def onloan_free(self) -> int:
        return sum(s.free_gpus for s in self.cluster.servers if s.on_loan)

    def onloan_cost(self) -> float:
        """Weakest loaned GPU type sets the §5.2 cost; never below 1."""
        costs = [
            1.0 / s.gpu_type.relative_compute
            for s in self.cluster.servers
            if s.on_loan
        ]
        return max(1.0, max(costs)) if costs else DEFAULT_ONLOAN_COST

    def pools(self) -> Pools:
        return Pools(
            training=self.dedicated_free,
            onloan=self.onloan_free,
            onloan_cost=self.onloan_cost(),
        )

    # -- placement ------------------------------------------------------
    def ranked_candidates(
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
    ) -> List[Server]:
        """Every server able to host one worker, best first."""
        hidden = set(unhealthy_ids or ()) | set(exclude_ids or ())
        local = region_of is not None and job_region is not None

        def key(s: Server) -> Tuple:
            return (
                placement_tier(
                    s, flexible, heterogeneous, elastic, special_grouping
                ),
                -s.perf_factor,
                s.idle,
                s.free_gpus,
                1 if local and region_of(s) != job_region else 0,
                s.server_id,
            )

        return sorted(
            (
                s for s in self.cluster.servers
                if s.server_id not in hidden
                and (loan_ok if s.on_loan else train_ok)
                and (type_lock is None or s.gpu_type.name == type_lock)
                and s.free_gpus >= math.ceil(
                    gpus_per_worker / s.gpu_type.relative_compute
                )
            ),
            key=key,
        )

    def select_best(self, *args, **kwargs) -> Optional[Server]:
        ranked = self.ranked_candidates(*args, **kwargs)
        return ranked[0] if ranked else None

    def _gang_candidates(
        self,
        gpus_per_worker: int,
        train_ok: bool,
        loan_ok: bool,
        type_lock: Optional[str],
        unhealthy_ids: Optional[Set[str]] = None,
    ) -> List[Server]:
        """Every server ``select_best`` could return for the request, in
        any tier: the preference flags only order the candidates."""
        return self.ranked_candidates(
            gpus_per_worker, train_ok, loan_ok, type_lock,
            flexible=False, heterogeneous=False, elastic=False,
            special_grouping=False, unhealthy_ids=unhealthy_ids,
        )

    def gang_room(self, gpus_per_worker: int, *args, **kwargs) -> int:
        return sum(
            s.free_gpus
            // math.ceil(gpus_per_worker / s.gpu_type.relative_compute)
            for s in self._gang_candidates(gpus_per_worker, *args, **kwargs)
        )

    def gang_fits(self, workers: int, *args, **kwargs) -> bool:
        return self.gang_room(*args, **kwargs) >= workers

    def ungrouped_loans(self, *args, **kwargs) -> List[Server]:
        return sorted(
            (
                s for s in self._gang_candidates(*args, **kwargs)
                if s.on_loan and s.group is None
            ),
            key=lambda s: s.server_id,
        )

    def domain_capacity(self, on_loan: bool, gpus_per_worker: int) -> int:
        return sum(
            s.free_gpus
            // math.ceil(gpus_per_worker / s.gpu_type.relative_compute)
            for s in self.cluster.servers
            if s.on_loan == on_loan
        )

    # -- pending order --------------------------------------------------
    def ordered_pending(
        self, cache_key: str, key_fn: Callable, pending: Sequence
    ) -> List:
        return sorted(pending, key=key_fn)

    def assert_consistent(self) -> None:
        """Stateless: there is nothing that could have drifted."""


def install_reference_view(sim) -> ReferenceView:
    """Swap the reference view into an already-built (not yet run) kernel.

    Re-points the cluster's delta hooks at the reference and drops the
    kernel's cached placement engines, which hold the view they were
    built with.  Returns the installed view.
    """
    ref = ReferenceView(sim.cluster)
    sim.cluster.attach_view(ref)
    sim.view = ref
    sim._engines.clear()  # noqa: SLF001 - oracle-side surgery by design
    return ref
