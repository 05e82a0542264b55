"""The capacity broker: market clearing over N lenders × M borrowers.

One :class:`~repro.core.orchestrator.ResourceOrchestrator` watches one
inference trace and loans against one training cluster.  The broker
generalizes that single rule into a per-interval *clearing*:

1. every lender (inference member cluster) publishes its loanable
   supply, smoothed per lender with the same median-of-3 filter the
   pair path uses;
2. lenders whose outstanding loans exceed their supply are repaid first
   — per-lender recalls through the inherited reclaim machinery
   (route-around, scale-in-first, the configured reclaim planner),
   preferring mature contracts so recall penalties are paid only when
   unavoidable;
3. remaining training demand is matched to lenders with spare supply,
   cheapest transfer cost first, borrower regions most starved of free
   GPUs first — each match becomes a ``LoanServers`` action carrying
   its (lender, borrower) pair, which opens loan contracts at commit;
4. a demand-driven surplus (training no longer needs what it borrowed)
   is returned only after persisting three intervals, exactly like the
   pair path, largest debtor first.

Everything is emitted as declarative actions into the one
:class:`~repro.core.actions.EpochPlan` the transactional executor
commits — the market never moves a server outside a plan.

With at most one lender configured (or a degenerate 1×1
:class:`~repro.market.cluster_set.ClusterSet`), every method delegates
to the parent orchestrator, byte-for-byte.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

from repro.core.actions import LoanServers
from repro.core.orchestrator import ResourceOrchestrator


class CapacityBroker(ResourceOrchestrator):
    """Clears the multi-cluster capacity market each interval.

    Args:
        lender_traces: ``{lender_name: InferenceTrace}`` — one
            utilization series per inference member cluster (their
            diurnal phases differ across time zones, which is what makes
            the market interesting).  With zero or one entries the
            broker behaves exactly like the parent orchestrator.
        **kwargs: Forwarded to :class:`ResourceOrchestrator` (reclaimer,
            headroom, seed, predictor, scale_in_first, window).
    """

    def __init__(self, lender_traces: Optional[Dict[str, object]] = None,
                 **kwargs):
        super().__init__(**kwargs)
        self.lender_traces: Dict[str, object] = dict(lender_traces or {})
        #: the last three offers per lender — what the supply median reads
        self._lender_history: Dict[str, deque] = {
            name: deque(maxlen=3) for name in self.lender_traces
        }

    # ------------------------------------------------------------------
    def _plan_actions(self, sim: "Simulation") -> list:
        pair = sim.pair
        if len(self.lender_traces) <= 1 or not getattr(
            pair, "market_active", False
        ):
            # Degenerate market (or a plain pair): the single-lender rule
            # is the market's fixed point — delegate wholesale so the
            # golden logs stay byte-identical.
            return super()._plan_actions(sim)
        return self._clear_market(sim)

    def _clear_market(self, sim: "Simulation") -> list:
        pair = sim.pair
        pair.clock = sim.now  # contracts planned this tick carry `now`
        self._forecast_capped = False
        self._degraded_tick = (
            self.predictor_down is not None and self.predictor_down(sim.now)
        )
        headroom = self.headroom
        if self._degraded_tick:
            headroom = min(0.99, self.headroom + self.degraded_headroom)
            sim.metrics.registry.counter("resilience.degraded_ticks").inc()
            sim.trace(
                "recovery.predictor_degraded", headroom=headroom,
                freeze_loans=self.freeze_loans_when_degraded,
            )

        # 1. per-lender smoothed supply
        supplies: Dict[str, int] = {}
        for name in sorted(self.lender_traces):
            trace = self.lender_traces[name]
            recent = self._lender_history[name]
            recent.append(trace.loanable_at(sim.now, headroom=headroom))
            supplies[name] = sorted(recent)[len(recent) // 2]

        outstanding = pair.outstanding_by_lender()
        actions: list = []

        # 2. lender-driven recalls: repay every over-lent member
        recalled: Dict[str, int] = {}
        for name in sorted(supplies):
            deficit = outstanding.get(name, 0) - supplies[name]
            if deficit <= 0:
                continue
            self._surplus_ticks = 0
            lender_actions = self._plan_reclaim_actions(
                sim, deficit, record_metrics=True, lender=name
            )
            recalled[name] = sum(
                len(a.server_ids) for a in lender_actions
                if a.kind == "reclaim_servers"
            )
            actions.extend(lender_actions)

        effective: Dict[str, int] = {
            name: max(0, outstanding.get(name, 0) - recalled.get(name, 0))
            for name in supplies
        }
        current = sum(effective.values())
        total_supply = sum(supplies.values())
        need = self.training_need_servers(sim, total_supply)
        target = min(total_supply, need)

        if sim.tracer.enabled:
            self._last_inputs = {
                "supply": total_supply,
                "need": need,
                "target": target,
                "current": current,
                "surplus_ticks": self._surplus_ticks,
                "degraded": self._degraded_tick,
                "forecast_capped": False,
                "predictor": self.predictor is not None,
                "lender_supply": dict(supplies),
                "lender_outstanding": dict(outstanding),
                "recalled": dict(recalled),
            }

        if target > current:
            self._surplus_ticks = 0
            if not (self._degraded_tick and self.freeze_loans_when_degraded):
                actions.extend(
                    self._match_loans(sim, target - current, supplies,
                                      effective)
                )
        elif target < current and not recalled:
            # Demand-driven surplus: return only after it persists (the
            # pair path's three-interval rule), largest debtor first.
            self._surplus_ticks += 1
            if self._surplus_ticks >= 3:
                self._surplus_ticks = 0
                remaining = current - target
                for name in sorted(
                    effective, key=lambda n: (-effective[n], n)
                ):
                    if remaining <= 0:
                        break
                    give_back = min(remaining, effective[name])
                    if give_back <= 0:
                        continue
                    lender_actions = self._plan_reclaim_actions(
                        sim, give_back, record_metrics=False, lender=name
                    )
                    returned = sum(
                        len(a.server_ids) for a in lender_actions
                        if a.kind == "reclaim_servers"
                    )
                    remaining -= returned
                    actions.extend(lender_actions)
        else:
            self._surplus_ticks = 0

        self._record_market_gauges(sim, pair)
        return actions

    # ------------------------------------------------------------------
    def _match_loans(
        self,
        sim: "Simulation",
        want: int,
        supplies: Dict[str, int],
        effective: Dict[str, int],
    ) -> list:
        """Match a loan deficit to lenders, cheapest transfer first.

        Borrower regions split the deficit most-starved-first (fewest
        free dedicated GPUs); each borrower then shops lenders ordered
        by ``(transfer_cost(lender, borrower), lender name)``.  Ids are
        pre-picked per lender via the shared eligibility predicate, so
        the commit is deterministic and matches what a count-based move
        would have taken.
        """
        pair = sim.pair
        spare: Dict[str, int] = {
            name: max(0, supplies[name] - effective.get(name, 0))
            for name in supplies
        }
        free_by_region = pair.training_region_free_gpus()
        borrowers = sorted(
            free_by_region, key=lambda r: (free_by_region[r], r)
        )
        shares = self._split_want(want, len(borrowers))
        actions: list = []
        claimed: set = set()  # ids already promised to an earlier action
        for borrower, share in zip(borrowers, shares):
            remaining = share
            lenders = sorted(
                spare,
                key=lambda n: (pair.transfer_cost(n, borrower), n),
            )
            for lender in lenders:
                if remaining <= 0:
                    break
                take = min(remaining, spare[lender])
                if take <= 0:
                    continue
                ids = sim.rm.peek_loanable(
                    take, lender=lender, exclude=claimed
                )
                if not ids:
                    continue
                claimed.update(ids)
                actions.append(LoanServers(
                    server_ids=tuple(ids),
                    requested=take,
                    lender=lender,
                    borrower=borrower,
                ))
                spare[lender] -= len(ids)
                remaining -= len(ids)
        return actions

    @staticmethod
    def _split_want(want: int, parts: int) -> List[int]:
        """Split a loan deficit across borrower regions, front-loaded:
        the most starved region (first) gets the ceiling share."""
        if parts <= 0:
            return []
        shares = []
        remaining = want
        for i in range(parts):
            share = math.ceil(remaining / (parts - i))
            shares.append(share)
            remaining -= share
        return shares

    # ------------------------------------------------------------------
    def _record_market_gauges(self, sim: "Simulation", pair) -> None:
        registry = sim.metrics.registry
        registry.gauge("market.contracts_open").set(len(pair.contracts))
        registry.gauge("market.penalties_accrued").set(
            pair.penalties_accrued
        )
        registry.gauge("market.early_recalls").set(pair.early_recalls)
