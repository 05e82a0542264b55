"""Resource orchestrator: executes capacity loaning and reclaiming (§3–§4).

Each inference cluster scheduler autonomously decides *when and how much*
to lend or ask back — here that signal is derived per lender from its
utilization trace plus the 2 % headroom rule (§7.1), optionally capped by
a usage predictor so reclaiming starts one interval early, before the
traffic actually rises (§6).  The orchestrator clears those offers
against the training side's demand with one rule over N >= 1 lenders and
M >= 1 borrower regions (:meth:`ResourceOrchestrator._plan_actions`);
Lyra's pair is the 1×1 case of it, not a separate path.  *Which* on-loan
servers go back is delegated to one of the reclaim planners in
:mod:`repro.core.reclaim` (Lyra's preemption-cost greedy, or the
Random/SCF baselines).

Everything is emitted as declarative actions into the one
:class:`~repro.core.actions.EpochPlan` the transactional executor
commits — the orchestrator never moves a server outside a plan.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.actions import (
    EpochPlan,
    LoanServers,
    Preempt,
    ReclaimServers,
    ScaleIn,
)
from repro.core.reclaim import (
    ReclaimPlan,
    plan_reclaim_lyra,
    plan_reclaim_random,
    plan_reclaim_scf,
)
from repro.obs import get_logger
from repro.obs.profiling import PHASE_ORCH_TICK, PHASE_RECLAIM_PLAN

RECLAIMERS = ("lyra", "random", "scf")

logger = get_logger("orchestrator")


class PredictorUnavailable(RuntimeError):
    """The usage predictor cannot produce a forecast right now.

    Raised by (possibly fault-wrapped) predictors; the orchestrator
    reacts by degrading to a reactive safety-margin policy instead of
    crashing the loaning loop.
    """


class ResourceOrchestrator:
    """Moves whole servers between the inference and training whitelists.

    Args:
        reclaimer: ``"lyra"``, ``"random"`` or ``"scf"``.
        headroom: Inference capacity never loaned (§7.1: 2 %).
        seed: RNG seed for the Random reclaimer.
        predictor: Optional callable mapping a recent utilization history
            (list of floats, oldest first) to the predicted utilization
            of the next interval; used to reclaim ahead of traffic rises.
        scale_in_first: Vacate flexible server groups before preempting
            (§5.3); disabled when elastic scaling is off.
        lender_traces: ``{lender_name: InferenceTrace}`` — one
            utilization series per inference member cluster (their
            diurnal phases differ across time zones, which is what makes
            a market interesting).  Omitted for a single lender, whose
            series is the simulation's ``inference_trace``.
    """

    def __init__(
        self,
        reclaimer: str = "lyra",
        headroom: float = 0.02,
        seed: int = 0,
        predictor: Optional[Callable[[list], float]] = None,
        scale_in_first: bool = True,
        window: int = 10,
        lender_traces: Optional[Dict[str, object]] = None,
    ):
        if reclaimer not in RECLAIMERS:
            raise ValueError(f"unknown reclaimer {reclaimer!r}; use {RECLAIMERS}")
        self.reclaimer = reclaimer
        self.headroom = headroom
        self.rng = random.Random(seed)
        self.predictor = predictor
        self.scale_in_first = scale_in_first
        self.window = window
        self.lender_traces: Dict[str, object] = dict(lender_traces or {})
        #: per lender, held as read: the predictor's utilization window
        #: and the three offers the supply median reads
        self._windows: Dict[str, deque] = {}
        self._offers: Dict[str, deque] = {}
        self._surplus_ticks = 0
        #: fault-injection hook: ``predictor_down(now)`` -> True forces
        #: the degraded (reactive safety-margin) posture for this tick
        self.predictor_down: Optional[Callable[[float], bool]] = None
        #: extra headroom held while the predictor is unavailable —
        #: without a forecast, spikes cannot be seen coming
        self.degraded_headroom: float = 0.15
        #: most conservative degraded posture: reclaim only, no new loans
        self.freeze_loans_when_degraded: bool = False
        self._degraded_tick = False
        self._forecast_capped = False
        #: decision inputs of the latest tick, for the provenance ledger
        #: (built only while the run is traced)
        self._last_inputs: Optional[dict] = None

    # ------------------------------------------------------------------
    def lender_trace(self, sim: "Simulation", lender: str):
        """The utilization series ``lender`` offers against, or None.

        A run built without per-lender traces has one lender, and the
        simulation's own inference trace is its series.
        """
        if self.lender_traces:
            return self.lender_traces.get(lender)
        return sim.inference_trace

    def lender_offer(
        self, sim: "Simulation", lender: str, safety: Optional[float] = None
    ) -> int:
        """Servers ``lender`` can have on loan right now.

        What its utilization trace and the headroom leave, capped by the
        §6 forecast once the predictor's window is full.  ``safety`` is
        the posture while the predictor is unavailable: no forecast,
        that much reactive headroom instead, since a spike can no longer
        be seen coming.  A lender without a trace offers nothing.
        """
        trace = self.lender_trace(sim, lender)
        if trace is None:
            return 0
        if safety is not None:
            return trace.loanable_at(sim.now, headroom=safety)
        offer = trace.loanable_at(sim.now, headroom=self.headroom)
        window = self._windows.get(lender, ())
        if self.predictor is not None and len(window) == self.window:
            predicted_util = float(self.predictor(list(window)))
            reserved = math.ceil(
                (min(1.0, max(0.0, predicted_util)) + self.headroom)
                * trace.num_servers
            )
            forecast = max(0, trace.num_servers - reserved)
            if forecast < offer:
                self._forecast_capped = True
                offer = forecast
        return offer

    def _lender_supplies(self, sim: "Simulation") -> Dict[str, int]:
        """Every lender's offer this interval, median-of-3 smoothed.

        The predictor being unavailable — the fault-injection
        ``predictor_down`` hook says so, or any lender's forecast raises
        :class:`PredictorUnavailable` — degrades the whole tick, once:
        every lender holds ``degraded_headroom`` extra slack.
        """
        lenders = sorted(m.name for m in sim.pair.inference_members)
        for name in lenders:
            trace = self.lender_trace(sim, name)
            if trace is not None:
                self._windows.setdefault(
                    name, deque(maxlen=self.window)
                ).append(trace.utilization_at(sim.now))
        self._forecast_capped = False
        self._degraded_tick = (
            self.predictor_down is not None and self.predictor_down(sim.now)
        )
        offers: Dict[str, int] = {}
        if not self._degraded_tick:
            try:
                offers = {n: self.lender_offer(sim, n) for n in lenders}
            except PredictorUnavailable:
                self._degraded_tick = True
        if self._degraded_tick:
            self._forecast_capped = False
            safety = min(0.99, self.headroom + self.degraded_headroom)
            offers = {n: self.lender_offer(sim, n, safety) for n in lenders}
            sim.metrics.registry.counter("resilience.degraded_ticks").inc()
            sim.trace(
                "recovery.predictor_degraded", headroom=safety,
                freeze_loans=self.freeze_loans_when_degraded,
            )
        supplies: Dict[str, int] = {}
        for name in lenders:
            recent = self._offers.setdefault(name, deque(maxlen=3))
            recent.append(offers[name])
            supplies[name] = sorted(recent)[len(recent) // 2]
        return supplies

    def training_need_servers(self, sim: "Simulation", supply: int = 10**9) -> int:
        """Loaned servers the training side can actually use right now.

        Counts the loaned servers currently hosting workers, plus the
        servers needed (at the §5.2 normalization cost) by pending
        loan-eligible base demand and by unmet flexible demand of
        loan-eligible elastic jobs.  Loaning beyond this would only park
        idle hardware in the training whitelist.
        """
        busy = sum(1 for s in sim.pair.training.on_loan_servers if not s.idle)
        inference_servers = sim.pair.inference.servers
        if inference_servers:
            reference = inference_servers[0]
        else:
            loaned = sim.pair.training.on_loan_servers
            if not loaned:
                return busy
            reference = loaned[0]
        cost = 1.0 / reference.gpu_type.relative_compute
        gpus_per_server = reference.num_gpus

        # Pending demand only creates loan-need where it overflows the
        # free dedicated capacity (the scheduler prefers training
        # hardware for inelastic work, §5.3).
        training_free = sim.view.dedicated_free
        pending_total = sum(j.spec.base_gpus for j in sim.pending)
        supply_gpus = supply * gpus_per_server
        pending_eligible = 0
        for j in sim.pending:
            if not (j.spec.fungible or j.spec.heterogeneous):
                continue
            # A base demand that cannot fit even the full loanable pool
            # will never start on loaned hardware; it creates no need
            # (heterogeneous jobs can straddle, so they always count).
            if (
                not j.spec.heterogeneous
                and j.spec.base_gpus * cost > supply_gpus
            ):
                continue
            pending_eligible += j.spec.base_gpus
        overflow = max(0, pending_total - training_free)
        extra_gpus = min(overflow, pending_eligible)
        if sim.config.elastic:
            for job in list(sim.running.values()) + sim.pending:
                if not job.elastic:
                    continue
                if not (job.spec.fungible or job.spec.heterogeneous):
                    continue
                # A running job whose workers sit on dedicated training
                # hardware is type-locked there (§5.3) — its flexible
                # demand cannot use loaned T4s, so it creates no need.
                if job.total_workers > 0 and not (
                    job.spec.heterogeneous
                    or job.onloan_throughput_fraction() > 0
                ):
                    continue
                unmet = max(0, job.spec.max_workers - max(
                    job.total_workers, job.spec.min_workers
                ))
                extra_gpus += unmet * job.spec.gpus_per_worker
        extra_servers = math.ceil(extra_gpus * cost / gpus_per_server)
        need = busy + extra_servers
        # Keep a little slack so a scheduling epoch never stalls waiting
        # one orchestrator interval for hardware.
        return need + max(1, need // 4) if need else 0

    def plan_tick(self, sim: "Simulation") -> EpochPlan:
        """Plan one orchestrator interval: loan out or reclaim back.

        The raw loanable *supply* is smoothed with a median-of-3 filter —
        the 2 % headroom exists precisely to absorb sub-interval traffic
        bursts (§7.1), so one-sample spikes should not trigger a reclaim
        (nor should matching dips trigger loans).  The amount actually
        borrowed is additionally capped by the training side's current
        demand, so on-loan servers stay productive (Fig. 9).

        Nothing is moved here: the decisions come back as an
        :class:`~repro.core.actions.EpochPlan` of declarative
        ``LoanServers`` / ``ScaleIn`` / ``Preempt`` / ``ReclaimServers``
        actions the simulation commits through its
        :class:`~repro.core.actions.PlanExecutor` (or prices dry-run).
        """
        tick_span = sim.phase(PHASE_ORCH_TICK)
        with tick_span:
            actions = self._plan_actions(sim)
        plan = EpochPlan(
            now=sim.now,
            policy=f"orchestrator:{self.reclaimer}",
            actions=tuple(actions),
        )
        plan.span_id = tick_span.span_id
        plan.decision_inputs = self._last_inputs
        self._last_inputs = None
        return plan

    def _plan_actions(self, sim: "Simulation") -> list:
        """The one clearing rule, over N >= 1 lenders x M >= 1 regions.

        1. every lender publishes its smoothed loanable supply;
        2. lenders whose outstanding loans exceed their supply are
           repaid first — per-lender recalls through the reclaim
           machinery (route-around, scale-in-first, the configured
           planner);
        3. remaining training demand is matched to lenders with spare
           supply (:meth:`_match_loans`);
        4. a demand-driven surplus (training no longer needs what it
           borrowed) is returned only after it persists three intervals
           — that avoids loan/return thrash around scheduling epochs —
           largest debtor first.
        """
        pair = sim.pair
        supplies = self._lender_supplies(sim)
        outstanding = pair.outstanding_by_lender()
        actions: list = []

        recalled: Dict[str, int] = {}
        for name, supply in supplies.items():
            deficit = outstanding[name] - supply
            if deficit > 0:
                # Inference-driven: the lender wants servers back now.
                recalled[name] = self._recall(
                    sim, actions, deficit, name, record_metrics=True
                )

        effective = {
            name: max(0, outstanding[name] - recalled.get(name, 0))
            for name in supplies
        }
        current = sum(effective.values())
        total_supply = sum(supplies.values())
        need = self.training_need_servers(sim, total_supply)
        target = min(total_supply, need)
        if sim.tracer.enabled:
            # Provenance: what the loaning decision saw this interval.
            # ``supply`` is the smoothed lender-side offer, ``need`` the
            # training-side demand; a forecast-lowered supply or a
            # degraded predictor shows up here and in the trigger kind.
            self._last_inputs = {
                "supply": total_supply,
                "raw_target": sum(self._offers[n][-1] for n in supplies),
                "need": need,
                "target": target,
                "current": current,
                "surplus_ticks": self._surplus_ticks,
                "predictor": self.predictor is not None,
                "forecast_capped": self._forecast_capped,
                "degraded": self._degraded_tick,
                "lender_supply": dict(supplies),
                "lender_outstanding": dict(outstanding),
                "recalled": dict(recalled),
            }

        if target < current and not recalled:
            self._surplus_ticks += 1
            if self._surplus_ticks >= 3:
                self._surplus_ticks = 0
                remaining = current - target
                for name in sorted(effective, key=lambda n: (-effective[n], n)):
                    give_back = min(remaining, effective[name])
                    if give_back > 0:
                        remaining -= self._recall(
                            sim, actions, give_back, name, record_metrics=False
                        )
        else:
            self._surplus_ticks = 0
            # degraded posture may be reclaim-only: no new loans
            if target > current and not (
                self._degraded_tick and self.freeze_loans_when_degraded
            ):
                actions.extend(
                    self._match_loans(sim, target - current, supplies, effective)
                )

        registry = sim.metrics.registry
        registry.gauge("market.contracts_open").set(len(pair.contracts))
        registry.gauge("market.penalties_accrued").set(pair.penalties_accrued)
        registry.gauge("market.early_recalls").set(pair.early_recalls)
        return actions

    def _recall(self, sim: "Simulation", actions: list, demand: int,
                lender: str, record_metrics: bool) -> int:
        """Plan returning ``demand`` of ``lender``'s servers onto
        ``actions``; the number of servers the plan returns."""
        recall = self._plan_reclaim_actions(
            sim, demand, record_metrics=record_metrics, lender=lender
        )
        actions.extend(recall)
        return sum(
            len(a.server_ids) for a in recall if a.kind == "reclaim_servers"
        )

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
        the commit is deterministic and moves exactly what was planned.
        Each match is a ``LoanServers`` carrying its (lender, borrower)
        pair, against which the contracts open at commit.
        """
        pair = sim.pair
        spare = {
            name: max(0, supplies[name] - effective[name]) for name in supplies
        }
        free_by_region = pair.training_region_free_gpus()
        borrowers = sorted(free_by_region, key=lambda r: (free_by_region[r], r))
        actions: list = []
        claimed: set = set()  # ids already promised to an earlier action
        for borrower, share in zip(
            borrowers, self._split_want(want, len(borrowers))
        ):
            for lender in sorted(
                spare, key=lambda n: (pair.transfer_cost(n, borrower), n)
            ):
                take = min(share, spare[lender])
                if take <= 0:
                    continue
                ids = sim.rm.peek_loanable(take, lender=lender, exclude=claimed)
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
                share -= len(ids)
        return actions

    @staticmethod
    def _split_want(want: int, parts: int) -> List[int]:
        """Split a loan deficit across borrower regions, front-loaded:
        the most starved region (first) gets the ceiling share."""
        shares = []
        for i in range(parts):
            shares.append(math.ceil(want / (parts - i)))
            want -= shares[-1]
        return shares

    # ------------------------------------------------------------------
    def _plan_route_around(
        self, sim: "Simulation", demand: int, home: Optional[str] = None
    ) -> list:
        """Pick unhealthy/straggling on-loan servers to return ahead of
        the plan.

        Bad hardware is the cheapest thing to give back: a failed server
        hosts nothing (its containers died with it) and a straggler is
        dragging its jobs down anyway.  Vacant ones are selected for
        immediate return; whatever demand remains is planned over the
        healthy candidates.  With no faults injected this scans and
        selects nothing.  ``home`` restricts the scan to one lender's
        servers (recalls are per lender); None — the what-if entry
        point — scans them all.  Returns ``(server_id, unhealthy,
        straggling)`` triples; the scan is pure — the executor does the
        returning.
        """
        picked = []
        for server in sim.pair.training.on_loan_servers:
            if len(picked) >= demand:
                break
            if home is not None and server.home_cluster != home:
                continue
            server_id = server.server_id
            unhealthy = not sim.rm.is_healthy(server_id)
            straggling = server.perf_factor < 1.0
            if not (unhealthy or straggling):
                continue
            if server.allocations:
                continue  # still hosts workers; leave it to the planner
            picked.append((server_id, unhealthy, straggling))
        return picked

    def _plan(self, sim: "Simulation", demand: int,
              exclude: tuple = (), home: Optional[str] = None) -> ReclaimPlan:
        """Delegate server selection to the configured reclaim planner.

        ``exclude`` holds server ids a route-around action earlier in the
        same plan will already have returned by the time this plan's
        selection commits — they are no longer candidates (the legacy
        path returned them before planning; healthy stragglers would
        otherwise be counted twice).  ``home`` restricts candidates to
        one lender's on-loan servers (recalls are per lender).
        """
        skip = set(exclude)
        candidates = [
            s for s in sim.pair.training.on_loan_servers
            if s.server_id not in skip and sim.rm.is_healthy(s.server_id)
        ]
        if home is not None:
            candidates = [s for s in candidates if s.home_cluster == home]
        # Contract-aware preference: when mature contracts alone can
        # satisfy the demand, keep immature (penalty-bearing) loans out
        # of the candidate pool.  Gated on a live market: the default
        # terms run two hours, so on a pair this would change which
        # servers Lyra's reclaim picks (and the golden logs with it).
        contracts = sim.pair.contracts
        if sim.pair.market_active:
            mature = [
                s for s in candidates
                if s.server_id not in contracts
                or contracts[s.server_id].mature(sim.now)
            ]
            if len(mature) >= demand:
                candidates = mature
        if self.reclaimer == "random":
            return plan_reclaim_random(candidates, sim.jobs, demand, rng=self.rng)
        if self.reclaimer == "scf":
            return plan_reclaim_scf(candidates, sim.jobs, demand)
        return plan_reclaim_lyra(
            candidates, sim.jobs, demand, scale_in_first=self.scale_in_first
        )

    def _plan_reclaim_actions(
        self,
        sim: "Simulation",
        demand: int,
        record_metrics: bool = True,
        with_costs: Optional[bool] = None,
        lender: Optional[str] = None,
    ) -> list:
        """Turn one reclaim demand into a declarative action sequence.

        Ordering mirrors the legacy execution exactly: route-around
        returns first, then per-job scale-ins (no preemption), then the
        plan's preemptions, then the server returns with the planner's
        metrics snapshot (demand, free servers, collateral, per-server
        preemption costs) attached for the RECLAIM log.  ``lender``
        scopes the whole sequence to one member cluster's servers (the
        clearing rule recalls per lender); None takes from any.
        """
        actions: list = []
        health = self._plan_route_around(sim, demand, home=lender)
        routed_ids: tuple = ()
        if health:
            routed_ids = tuple(sid for sid, _, _ in health)
            actions.append(ReclaimServers(
                server_ids=routed_ids, demand=demand, route_around=True,
                health=tuple(health), record_metrics=record_metrics,
                lender=lender,
            ))
            demand -= len(health)
            if demand <= 0:
                return actions
        with sim.phase(PHASE_RECLAIM_PLAN):
            plan = self._plan(sim, demand, exclude=routed_ids, home=lender)
        if not plan.servers:
            return actions
        # Per-server preemption costs (Table 1's metric), captured at
        # plan time while the placements the costs describe still exist.
        if with_costs is None:
            with_costs = sim.tracer.enabled
        costs = None
        if with_costs:
            # served from the view's cached per-server job-fraction
            # index (rebuilt only when a delta arrived)
            costs = tuple(
                (sid, round(sim.view.reclaim_cost(sid), 4))
                for sid in plan.servers
                if sid in sim.pair.training
            )
        # 1. Scale elastic jobs in (no preemption).
        for job_id, per_server in plan.scaled_in.items():
            if job_id in sim.running:
                actions.append(ScaleIn(
                    job_id=job_id, removals=tuple(per_server.items()),
                    staged=False,
                ))
        # 2. Preempt the jobs the plan sacrificed.
        for job_id in plan.preempted_jobs:
            if job_id in sim.running:
                actions.append(Preempt(job_id=job_id, cause="reclaim"))
        # 3. Return the vacated servers, metrics snapshot attached.
        actions.append(ReclaimServers(
            server_ids=tuple(plan.servers),
            demand=demand,
            preempted=tuple(plan.preempted_jobs),
            scaled_in=tuple(sorted(plan.scaled_in)),
            free_servers=plan.free_servers,
            collateral_gpus=plan.collateral_gpus,
            costs=costs,
            record_metrics=record_metrics,
            lender=lender,
        ))
        return actions

    def plan_reclaim(self, sim: "Simulation", demand: int,
                     record_metrics: bool = True) -> EpochPlan:
        """Plan reclaiming ``demand`` on-loan servers, without applying.

        The what-if entry point (``repro whatif``): always prices
        per-server preemption costs regardless of tracing, and never
        touches the loan/return state — apply the returned plan with
        ``dry_run=True`` to get its cost without moving anything.  Note
        the Random reclaimer draws from the orchestrator's RNG even when
        planning, so a priced-but-discarded plan advances that stream.
        """
        if demand <= 0:
            return EpochPlan(
                now=sim.now,
                policy=f"orchestrator:{self.reclaimer}",
                actions=(),
            )
        with sim.phase(PHASE_ORCH_TICK):
            actions = self._plan_reclaim_actions(
                sim, demand, record_metrics=record_metrics, with_costs=True
            )
        return EpochPlan(
            now=sim.now,
            policy=f"orchestrator:{self.reclaimer}",
            actions=tuple(actions),
        )
