"""The conformance runner behind ``repro check``.

Sweeps seeded random instances through the production decision paths and
their reference oracles, checks the metamorphic properties, and replays
mini-scenarios through every registered scheduler on the production view
and on the scan-from-scratch reference view.
Divergences come back as :class:`Divergence` records carrying the first
observed disagreement and — for instance-based checks — a minimized,
runnable repro script, so a red run is immediately actionable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.allocation import allocate_two_phase
from repro.core.mckp import solution_cost, solve_mckp, solve_mckp_bruteforce
from repro.core.reclaim import (
    CostModel,
    ReclaimPlan,
    initial_greedy_costs,
    plan_reclaim_lyra,
    server_preemption_cost,
)
from repro.oracle.instances import (
    gen_allocation_instance,
    gen_mckp_instance,
    gen_reclaim_instance,
    minimize,
)
from repro.oracle.metamorphic import (
    check_capacity_monotonic,
    check_dry_run_pricing,
    check_mckp_permutation,
    check_permutation_invariance,
)
from repro.oracle.reference import (
    allocate_reference,
    plan_reclaim_bruteforce,
    solve_mckp_scalar,
)
from repro.oracle.refview import install_reference_view

#: Distinct seeds per sweep index — a large prime stride keeps the
#: per-check instance streams disjoint across base seeds.
_SEED_STRIDE = 1_000_003

#: Replay scenarios stay tiny so sweeping every scheme on both views
#: finishes in seconds; the equivalence suite covers scale.
_REPLAY_JOBS = 36
_REPLAY_DAYS = 0.25

#: Captured MCKP instances are only re-solved by brute force when the
#: product of per-group option counts stays enumerable.
_MCKP_RECHECK_LIMIT = 5_000
_MCKP_CAPTURE_CAP = 16

_METAMORPHIC_SCRIPT = (
    "# repro — run from the repo root with PYTHONPATH=src\n"
    "from repro.oracle.conformance import metamorphic_divergence\n"
    "print(metamorphic_divergence({seed}) or 'no divergence')\n"
)

_PRICING_SCRIPT = (
    "# repro — run from the repo root with PYTHONPATH=src\n"
    "from repro.oracle.metamorphic import check_dry_run_pricing\n"
    "print(check_dry_run_pricing({seed}) or 'no divergence')\n"
)

_REPLAY_SCRIPT = (
    "# repro — run from the repo root with PYTHONPATH=src\n"
    "from repro.oracle.conformance import replay_divergence\n"
    "print(replay_divergence({scheme!r}, {seed}) or 'no divergence')\n"
)

_RECOVERY_SCRIPT = (
    "# repro — run from the repo root with PYTHONPATH=src\n"
    "from repro.oracle.conformance import recovery_divergence\n"
    "print(recovery_divergence({scheme!r}, {seed}) or 'no divergence')\n"
)


@dataclass
class Divergence:
    """One observed disagreement between production and an oracle."""

    check: str
    detail: str
    scheme: Optional[str] = None
    seed: Optional[int] = None
    repro: Optional[str] = None

    def render(self) -> str:
        where = f" scheme={self.scheme}" if self.scheme else ""
        where += f" seed={self.seed}" if self.seed is not None else ""
        lines = [f"[{self.check}{where}] {self.detail}"]
        if self.repro:
            lines.append("--- minimized repro ---")
            lines.append(self.repro.rstrip("\n"))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "detail": self.detail,
            "scheme": self.scheme,
            "seed": self.seed,
            "repro": self.repro,
        }


@dataclass
class ConformanceReport:
    """Outcome of one :func:`run_check` sweep."""

    checks: Dict[str, int] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        ran = "   ".join(
            f"{name} {count}" for name, count in sorted(self.checks.items())
        )
        lines = [f"checks run: {ran or 'none'}"]
        if self.ok:
            lines.append("no divergence: production agrees with the oracles")
        else:
            lines.append(f"{len(self.divergences)} divergence(s):")
            for div in self.divergences:
                lines.append(div.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "checks": dict(self.checks),
            "divergences": [d.to_dict() for d in self.divergences],
        }


# ----------------------------------------------------------------------
# instance-level differential checks
# ----------------------------------------------------------------------
def _invalid_plan(plan: ReclaimPlan, jobs, label: str) -> Optional[str]:
    """A reclaim plan is valid iff every returned server is truly vacated."""
    for sid in plan.servers:
        for job_id, job in jobs.items():
            if sid in job.base_placement and job_id not in plan.preempted_jobs:
                return (
                    f"{label} plan returns {sid} while job {job_id}'s base "
                    f"workers still run there"
                )
    return None


def reclaim_divergence(instance) -> Optional[str]:
    """Diff production reclaim planners against the job-subset oracle.

    Certifies two things on one instance: the greedy returns a valid
    plan that never beats the true optimum (that would mean
    mis-accounting), and the cost a reclaim plan reports
    (:func:`server_preemption_cost`) prices every candidate exactly as
    the greedy loop's first iteration does, for all three Table 1 cost
    models.
    """
    servers, jobs = instance.build()
    oracle = plan_reclaim_bruteforce(servers, jobs, instance.count)

    greedy = plan_reclaim_lyra(servers, jobs, instance.count)
    bad = _invalid_plan(greedy, jobs, "greedy")
    if bad:
        return bad
    if len(greedy.servers) < min(instance.count, len(servers)):
        return (
            f"greedy returned {len(greedy.servers)} server(s) for demand "
            f"{instance.count}"
        )
    if greedy.num_preemptions < oracle.num_preemptions:
        return (
            f"greedy claims {greedy.num_preemptions} preemption(s), below "
            f"the exhaustive optimum {oracle.num_preemptions} — one of the "
            f"two is mis-accounting"
        )

    for model in CostModel:
        live = initial_greedy_costs(servers, jobs, model)
        for server in servers:
            sid = server.server_id
            reported = server_preemption_cost(server, jobs, model)
            if not math.isclose(
                reported, live[sid], rel_tol=1e-9, abs_tol=1e-9
            ):
                return (
                    f"cost-model drift under {model.value}: the reported "
                    f"cost of {sid} is {reported!r} but the greedy loop's "
                    f"first iteration pays {live[sid]!r}"
                )
    return None


def mckp_divergence(instance) -> Optional[str]:
    """Diff the MCKP solver against the scalar DP and exhaustive enumeration.

    ``solve_mckp`` must return the full-width scalar DP's answer exactly
    — the same float and the very same items, whichever of its paths
    (the certified arg-max, the certified ladder or the clamped table)
    ran — and an optimum brute force agrees with.
    """
    groups, capacity = instance.build()
    dp_value, dp_choices = solve_mckp(groups, capacity)
    ref_value, ref_choices = solve_mckp_scalar(groups, capacity)
    if dp_value != ref_value or any(
        a is not b for a, b in zip(dp_choices, ref_choices)
    ):
        return (
            f"solve_mckp returns {dp_value!r} choosing {dp_choices} but "
            f"the scalar DP {ref_value!r} choosing {ref_choices} at "
            f"capacity {capacity}"
        )
    bf_value, _ = solve_mckp_bruteforce(groups, capacity)
    if not math.isclose(dp_value, bf_value, rel_tol=1e-9, abs_tol=1e-9):
        return (
            f"DP value {dp_value!r} != brute-force optimum {bf_value!r} "
            f"at capacity {capacity}"
        )
    value, weight = solution_cost(dp_choices)
    if weight > capacity:
        return (
            f"DP choices weigh {weight} over capacity {capacity} — the "
            f"reported solution is infeasible"
        )
    if not math.isclose(value, dp_value, rel_tol=1e-9, abs_tol=1e-9):
        return (
            f"DP reports value {dp_value!r} but its own choices sum to "
            f"{value!r}"
        )
    return None


def allocation_divergence(instance) -> Optional[str]:
    """Diff two-phase allocation against the first-principles reference.

    Admissions and their domains must match exactly (both sides admit
    shortest-job-first over the same fit rules); the MCKP values must
    agree (choices may differ at equal value, so they are not compared);
    and the flexible grants must fit the knapsack capacity they were
    solved against.
    """
    pending, running, pools = instance.build()
    prod = allocate_two_phase(pending, running, pools)
    # Fresh Job objects for the reference: production mutates nothing in
    # pure allocation, but independence keeps the diff trustworthy.
    ref_pending, ref_running, ref_pools = instance.build()
    ref = allocate_reference(ref_pending, ref_running, ref_pools)

    prod_sched = [(job.job_id, domain) for job, domain in prod.scheduled]
    if prod_sched != ref.scheduled:
        return (
            f"phase-one admissions differ: production {prod_sched} vs "
            f"reference {ref.scheduled}"
        )
    prod_skipped = [job.job_id for job in prod.skipped]
    if prod_skipped != ref.skipped:
        return (
            f"phase-one skips differ: production {prod_skipped} vs "
            f"reference {ref.skipped}"
        )
    if not math.isclose(
        prod.mckp_value, ref.mckp_value, rel_tol=1e-9, abs_tol=1e-9
    ):
        return (
            f"phase-two value differs: production MCKP realizes "
            f"{prod.mckp_value!r}, reference brute force {ref.mckp_value!r}"
        )

    flex_weight = 0
    by_id = {job.job_id: job for job in pending}
    by_id.update({job.job_id: job for job in running})
    for job_id, extra in prod.flex.items():
        flex_weight += extra * by_id[job_id].spec.gpus_per_worker
    if flex_weight > prod.mckp_capacity:
        return (
            f"flexible grants weigh {flex_weight} normalized GPUs over the "
            f"knapsack capacity {prod.mckp_capacity}"
        )
    return None


def metamorphic_divergence(seed: int) -> Optional[str]:
    """Run the structural metamorphic properties on seeded instances."""
    reclaim_inst = gen_reclaim_instance(seed)
    for name, check in (
        ("capacity-monotonic", check_capacity_monotonic),
        ("permutation-invariance",
         lambda inst: check_permutation_invariance(inst, seed=seed)),
    ):
        msg = check(reclaim_inst)
        if msg:
            return f"{name}: {msg} (instance: {reclaim_inst!r})"
    mckp_inst = gen_mckp_instance(seed)
    msg = check_mckp_permutation(mckp_inst, seed=seed)
    if msg:
        return f"mckp-permutation: {msg} (instance: {mckp_inst!r})"
    return None


# ----------------------------------------------------------------------
# scenario replays
# ----------------------------------------------------------------------
def build_replay_sim(
    scheme: str,
    seed: int,
    reference_view: bool = False,
    probe: Optional[Callable[[str, str, dict], None]] = None,
):
    """Wire (but do not run) the conformance mini-scenario.

    ``reference_view`` swaps the oracle's scan-from-scratch view into
    the built simulation (see :mod:`repro.oracle.refview`).
    """
    from repro.scenarios import build_sim, default_setup

    setup = default_setup(
        num_jobs=_REPLAY_JOBS,
        days=_REPLAY_DAYS,
        training_servers=3,
        inference_servers=5,
        seed=seed,
        target_load=2.5,
    )
    sim = build_sim(
        setup,
        scheme,
        seed=seed,
        sim_overrides={"record_activities": True},
        # a small GA when the scheme's policy is Pollux; ignored otherwise
        pollux_generations=6,
        pollux_population=6,
    )
    if reference_view:
        install_reference_view(sim)
    if probe is not None:
        sim.policy.conformance_probe = probe
    return sim


def replay_scenario(
    scheme: str,
    seed: int,
    reference_view: bool = False,
    probe: Optional[Callable[[str, str, dict], None]] = None,
):
    """Run one mini-scenario to completion and return the Simulation.

    The workload is deliberately overloaded (queue pressure exercises
    both allocation phases) and, for loaning schemes, small enough that
    reclaim demand actually arrives.  ``probe`` is installed as the
    policy's ``conformance_probe`` before the run, so every
    ``emit_decision`` payload flows through it.
    """
    sim = build_replay_sim(scheme, seed, reference_view, probe)
    sim.run()
    return sim


def recovery_divergence(scheme: str, seed: int) -> Optional[str]:
    """Kill the mini-scenario mid-run and recover it from disk.

    The crash barrier cycles with the seed through the full taxonomy
    (between events, mid plan-commit, right after the WAL append).  The
    recovered-and-resumed run must reproduce the continuous run's
    Activity log byte-for-byte; a barrier that never occurs after the
    kill time simply degenerates into checking that a *checkpointed*
    run is byte-identical to a plain one — also part of the contract.
    """
    import shutil
    import tempfile

    from repro.faults.crash import (
        BARRIERS,
        CrashInjector,
        CrashPoint,
        SimulatedCrash,
    )
    from repro.recovery.manager import RecoveryError, RecoveryManager

    reference = replay_scenario(scheme, seed)
    horizon = reference.now
    barrier = BARRIERS[seed % len(BARRIERS)]
    workdir = tempfile.mkdtemp(prefix="repro-oracle-recovery-")
    try:
        sim = build_replay_sim(scheme, seed)
        manager = RecoveryManager(
            workdir,
            checkpoint_every=max(horizon / 7.0, 60.0),
            crash=CrashInjector([CrashPoint(horizon * 0.5, barrier)]),
        )
        manager.attach(sim)
        crashed = False
        try:
            sim.run()
        except SimulatedCrash:
            crashed = True
        if crashed:
            try:
                sim = RecoveryManager.recover(workdir)
            except RecoveryError as exc:
                return f"recovery after a {barrier} kill failed: {exc}"
            sim.resume()

        label = (f"recovered ({barrier})" if crashed
                 else "checkpointed (no kill fired)")
        if len(sim.activities) != len(reference.activities):
            return (
                f"{label} run recorded {len(sim.activities)} activities, "
                f"continuous run {len(reference.activities)}"
            )
        for i, (a, b) in enumerate(zip(sim.activities,
                                       reference.activities)):
            if a != b:
                return (
                    f"{label} run diverges at activity {i}: "
                    f"t={a.time!r} {a.kind.value} job={a.job_id!r} "
                    f"{a.detail!r} vs continuous t={b.time!r} "
                    f"{b.kind.value} job={b.job_id!r} {b.detail!r}"
                )
        try:
            sim.rm.verify_books()
        except Exception as exc:
            return f"{label} run ended with unbalanced books: {exc}"
        try:
            sim.view.assert_consistent()
        except Exception as exc:
            return f"{label} view inconsistent after the run: {exc}"
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def replay_divergence(scheme: str, seed: int) -> Optional[str]:
    """Replay one scheme on both views and diff everything observable.

    The run on the oracle's scan-from-scratch view is the reference; the
    production run must match it event-for-event.  The production run
    carries a conformance probe that captures the MCKP instances the
    scheduler actually solved; small ones are re-solved by brute force
    in situ.  Books must balance, no plan may be rejected and the
    production view must equal a rebuild at the end of the run.
    """
    captured: List[tuple] = []

    def probe(name: str, kind: str, payload: dict) -> None:
        if kind != "allocation" or len(captured) >= _MCKP_CAPTURE_CAP:
            return
        decision = payload.get("decision")
        if decision is not None and decision.mckp_groups is not None:
            captured.append(
                (decision.mckp_groups, decision.mckp_capacity,
                 decision.mckp_value)
            )

    reference = replay_scenario(scheme, seed, reference_view=True)
    sim = replay_scenario(scheme, seed, probe=probe)
    if len(sim.activities) != len(reference.activities):
        return (
            f"production view recorded {len(sim.activities)} activities "
            f"vs {len(reference.activities)} on the reference view"
        )
    for i, (a, b) in enumerate(zip(sim.activities, reference.activities)):
        if a != b:
            return (
                f"production view diverges from the reference view at "
                f"activity {i}: t={a.time!r} {a.kind.value} "
                f"job={a.job_id!r} {a.detail!r} vs reference t={b.time!r} "
                f"{b.kind.value} job={b.job_id!r} {b.detail!r}"
            )

    for label, run in (("reference", reference), ("production", sim)):
        try:
            run.rm.verify_books()
        except Exception as exc:
            return f"{label}-view run ended with unbalanced books: {exc}"
        if run.executor.plans_rejected:
            return (
                f"{label}-view run rejected "
                f"{run.executor.plans_rejected} decision plan(s)"
            )
    try:
        sim.view.assert_consistent()
    except Exception as exc:
        return f"production view inconsistent after the run: {exc}"

    for groups, capacity, reported in captured:
        size = 1
        for group in groups:
            size *= len(group) + 1
            if size > _MCKP_RECHECK_LIMIT:
                break
        if size > _MCKP_RECHECK_LIMIT:
            continue
        bf_value, _ = solve_mckp_bruteforce(groups, capacity)
        if not math.isclose(reported, bf_value, rel_tol=1e-9, abs_tol=1e-9):
            return (
                f"in-situ MCKP solve realized {reported!r} but brute force "
                f"proves {bf_value!r} optimal (capacity {capacity}, "
                f"{len(groups)} group(s))"
            )
    return None


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def _sweep(
    report: ConformanceReport,
    name: str,
    seeds: Sequence[int],
    generate,
    diverges,
    max_divergences: int,
    progress: Optional[Callable[[str], None]],
) -> None:
    """Run one instance-based check over a seed stream, minimizing hits."""
    for s in seeds:
        if len(report.divergences) >= max_divergences:
            return
        instance = generate(s)
        report.checks[name] = report.checks.get(name, 0) + 1
        detail = diverges(instance)
        if detail is None:
            continue
        small = minimize(instance, diverges)
        report.divergences.append(
            Divergence(
                check=name,
                detail=diverges(small) or detail,
                seed=s,
                repro=small.to_script(diverges.__name__),
            )
        )
        if progress:
            progress(f"{name}: divergence at seed {s}")


def run_check(
    policies: Optional[Sequence[str]] = None,
    seed: int = 0,
    n: int = 50,
    replay: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    max_divergences: int = 1,
) -> ConformanceReport:
    """Run the full conformance sweep; the engine behind ``repro check``.

    Args:
        policies: Scheme names to replay (default: every registered
            scheme).  Instance sweeps are scheme-independent and always
            run.
        seed: Base seed; instance seeds stride by a large prime so
            different bases explore disjoint streams.
        n: Instances per differential check.  Replay and pricing counts
            scale down from it (they cost a full mini-simulation each).
        replay: Set False to skip the scenario replays (fast mode).
        progress: Optional callback for per-stage progress lines.
        max_divergences: Stop after this many divergences (default: the
            first one, which is the actionable one).
    """
    from repro.scenarios import SCHEMES

    if policies is None:
        policies = sorted(SCHEMES)
    else:
        unknown = [p for p in policies if p not in SCHEMES]
        if unknown:
            raise ValueError(
                f"unknown scheme(s) {unknown}; use one of {sorted(SCHEMES)}"
            )
    report = ConformanceReport()
    seeds = [seed * _SEED_STRIDE + i for i in range(n)]

    if progress:
        progress(f"sweeping {n} instance(s) per differential check")
    _sweep(report, "reclaim", seeds, gen_reclaim_instance,
           reclaim_divergence, max_divergences, progress)
    _sweep(report, "mckp", seeds, gen_mckp_instance,
           mckp_divergence, max_divergences, progress)
    _sweep(report, "allocation", seeds, gen_allocation_instance,
           allocation_divergence, max_divergences, progress)

    for s in seeds:
        if len(report.divergences) >= max_divergences:
            break
        report.checks["metamorphic"] = report.checks.get("metamorphic", 0) + 1
        detail = metamorphic_divergence(s)
        if detail:
            report.divergences.append(
                Divergence(
                    check="metamorphic", detail=detail, seed=s,
                    repro=_METAMORPHIC_SCRIPT.format(seed=s),
                )
            )

    pricing_seeds = range(seed, seed + max(1, min(3, n // 20)))
    for s in pricing_seeds:
        if len(report.divergences) >= max_divergences:
            break
        report.checks["dry-run-pricing"] = (
            report.checks.get("dry-run-pricing", 0) + 1
        )
        detail = check_dry_run_pricing(s)
        if detail:
            report.divergences.append(
                Divergence(
                    check="dry-run-pricing", detail=detail, seed=s,
                    repro=_PRICING_SCRIPT.format(seed=s),
                )
            )

    if replay:
        replay_seeds = range(seed, seed + max(1, min(2, n // 40)))
        for scheme in policies:
            for s in replay_seeds:
                if len(report.divergences) >= max_divergences:
                    return report
                if progress:
                    progress(
                        f"replaying {scheme} seed {s} "
                        f"(production view vs reference view)"
                    )
                report.checks["replay"] = report.checks.get("replay", 0) + 1
                detail = replay_divergence(scheme, s)
                if detail:
                    report.divergences.append(
                        Divergence(
                            check="replay", detail=detail, scheme=scheme,
                            seed=s,
                            repro=_REPLAY_SCRIPT.format(scheme=scheme, seed=s),
                        )
                    )
        for scheme in policies:
            s = seed
            if len(report.divergences) >= max_divergences:
                return report
            if progress:
                progress(f"crash-recovering {scheme} seed {s}")
            report.checks["recovery"] = report.checks.get("recovery", 0) + 1
            detail = recovery_divergence(scheme, s)
            if detail:
                report.divergences.append(
                    Divergence(
                        check="recovery", detail=detail, scheme=scheme,
                        seed=s,
                        repro=_RECOVERY_SCRIPT.format(scheme=scheme, seed=s),
                    )
                )
    return report
