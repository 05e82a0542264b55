"""Metamorphic properties: invariants across *related* inputs.

Where the reference implementations certify a single decision, these
checks certify relationships between decisions — the class of property
that catches bugs no golden log can, because both runs of a buggy
implementation drift together.  Each check returns ``None`` when the
property holds, or a human-readable divergence description.
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.cluster.gpu import V100
from repro.cluster.server import Server
from repro.core.mckp import solve_mckp
from repro.core.reclaim import plan_reclaim_lyra
from repro.oracle.reference import plan_reclaim_bruteforce


def check_capacity_monotonic(instance) -> Optional[str]:
    """Adding an idle candidate server never increases preemptions.

    Holds for the greedy (the extra server is vacated for free in phase
    zero, after which the selection sequence is unchanged but stops one
    server earlier) and trivially for the exhaustive optimum (every old
    plan is still available).
    """
    servers, jobs = instance.build()
    extra = Server(
        server_id="zz-idle", gpu_type=V100, on_loan=True,
        home_cluster="inference",
    )
    base = plan_reclaim_lyra(servers, jobs, instance.count)
    grown = plan_reclaim_lyra(servers + [extra], jobs, instance.count)
    if grown.num_preemptions > base.num_preemptions:
        return (
            f"adding an idle candidate raised greedy preemptions "
            f"{base.num_preemptions} -> {grown.num_preemptions}"
        )
    opt_base = plan_reclaim_bruteforce(servers, jobs, instance.count)
    opt_grown = plan_reclaim_bruteforce(
        servers + [extra], jobs, instance.count
    )
    if opt_grown.num_preemptions > opt_base.num_preemptions:
        return (
            f"adding an idle candidate raised optimal preemptions "
            f"{opt_base.num_preemptions} -> {opt_grown.num_preemptions}"
        )
    return None


def check_permutation_invariance(instance, seed: int = 0) -> Optional[str]:
    """Permuting the candidate order never changes the plan's cost.

    The greedy breaks every tie down to the server id, so its *entire
    plan* must be order-independent; the exhaustive search breaks ties
    by enumeration order, so only its preemption count is pinned.
    """
    servers, jobs = instance.build()
    ref = plan_reclaim_lyra(servers, jobs, instance.count)
    ref_optimal = plan_reclaim_bruteforce(servers, jobs, instance.count)
    rng = random.Random(seed)
    for _ in range(3):
        shuffled = servers[:]
        rng.shuffle(shuffled)
        plan = plan_reclaim_lyra(shuffled, jobs, instance.count)
        if (
            plan.servers != ref.servers
            or plan.preempted_jobs != ref.preempted_jobs
        ):
            return (
                f"greedy plan depends on candidate order: "
                f"{ref.servers}/{sorted(ref.preempted_jobs)} vs "
                f"{plan.servers}/{sorted(plan.preempted_jobs)}"
            )
        optimal = plan_reclaim_bruteforce(shuffled, jobs, instance.count)
        if optimal.num_preemptions != ref_optimal.num_preemptions:
            return (
                f"optimal preemption count depends on candidate order: "
                f"{ref_optimal.num_preemptions} vs "
                f"{optimal.num_preemptions}"
            )
    return None


def check_mckp_permutation(instance, seed: int = 0) -> Optional[str]:
    """Permuting MCKP groups (or items) never changes the optimal value.

    The first permutation moves whole groups only, so a ladder stays a
    ladder; the others shuffle the items too, which sends it to the
    table — the solver's path and its fallback must agree.
    """
    groups, capacity = instance.build()
    base_value, _ = solve_mckp(groups, capacity)
    rng = random.Random(seed)
    for attempt in range(3):
        shuffled = [group[:] for group in groups]
        if attempt:
            for group in shuffled:
                rng.shuffle(group)
        rng.shuffle(shuffled)
        value, _ = solve_mckp(shuffled, capacity)
        if not math.isclose(value, base_value, rel_tol=1e-9, abs_tol=1e-9):
            return (
                f"MCKP value depends on group order: {base_value!r} vs "
                f"{value!r}"
            )
    return None


def check_dry_run_pricing(
    seed: int, scheme: str = "lyra", at: float = 41_000.0, demand: int = 2
) -> Optional[str]:
    """Dry-run pricing equals the committed plan's observed deltas.

    Builds a small loaning simulation, stops it mid-run, prices a
    reclaim plan as a dry run (which must leave the simulation
    untouched), then re-plans — determinism requires the identical plan
    — commits it, and compares the observed preemption and reclaim
    deltas against the dry-run receipt.  Returns ``None`` vacuously when
    the probe point has nothing on loan.
    """
    from repro.scenarios import build_sim, default_setup

    setup = default_setup(
        num_jobs=40, days=0.5, training_servers=3, inference_servers=5,
        seed=seed, target_load=3.0,
    )
    sim = build_sim(setup, scheme, seed=seed)
    sim.run(until=at)
    loaned = sim.pair.loaned_count
    if loaned == 0:
        return None
    demand = min(demand, loaned)

    plan = sim.orchestrator.plan_reclaim(sim, demand)
    priced_kinds = plan.by_kind()
    receipt = sim.executor.apply(plan, dry_run=True)
    pricing = receipt.pricing
    if sim.pair.loaned_count != loaned:
        return "dry run changed the loaned-server count"

    before_preemptions = sim.metrics.preemptions
    replan = sim.orchestrator.plan_reclaim(sim, demand)
    if replan.by_kind() != priced_kinds:
        return (
            f"re-planning after a dry run produced a different plan: "
            f"{priced_kinds} vs {replan.by_kind()}"
        )
    sim.executor.apply(replan)
    committed_preemptions = sim.metrics.preemptions - before_preemptions
    committed_reclaims = loaned - sim.pair.loaned_count
    if committed_preemptions != pricing["preemptions"]:
        return (
            f"dry-run priced {pricing['preemptions']} preemption(s) but "
            f"committing the same plan caused {committed_preemptions}"
        )
    if committed_reclaims != pricing["servers_reclaimed"]:
        return (
            f"dry-run priced {pricing['servers_reclaimed']} reclaimed "
            f"server(s) but committing the same plan returned "
            f"{committed_reclaims}"
        )
    return None
