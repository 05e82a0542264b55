"""Resilience sweep: goodput and JCT degradation under fault plans.

Extends ``bench_failure_robustness`` with the declarative
``repro.faults`` machinery: instead of only arming the legacy Poisson
node-failure process, each cell runs under a full :class:`FaultPlan`
(node churn at swept MTBFs, flash crowds at swept magnitudes) and is
scored on *goodput* — useful GPU-hours over useful + wasted — next to
mean JCT.  The sweep answers two questions the paper's evaluation
leaves open:

* how quickly do Lyra's gains erode as faults intensify, relative to
  the static Baseline (Lyra has more moving parts — loaned servers,
  elastic scale-outs — so it has more to lose);
* how much of the fault bill checkpointing pays (Fig. 13's knob,
  re-examined under failures rather than reclaims).

Everything is seeded; the emitted JSON artifact
(``benchmarks/results/bench_resilience.json``) is byte-stable across
runs at a fixed ``REPRO_SCALE``.
"""

from __future__ import annotations

import json
import os

from benchmarks.bench_util import emit, get_setup, run_cached, scale_name
from repro.ioutil import atomic_write
from repro.faults.metrics import resilience_snapshot
from repro.faults.plan import FaultPlan, FlashCrowd, NodeFailureProcess
from repro.scenarios import with_checkpointing_fraction

HOUR = 3600.0

#: node-churn intensities swept (None = fault-free control)
MTBF_SWEEP = ((None, "no faults"), (6 * HOUR, "MTBF 6 h"),
              (2 * HOUR, "MTBF 2 h"))

#: flash-crowd magnitudes swept (fraction of inference capacity)
SPIKE_SWEEP = (0.0, 0.25, 0.5)


def _churn_plan(mtbf: float) -> FaultPlan:
    return FaultPlan(
        name=f"bench-churn-{int(mtbf)}",
        process=NodeFailureProcess(mtbf=mtbf, repair_time=1800.0),
    )


def _spike_plan(magnitude: float, days: float) -> FaultPlan:
    # Two spikes per simulated day, 30 minutes each, offset so they hit
    # different phases of the diurnal cycle.
    crowds = []
    day = 0
    while day < days:
        for offset in (0.35, 0.8):
            at = (day + offset) * 24 * HOUR
            if at < days * 24 * HOUR:
                crowds.append(
                    FlashCrowd(at=at, duration=1800.0, magnitude=magnitude)
                )
        day += 1
    return FaultPlan(name=f"bench-spike-{magnitude:g}",
                     flash_crowds=tuple(crowds))


def _cell(metrics, plan=None) -> dict:
    snap = resilience_snapshot(metrics, plan=plan)
    return {
        "jct_mean": round(metrics.jct_summary().mean, 3),
        "goodput_fraction": snap["goodput"]["goodput_fraction"],
        "wasted_gpu_hours": snap["goodput"]["wasted_gpu_hours"],
        "preemptions": snap["preemptions"],
        "node_failures": snap["node_failures"],
        "completed": round(metrics.completion_ratio(), 4),
    }


def _degradation(cell: dict, control: dict) -> dict:
    return {
        "jct_slowdown": round(
            cell["jct_mean"] / control["jct_mean"], 4
        ) if control["jct_mean"] else None,
        "goodput_drop": round(
            control["goodput_fraction"] - cell["goodput_fraction"], 6
        ),
    }


def build():
    setup = get_setup()
    days = setup.workload.config.days
    artifact = {"scale": scale_name(), "mtbf_sweep": {},
                "spike_sweep": {}, "checkpointing": {}}
    rows = []

    # -- MTBF sweep: Lyra vs Baseline ---------------------------------
    controls = {}
    for mtbf, label in MTBF_SWEEP:
        plan = _churn_plan(mtbf) if mtbf else None
        overrides = {"fault_plan": plan} if plan else {}
        artifact["mtbf_sweep"][label] = {}
        for scheme in ("baseline", "lyra"):
            metrics = run_cached(
                setup, scheme, sim_overrides=overrides or None,
                cache_key=f"resil-{label}",
            )
            cell = _cell(metrics, plan=plan)
            if mtbf is None:
                controls[scheme] = cell
            cell["degradation"] = _degradation(cell, controls[scheme])
            artifact["mtbf_sweep"][label][scheme] = cell
            rows.append([
                label, scheme, cell["node_failures"], cell["preemptions"],
                cell["jct_mean"], cell["goodput_fraction"],
                cell["degradation"]["jct_slowdown"],
                cell["completed"],
            ])

    # -- flash-crowd sweep: Lyra only (Baseline never loans) ----------
    spike_control = None
    for magnitude in SPIKE_SWEEP:
        plan = _spike_plan(magnitude, days) if magnitude else None
        metrics = run_cached(
            setup, "lyra",
            sim_overrides={"fault_plan": plan} if plan else None,
            cache_key=f"resil-spike-{magnitude:g}",
        )
        cell = _cell(metrics, plan=plan)
        if spike_control is None:
            spike_control = cell
        cell["degradation"] = _degradation(cell, spike_control)
        artifact["spike_sweep"][f"{magnitude:g}"] = cell
        rows.append([
            f"spike +{magnitude:g}", "lyra", cell["node_failures"],
            cell["preemptions"], cell["jct_mean"],
            cell["goodput_fraction"],
            cell["degradation"]["jct_slowdown"], cell["completed"],
        ])

    # -- checkpointing under churn ------------------------------------
    # Same workload, same fault plan, run twice: once with checkpointing
    # off everywhere, once with it on everywhere.  Checkpointing turns
    # destroyed-progress restarts into bounded-overhead restarts, so the
    # gap is the fault bill that checkpointing pays (Fig. 13's knob
    # re-examined under failures rather than reclaims).
    plan = _churn_plan(2 * HOUR)
    artifact["checkpointing"] = {"plan": plan.name}
    for fraction, key in ((0.0, "plain"), (1.0, "checkpointing")):
        specs = with_checkpointing_fraction(setup.workload.specs, fraction)
        metrics = run_cached(
            setup, "lyra", sim_overrides={"fault_plan": plan},
            specs=specs, cache_key=f"resil-ckpt-{fraction:g}",
        )
        artifact["checkpointing"][key] = _cell(metrics, plan=plan)

    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with atomic_write(os.path.join(results_dir, "bench_resilience.json")) as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows, artifact


def bench_resilience(benchmark):
    rows, artifact = benchmark.pedantic(build, rounds=1, iterations=1)
    emit(
        "resilience",
        "Extension: goodput/JCT degradation under fault plans",
        ["faults", "scheme", "nodes lost", "preempts", "jct mean",
         "goodput", "jct x", "completed"],
        rows,
        notes=(
            "checkpointing cohorts under MTBF 2 h: "
            f"{artifact['checkpointing']}"
        ),
    )
    mtbf = artifact["mtbf_sweep"]
    # Faults actually fired at the aggressive setting, for both schemes.
    for scheme in ("baseline", "lyra"):
        assert mtbf["MTBF 2 h"][scheme]["node_failures"] > 0
    # Goodput is a fraction, and it only degrades as churn intensifies.
    for _, label in MTBF_SWEEP:
        for scheme in ("baseline", "lyra"):
            assert 0.0 <= mtbf[label][scheme]["goodput_fraction"] <= 1.0
        assert mtbf[label]["lyra"]["completed"] >= 0.99
    assert (
        mtbf["MTBF 2 h"]["lyra"]["goodput_fraction"]
        <= mtbf["no faults"]["lyra"]["goodput_fraction"]
    )
    # Lyra keeps beating Baseline on JCT at every churn level.
    for _, label in MTBF_SWEEP:
        assert mtbf[label]["lyra"]["jct_mean"] < mtbf[label]["baseline"]["jct_mean"]
    # Checkpointing jobs ride out the same fault plan measurably better:
    # lower mean JCT and higher goodput than the non-checkpointing run.
    ckpt = artifact["checkpointing"]
    assert ckpt["checkpointing"]["jct_mean"] < ckpt["plain"]["jct_mean"]
    assert (
        ckpt["checkpointing"]["goodput_fraction"]
        > ckpt["plain"]["goodput_fraction"]
    )
