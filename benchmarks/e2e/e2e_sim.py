"""The four simulator workloads: generated trace -> ``Simulation.run()``.

One *sample* is one generated trace run to completion.  The time a
trace takes depends on the trace far more than on the machine (on these
sizes it spreads 4-25 % across traces, quartile distance over median),
so a run times a fixed number of different traces and reports the
median.  Which traces is decided by ``--seed`` alone: the sample count
per workload is fixed in :data:`SIZES`, identical on every commit, and
never depends on how fast the code under test is, so two commits are
always measured on the same inputs.  The first sample runs twice - once
before the timed samples as warm-up - and the two must agree exactly
(simulated metrics and activity-log digest).

Everything is built through ``repro.scenarios.default_setup`` /
``build_sim``; nothing here names a view backend, a policy class or a
cluster type, so a later backend deletion or module split leaves the
workloads intact.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import time

import e2e_spans
from e2e_metrics import layer_metrics

#: (scheme, market spec, default_setup arguments, timed samples per run).
#: Spans are short and job counts high on purpose: a trace compressed
#: into hours has short jobs and many of them, which keeps one sample
#: near a second and its run time far steadier across traces than the
#: multi-day traces of the same shape (a 5-day trace at load 1.0 varies
#: several-fold by seed).  Sample counts fill the 15 s window
#: ``BENCHMARK.json`` gives a run (warm-up included) on the 2-core
#: machine the baseline was taken on.
SIZES = {
    "lyra_pair": ("lyra", None, dict(
        num_jobs=2500, days=0.5, training_servers=64, inference_servers=76,
        target_load=1.0), 9),
    "lyra_wide": ("lyra", None, dict(
        num_jobs=1500, days=0.15, training_servers=512,
        inference_servers=600, target_load=0.8), 9),
    "sjf_wide": ("sjf", None, dict(
        num_jobs=8000, days=0.25, training_servers=1024, inference_servers=4,
        target_load=0.8), 7),
    "lyra_market": ("lyra", "3x3", dict(
        num_jobs=1000, days=0.25, training_servers=32, inference_servers=160,
        target_load=2.0), 17),
}

SMOKE_SIZES = {
    "lyra_pair": ("lyra", None, dict(
        num_jobs=120, days=0.25, training_servers=8, inference_servers=10,
        target_load=1.0), 2),
    "lyra_wide": ("lyra", None, dict(
        num_jobs=120, days=0.1, training_servers=48, inference_servers=56,
        target_load=0.8), 2),
    "sjf_wide": ("sjf", None, dict(
        num_jobs=300, days=0.1, training_servers=64, inference_servers=4,
        target_load=0.8), 2),
    "lyra_market": ("lyra", "3x3", dict(
        num_jobs=120, days=0.2, training_servers=9, inference_servers=45,
        target_load=2.0), 2),
}

#: Trace seeds come from ``range(POOL)`` minus :data:`LIVELOCKED`, so
#: every trace a run can ever draw has been run once at these sizes (on
#: the commit that added the benchmark) and finished every job.
POOL = 256

#: Pool seeds on which today's program never finishes a job.  A late
#: fungible elastic job is promised on-loan capacity by phase 1's
#: normalised-GPU arithmetic that cannot physically host its workers
#: (one 6-GPU worker per 8-GPU on-loan server), the orchestrator keeps
#: exactly that many servers on loan, and the job is retried every epoch
#: with the training cluster idle until the drain limit.  A defect of
#: the program, not of the trace (README.md); the benchmark must run
#: workloads on which nothing fails, so it does not draw these.  On any
#: other seed an unfinished job is counted as failed.
LIVELOCKED = {
    "lyra_pair": (),
    "lyra_wide": (80, 90, 160, 205),
    "sjf_wide": (),
    "lyra_market": (),
}

#: The longest any pool trace takes to drain after its last arrival is
#: 6.3 simulated hours (``lyra_market``).  The program's default cut-off
#: is 30 days, which a livelocked job spends as 43,200 empty epochs -
#: minutes of wall time; with this one a new livelock costs seconds and
#: shows as failed jobs instead of a timeout.
DRAIN_LIMIT_S = 2 * 86400.0

#: a run this many times over its ``--seconds`` window gives up
OVERRUN = 6


def sub_seeds(name: str, seed: int, count: int) -> list:
    """The ``count`` trace seeds run number ``seed`` uses."""
    pool = [s for s in range(POOL) if s not in LIVELOCKED[name]]
    return [pool[(seed * count + k) % len(pool)] for k in range(count)]


def _sim_overrides() -> dict:
    """Ask for an option only while ``SimulationConfig`` still has it."""
    from repro.simulator.simulation import SimulationConfig

    fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    wanted = {"view_backend": "array", "drain_limit": DRAIN_LIMIT_S}
    overrides = {"record_activities": True}
    overrides.update((k, v) for k, v in wanted.items() if k in fields)
    return overrides


def _digest(activities) -> str:
    """Same line format as the golden-log digests in ``tests/`` and
    ``benchmarks/bench_scale.py``, which keep private copies too; this
    directory imports nothing from outside ``src/``."""
    h = hashlib.sha256()
    for a in activities:
        h.update(
            f"{a.time!r}|{a.kind.value}|{a.job_id!r}|{a.detail!r}\n".encode()
        )
    return h.hexdigest()


def _check(sim) -> int:
    """Jobs not finished exactly once; raises on broken books."""
    from repro.cluster.job import JobStatus
    from repro.simulator.events import EventKind

    finishes = {}
    for a in sim.activities:
        if a.kind is EventKind.FINISH:
            finishes[a.job_id] = finishes.get(a.job_id, 0) + 1
    failed = sum(
        1 for job_id, job in sim.jobs.items()
        if finishes.get(job_id, 0) != 1 or job.status is not JobStatus.FINISHED
    )
    sim.rm.verify_books()
    view = getattr(sim, "view", None)
    if view is not None and hasattr(view, "assert_consistent"):
        view.assert_consistent()
    return failed


def run_sample(size, sub_seed: int, traced: bool) -> dict:
    """Generate one trace, build the simulation, run it, check it."""
    from repro.scenarios import build_sim, default_setup

    scheme, market_spec, setup_args, _ = size
    # wrappers go in before anything is built and come out afterwards
    installed = e2e_spans.install() if traced else None
    # The previous sample's simulation is cyclic garbage; collected now,
    # it is not collected at some trace-dependent moment inside this
    # sample's set-up (+20 ms on a 60 ms set-up) or on top of its peak.
    gc.collect()
    try:
        t0 = time.perf_counter()
        setup = default_setup(seed=sub_seed, **setup_args)
        market = None
        if market_spec is not None:
            from repro.market import market_config_from_spec

            market = market_config_from_spec(market_spec)
        sim = build_sim(
            setup, scheme, "basic", seed=sub_seed, market=market,
            sim_overrides=_sim_overrides(),
        )
        setup_s = time.perf_counter() - t0
        c0, w0 = time.process_time(), time.perf_counter()
        metrics = sim.run()
        run_wall_s = time.perf_counter() - w0
        cpu_s = time.process_time() - c0
    finally:
        if installed is not None:
            installed.restore()
    sample = {
        "sub_seed": sub_seed,
        "setup_s": setup_s,
        "run_wall_s": run_wall_s,
        "cpu_s": cpu_s,
        "jobs": len(sim.jobs),
        "failed": _check(sim),
        "digest": _digest(sim.activities),
        "simulated": {
            "jct_mean_s": metrics.jct_summary().mean,
            "queue_mean_s": metrics.queuing_summary().mean,
            "preemption_ratio": metrics.preemption_ratio,
        },
    }
    if installed is not None:
        summary = e2e_spans.summarise(installed.recorder)
        layers = layer_metrics(summary)
        if hasattr(sim.pair, "market_snapshot"):
            book = sim.pair.market_snapshot()
            layers["market.contracts_opened"] = book["contracts_opened"]
            layers["market.early_recalls"] = book["early_recalls"]
        sample["layers"] = layers
        # every span is under the Simulation.run root or in set-up, so
        # the self times under the root add up to the root by
        # construction; what can drift is the root against the wall
        # clock read outside the wrapper
        under_root = sum(
            v["self_s"] for k, v in summary["by_name"].items() if k != "traces"
        )
        sample["layer_sum_share"] = under_root / run_wall_s
        sample["missing_targets"] = installed.missing
    return sample


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool = False,
) -> dict:
    """Warm-up, then the workload's fixed number of timed samples.

    ``seconds`` is the window the sample counts were sized for, and here
    only a sanity cap: a run that has used :data:`OVERRUN` times as much
    stops and reports the samples it skipped as failed, so it still ends
    well inside the driver's time limit.
    """
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    seeds = sub_seeds(name, seed, size[3])
    began = time.perf_counter()
    problems = []

    # The first sample runs twice: once untraced before the timed
    # samples.  That warm-up fills caches, is the determinism reference
    # for its timed repeat, and in a traced run is the untraced wall
    # time the tracing overhead is taken against.
    warm = run_sample(size, seeds[0], traced=False)
    if traced:  # the overhead reference must itself be warm
        warm = run_sample(size, seeds[0], traced=False)
    samples = []
    for sub_seed in seeds:
        if samples and time.perf_counter() - began > OVERRUN * seconds:
            break
        samples.append(run_sample(size, sub_seed, traced))

    failed = warm["failed"] + sum(s["failed"] for s in samples)
    if failed:
        problems.append(f"{failed} job(s) not finished exactly once")
    first = samples[0]
    if (first["digest"], first["simulated"]) != (
        warm["digest"], warm["simulated"]
    ):
        problems.append(
            "sample 0 did not repeat: activity log or simulated metrics differ"
        )
        failed += first["jobs"]
    skipped = len(seeds) - len(samples)
    if skipped:
        problems.append(
            f"{skipped} sample(s) not run: the run used more than "
            f"{OVERRUN} x its {seconds:g} s window"
        )
        failed += skipped * warm["jobs"]
    if traced:
        worst = max(abs(s["layer_sum_share"] - 1.0) for s in samples)
        if worst > 0.05:
            problems.append(
                f"layer self times miss the traced run wall by {worst:.1%}"
            )
    return {
        "warmup": warm,
        "samples": samples,
        "attempted": warm["jobs"] * (1 + len(seeds)),
        "failed": failed,
        "problems": problems,
    }
