#!/usr/bin/env python3
"""Elastic scheduling shoot-out: Lyra vs Gandiva, AFS and Pollux.

Reproduces the §7.4 setting — elastic scaling without capacity loaning —
on a synthetic trace where elastic jobs dominate, and prints the queuing
and JCT distributions per scheme, plus the two-job worked examples from
Tables 2-4 that motivate Lyra's two-phase design.

Run:  python examples/elastic_scaling_comparison.py
"""

from repro.cluster.job import Job, JobSpec
from repro.core.allocation import Pools, allocate_two_phase
from repro.scenarios import (
    apply_scenario,
    default_setup,
    run_scheme,
    with_elastic_fraction,
)


def worked_example() -> None:
    """The Table 4 instance: SJF would favour job B, but favouring job A
    is better for average JCT — Lyra's MCKP finds it."""
    print("Worked example (paper Table 4, 8 GPUs):")
    job_a = Job(JobSpec(job_id=1, submit_time=0, duration=100,
                        max_workers=3, min_workers=2, gpus_per_worker=2,
                        elastic=True))
    job_b = Job(JobSpec(job_id=2, submit_time=0, duration=20,
                        max_workers=6, min_workers=2, gpus_per_worker=1,
                        elastic=True))
    decision = allocate_two_phase([job_a, job_b], [], Pools(training=8))
    extra_a = decision.flex[1]
    extra_b = decision.flex[2]
    print("  base demands admitted: A=2 workers, B=2 workers")
    print(f"  phase-two grants: A +{extra_a} worker(s), B +{extra_b}")
    jct_a = job_a.remaining_time_at(2 + extra_a)
    jct_b = job_b.remaining_time_at(2 + extra_b)
    print(f"  projected running times: A {jct_a:.1f}s, B {jct_b:.1f}s "
          f"(favouring A wins, avg JCT 62 vs 63.3 in the paper)\n")


def main() -> None:
    worked_example()

    setup = default_setup(
        num_jobs=400,
        days=1.5,
        training_servers=16,
        inference_servers=16,
        seed=5,
        target_load=1.0,
    )
    # 60 % of jobs elastic: deep into the Figs. 14-15 sweep where the
    # schedulers separate clearly.
    specs = with_elastic_fraction(
        apply_scenario(setup.workload.specs, "basic"), 0.6, seed=5
    )

    print(f"{'scheme':<16}{'q mean':>9}{'q p95':>9}"
          f"{'jct mean':>10}{'jct p95':>10}{'scale ops':>10}")
    results = {}
    for name, scheme in [
        ("Baseline", "baseline"),
        ("Gandiva", "gandiva"),
        ("AFS", "afs"),
        ("Pollux", "pollux"),
        ("Lyra", "lyra_scaling"),
        ("Lyra+Tuned", "lyra_tuned"),
    ]:
        metrics = run_scheme(setup, scheme, specs=specs)
        results[name] = metrics
        q = metrics.queuing_summary()
        j = metrics.jct_summary()
        print(f"{name:<16}{q.mean:>9,.0f}{q.p95:>9,.0f}"
              f"{j.mean:>10,.0f}{j.p95:>10,.0f}{metrics.scale_ops:>10}")

    base_jct = results["Baseline"].jct_summary().mean
    lyra_jct = results["Lyra"].jct_summary().mean
    print(f"\nLyra JCT reduction over Baseline: {base_jct / lyra_jct:.2f}x")


if __name__ == "__main__":
    main()
