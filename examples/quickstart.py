#!/usr/bin/env python3
"""Quickstart: schedule a synthetic workload with Lyra and compare it to
the FIFO baseline.

Builds a small training + inference cluster pair, generates a calibrated
one-day trace, runs the Baseline FIFO scheduler and the full Lyra system
(capacity loaning + elastic scaling), and prints the headline metrics the
paper reports: queuing time, JCT, GPU usage, and preemption ratio.

Run:  python examples/quickstart.py
"""

from repro.scenarios import default_setup, run_scheme
from repro.simulator.metrics import reduction


def main() -> None:
    # A scaled-down analogue of the paper's clusters: 16 training and 20
    # inference 8-GPU servers, ~400 jobs over one day at high load.
    setup = default_setup(
        num_jobs=400,
        days=1.0,
        training_servers=16,
        inference_servers=20,
        seed=1,
        target_load=1.0,
    )
    workload = setup.workload
    print(
        f"workload: {len(workload.specs)} jobs over "
        f"{workload.config.days:.0f} day(s), offered load "
        f"{workload.offered_load():.2f}, elastic share "
        f"{workload.elastic_share():.0%}, fungible jobs "
        f"{workload.fungible_fraction():.0%}"
    )

    baseline = run_scheme(setup, "baseline")
    lyra = run_scheme(setup, "lyra")

    print(f"\n{'metric':<28}{'Baseline':>12}{'Lyra':>12}")
    rows = [
        ("mean queuing time (s)",
         baseline.queuing_summary().mean, lyra.queuing_summary().mean),
        ("95%ile queuing time (s)",
         baseline.queuing_summary().p95, lyra.queuing_summary().p95),
        ("mean JCT (s)",
         baseline.jct_summary().mean, lyra.jct_summary().mean),
        ("95%ile JCT (s)",
         baseline.jct_summary().p95, lyra.jct_summary().p95),
        ("training GPU usage",
         baseline.training_usage.mean(), lyra.training_usage.mean()),
        ("overall GPU usage",
         baseline.overall_usage.mean(), lyra.overall_usage.mean()),
        ("preemption ratio",
         baseline.preemption_ratio, lyra.preemption_ratio),
    ]
    for name, base, ours in rows:
        print(f"{name:<28}{base:>12,.2f}{ours:>12,.2f}")

    print(
        f"\nLyra reductions vs Baseline: "
        f"{reduction(baseline.queuing_summary().mean, lyra.queuing_summary().mean):.2f}x queuing, "
        f"{reduction(baseline.jct_summary().mean, lyra.jct_summary().mean):.2f}x JCT "
        f"(paper: 1.53x / 1.48x at full scale)"
    )
    print(
        f"loan operations: {len(lyra.loan_ops)}, "
        f"reclaim operations: {len(lyra.reclaim_ops)}, "
        f"elastic scale operations: {lyra.scale_ops}"
    )


if __name__ == "__main__":
    main()
