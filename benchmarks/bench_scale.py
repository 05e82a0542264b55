"""Scheduling-epoch latency at cluster scale.

Runs a seeded workload through the simulator and reports the mean
wall-clock cost of one scheduling epoch (the ``scheduler.tick`` phase
of the kernel's always-on phase clock) per (scale, scheme) cell.  Every
cell is run twice and the two activity logs must be byte-identical —
the digest check that catches any nondeterminism in the view or the
placement walk; the faster of the two runs is reported.

Not a pytest bench: run it directly.

    python benchmarks/bench_scale.py                 # full sweep, minutes
    python benchmarks/bench_scale.py --quick         # CI smoke, seconds
    python benchmarks/bench_scale.py --xl \\
        --out benchmarks/results/BENCH_scale_array.json   # 16k/200k tier
    python benchmarks/bench_scale.py --quick \\
        --baseline benchmarks/results/BENCH_scale_quick_baseline.json

The ``--xl`` tier (16,384 servers / 200,000 jobs) additionally enforces a
sub-150 ms mean epoch.  (An XL epoch is not idle bookkeeping: it admits
and places ~200 jobs, each an inherently sequential plan commit, so the
absolute bar guards against scan regressions rather than claiming
interactive latency — measured means are 28-34 ms, 63-104 ms before
placement became one argmin; the per-epoch object scans this view
replaced sat at 1.9-2.7 s here.)
Every tier also generates the paper-shaped trace (15 days, 50,390 jobs,
3,544 training GPUs, §7.1) once and records it as ``generation``: the
seconds it took (``gen_s``), its job count and the sha256 of its specs.
Results land in ``BENCH_scale.json`` (override with ``--out``).
With ``--baseline`` the run fails when any cell's mean epoch latency
regresses past 2x the committed baseline, or when its activity-log
``sha256`` differs from the baseline cell's — a faster epoch that
decides differently is not a speed-up — and likewise when ``gen_s``
is over 2x the baseline's or ``specs_sha256`` differs from it.  (The
generator adds its float totals left to right, never with ``sum``,
compensated since CPython 3.12, so ``specs_sha256`` is the same on
every interpreter.)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.cluster.cluster import (  # noqa: E402
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.ioutil import atomic_write  # noqa: E402
from repro.obs.tracer import PHASE_SCHEDULER_TICK  # noqa: E402
from repro.schedulers.fifo import FIFOScheduler, SJFScheduler  # noqa: E402
from repro.simulator.simulation import (  # noqa: E402
    Simulation,
    SimulationConfig,
)
from repro.traces.workload import (  # noqa: E402
    TraceConfig,
    generate_workload,
)

SCHEMES = {"fifo": FIFOScheduler, "sjf": SJFScheduler}

#: (training servers, jobs) per sweep point; the largest full-sweep
#: point is the original acceptance scale (>= 2,000 / >= 20,000).
FULL_SCALES = [(256, 2500), (1024, 10000), (2048, 20000)]
QUICK_SCALES = [(48, 500), (128, 1200)]
XL_SCALES = [(16384, 200000)]

DAYS = 0.25
SEED = 11
TARGET_LOAD = 0.8
REGRESSION_FACTOR = 2.0
#: --xl absolute regression guard.  At this scale one epoch admits and
#: places ~200 jobs (200k jobs / 944 epochs), each a sequential plan
#: commit, so the bar is ~1.5x the measured ~104 ms mean — loose enough
#: for machine noise, tight enough that any return of a per-epoch
#: O(servers) or O(pending) Python scan (1.9-2.7 s here) trips it
#: immediately.
XL_MAX_MEAN_MS = 150.0
#: The paper's trace (§7.1), generated once per run.
PAPER_TRACE = TraceConfig(num_jobs=50390, days=15.0, cluster_gpus=3544)


def _digest(activities) -> str:
    h = hashlib.sha256()
    for a in activities:
        h.update(a.line().encode())
    return h.hexdigest()


def _run_once(specs, servers: int, scheme: str):
    pair = ClusterPair(
        make_training_cluster(servers), make_inference_cluster(4)
    )
    sim = Simulation(
        specs,
        pair,
        SCHEMES[scheme](),
        config=SimulationConfig(record_activities=True),
    )
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    calls, total, _ = sim.phase_stats.get(PHASE_SCHEDULER_TICK, (0, 0.0, 0.0))
    return sim, {
        "wall_s": round(wall, 3),
        "epoch_total_s": round(total, 3),
        "epochs": calls,
        "mean_ms": round(1e3 * total / calls, 4) if calls else 0.0,
        "epochs_skipped": sim._epochs_skipped,
    }


def run_cell(servers: int, jobs: int, scheme: str) -> dict:
    specs = generate_workload(
        TraceConfig(
            num_jobs=jobs,
            days=DAYS,
            cluster_gpus=servers * 8,
            seed=SEED,
            target_load=TARGET_LOAD,
        )
    ).specs
    runs, digests = [], []
    for _ in range(2):
        sim, stats = _run_once(specs, servers, scheme)
        runs.append(stats)
        digests.append(_digest(sim.activities))
        events = len(sim.activities)
        del sim
    return {
        "servers": servers,
        "jobs": jobs,
        "scheme": scheme,
        **min(runs, key=lambda r: r["mean_ms"]),
        "events": events,
        "logs_identical": digests[0] == digests[1],
        "sha256": digests[0],
    }


def run_generation() -> dict:
    start = time.perf_counter()
    specs = generate_workload(PAPER_TRACE).specs
    gen_s = time.perf_counter() - start
    return {
        "gen_s": round(gen_s, 3),
        "jobs": len(specs),
        "specs_sha256": hashlib.sha256(
            "\n".join(map(repr, specs)).encode()
        ).hexdigest(),
    }


def check_baseline(cells, baseline_path: str, generation=None) -> list:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    ref = {
        (c["servers"], c["jobs"], c["scheme"]): c for c in baseline["cells"]
    }
    failures = []
    for cell in cells:
        key = (cell["servers"], cell["jobs"], cell["scheme"])
        if key not in ref:
            continue
        mean_ms = ref[key]["mean_ms"]
        if cell["mean_ms"] > REGRESSION_FACTOR * mean_ms:
            failures.append(
                f"{key}: mean {cell['mean_ms']:.3f} ms "
                f"> {REGRESSION_FACTOR}x baseline {mean_ms:.3f} ms"
            )
        if cell["sha256"] != ref[key]["sha256"]:
            failures.append(
                f"{key}: activity log sha256 {cell['sha256'][:12]}... "
                f"!= baseline {ref[key]['sha256'][:12]}..."
            )
    ref_gen = baseline.get("generation")
    if generation is not None and ref_gen is not None:
        if generation["gen_s"] > REGRESSION_FACTOR * ref_gen["gen_s"]:
            failures.append(
                f"generation: {generation['gen_s']:.3f} s "
                f"> {REGRESSION_FACTOR}x baseline {ref_gen['gen_s']:.3f} s"
            )
        if generation["specs_sha256"] != ref_gen["specs_sha256"]:
            failures.append(
                f"generation: specs sha256 {generation['specs_sha256'][:12]}... "
                f"!= baseline {ref_gen['specs_sha256'][:12]}..."
            )
    return failures


def _print_cell(cell: dict) -> None:
    print(
        f"{cell['scheme']:4s} {cell['servers']:5d} servers "
        f"{cell['jobs']:6d} jobs  mean epoch {cell['mean_ms']:8.3f} ms  "
        f"({cell['epochs']} epochs, {cell['wall_s']:.1f} s wall)  "
        f"identical={cell['logs_identical']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small scales for CI smoke runs")
    parser.add_argument("--xl", action="store_true",
                        help="the 16k-server / 200k-job acceptance tier")
    parser.add_argument("--out", default="BENCH_scale.json",
                        help="result JSON path")
    parser.add_argument("--baseline",
                        help="committed baseline JSON; fail on >2x "
                             "epoch-latency or generation-time regression, "
                             "a changed activity-log sha256 in any cell or "
                             "a changed generated-trace sha256")
    args = parser.parse_args(argv)
    if args.quick and args.xl:
        parser.error("--quick and --xl are mutually exclusive")

    if args.xl:
        scales = XL_SCALES
    elif args.quick:
        scales = QUICK_SCALES
    else:
        scales = FULL_SCALES

    generation = run_generation()
    print(
        f"generation  {generation['jobs']} jobs (paper shape) in "
        f"{generation['gen_s']:.3f} s"
    )
    cells = []
    for servers, jobs in scales:
        for scheme in sorted(SCHEMES):
            cell = run_cell(servers, jobs, scheme)
            cells.append(cell)
            _print_cell(cell)

    result = {
        "config": {
            "days": DAYS,
            "seed": SEED,
            "target_load": TARGET_LOAD,
            "quick": args.quick,
            "xl": args.xl,
        },
        "generation": generation,
        "cells": cells,
        "all_logs_identical": all(c["logs_identical"] for c in cells),
        "max_mean_ms": max(c["mean_ms"] for c in cells),
    }
    with atomic_write(args.out) as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not result["all_logs_identical"]:
        print("FAIL: two runs of one cell produced different activity logs",
              file=sys.stderr)
        return 1
    if args.xl and result["max_mean_ms"] > XL_MAX_MEAN_MS:
        print(
            f"FAIL: mean epoch {result['max_mean_ms']:.3f} ms exceeds "
            f"the {XL_MAX_MEAN_MS} ms bar",
            file=sys.stderr,
        )
        return 1
    if args.baseline:
        failures = check_baseline(cells, args.baseline, generation)
        if failures:
            for line in failures:
                print(f"FAIL: {line}", file=sys.stderr)
            return 1
        print(f"baseline check passed ({args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
