"""Bootstrap resampling of job traces (Fig. 12).

The paper validates reproducibility by composing ten 10-day traces from the
full 15-day trace with the bootstrapping technique: days are sampled with
replacement and their jobs stitched into a new trace.  The same procedure
is implemented here over synthetic traces.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Tuple

import numpy as np

from repro.cluster.job import JobSpec
from repro.traces.workload import DAY, Workload


def bootstrap_trace(
    workload: Workload, days: int = 10, seed: int = 0
) -> Workload:
    """Compose a ``days``-day trace by sampling whole days with replacement.

    Jobs keep their within-day submission offset; ids are renumbered so
    the result is a standalone trace.  The cluster configuration is
    inherited from the source workload.
    """
    if days < 1:
        raise ValueError(f"days must be >= 1, got {days}")
    rng = np.random.default_rng(seed)
    source_days = int(workload.config.days)
    if source_days < 1:
        raise ValueError("source workload must span at least one full day")

    by_day: List[List[JobSpec]] = [[] for _ in range(source_days)]
    for spec in workload.specs:
        day = int(spec.submit_time // DAY)
        if day < source_days:
            by_day[day].append(spec)

    sampled = rng.integers(0, source_days, size=days)
    placed: List[Tuple[float, JobSpec]] = []
    for new_day, src_day in enumerate(sampled):
        for spec in by_day[int(src_day)]:
            offset = spec.submit_time - src_day * DAY
            placed.append((new_day * DAY + offset, spec))
    placed.sort(key=lambda p: p[0])
    specs = [
        replace(spec, job_id=i, submit_time=submit)
        for i, (submit, spec) in enumerate(placed)
    ]
    config = replace(workload.config, num_jobs=max(1, len(specs)), days=float(days),
                     seed=seed)
    return Workload(specs=specs, config=config)


def bootstrap_traces(
    workload: Workload, count: int = 10, days: int = 10, seed: int = 0
) -> List[Workload]:
    """The Fig. 12 ensemble: ``count`` independent bootstrapped traces."""
    return [
        bootstrap_trace(workload, days=days, seed=seed * 1000 + i)
        for i in range(count)
    ]
