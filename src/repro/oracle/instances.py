"""Seeded random instances for the oracles, and the divergence minimizer.

Every generator produces a plain, hashable *spec* rather than live
objects, because a divergence report needs three things from its input:
it must rebuild deterministically (``build()``), shrink structurally
(``shrinks()`` feeds the ddmin-style :func:`minimize`), and print as a
runnable repro script (``to_script()``) — the dataclass ``repr`` of a
spec is valid constructor syntax, so the script embeds the minimized
instance as a literal.

Generators deliberately cover the regions where the production paths
historically diverged from the spec: non-fungible elastic jobs against a
dry training pool (phase two solves over the combined pool), jobs whose
per-server GPU cost differs across hosts (the GPU_FRACTION index/loop
drift), multi-server jobs whose preemption cascades vacate several
candidates at once, MCKP groups with
zero-weight items, negative values and empty groups, and MCKP instances
whose demand fits whole or whose groups are ladders, with the exact
ties, 1-ulp near-ties and rounding-absorbed values that decide
``solve_whole``'s and ``solve_ladder``'s certificates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.cluster.gpu import V100
from repro.cluster.job import Job, JobSpec
from repro.cluster.server import Server
from repro.core.allocation import Pools

#: (job_id, server_id, workers, flexible, gpu_cost)
Placement = Tuple[int, str, int, bool, int]
#: (job_id, duration, min_workers, max_workers, gpus_per_worker,
#:  elastic, fungible, heterogeneous, running, progress)
JobTuple = Tuple[int, float, int, int, int, bool, bool, bool, bool, float]

_SCRIPT_HEADER = (
    "# minimized repro — run from the repo root with PYTHONPATH=src\n"
    "from repro.oracle.conformance import {check}\n"
    "from repro.oracle.instances import {cls}\n"
    "\n"
    "instance = {spec!r}\n"
    "print({check}(instance) or 'no divergence')\n"
)


@dataclass(frozen=True)
class ReclaimInstance:
    """A reclaim decision problem: on-loan servers, placements, a demand."""

    num_servers: int
    placements: Tuple[Placement, ...]
    count: int
    gpus_per_server: int = 8

    def build(self) -> Tuple[List[Server], Dict[int, Job]]:
        servers = {
            f"r{i}": Server(
                server_id=f"r{i}",
                gpu_type=V100,
                num_gpus=self.gpus_per_server,
                on_loan=True,
                home_cluster="inference",
            )
            for i in range(self.num_servers)
        }
        jobs: Dict[int, Job] = {}
        for job_id, sid, workers, flexible, gpu_cost in self.placements:
            if job_id not in jobs:
                jobs[job_id] = Job(
                    JobSpec(
                        job_id=job_id,
                        submit_time=0.0,
                        duration=1000.0,
                        min_workers=1,
                        max_workers=64,
                        gpus_per_worker=1,
                        elastic=True,
                        fungible=True,
                    )
                )
            jobs[job_id].record_placement(
                sid, workers, flexible=flexible, gpu_cost=gpu_cost,
                on_loan=True,
            )
            servers[sid].allocate(job_id, workers * gpu_cost)
        return list(servers.values()), jobs

    def shrinks(self) -> Iterator["ReclaimInstance"]:
        job_ids = sorted({p[0] for p in self.placements})
        for job_id in job_ids:  # drop a whole job
            rest = tuple(p for p in self.placements if p[0] != job_id)
            yield ReclaimInstance(
                self.num_servers, rest, self.count, self.gpus_per_server
            )
        for i in range(len(self.placements)):  # drop one placement
            rest = self.placements[:i] + self.placements[i + 1:]
            yield ReclaimInstance(
                self.num_servers, rest, self.count, self.gpus_per_server
            )
        if self.count > 1:
            yield ReclaimInstance(
                self.num_servers, self.placements, self.count - 1,
                self.gpus_per_server,
            )
        last = f"r{self.num_servers - 1}"
        if self.num_servers > 1 and all(p[1] != last for p in self.placements):
            yield ReclaimInstance(  # drop a trailing idle server
                self.num_servers - 1, self.placements,
                min(self.count, self.num_servers - 1), self.gpus_per_server,
            )

    def to_script(self, check: str) -> str:
        return _SCRIPT_HEADER.format(
            check=check, cls="ReclaimInstance", spec=self
        )


def gen_reclaim_instance(seed: int) -> ReclaimInstance:
    rng = random.Random(seed)
    num_servers = rng.randint(3, 7)
    free = {f"r{i}": 8 for i in range(num_servers)}
    placements: List[Placement] = []
    for job_id in range(rng.randint(2, 7)):
        used: Dict[str, int] = {}
        span = rng.sample(sorted(free), k=min(len(free), rng.randint(1, 3)))
        for sid in span:
            gpu_cost = rng.choice((1, 1, 2))
            workers = rng.randint(1, 3)
            if workers * gpu_cost <= free[sid]:
                free[sid] -= workers * gpu_cost
                placements.append((job_id, sid, workers, False, gpu_cost))
                used[sid] = gpu_cost
        if used and rng.random() < 0.4:  # elastic surplus on a fresh host
            spare = [
                s for s in sorted(free) if s not in used and free[s] >= 1
            ]
            if spare:
                sid = rng.choice(spare)
                gpu_cost = rng.choice((1, 2))
                workers = min(rng.randint(1, 2), free[sid] // gpu_cost)
                if workers:
                    free[sid] -= workers * gpu_cost
                    placements.append((job_id, sid, workers, True, gpu_cost))
    count = rng.randint(1, max(1, num_servers - 1))
    return ReclaimInstance(
        num_servers=num_servers, placements=tuple(placements), count=count
    )


@dataclass(frozen=True)
class MCKPInstance:
    """A multiple-choice knapsack instance as ``(weight, value)`` tuples —
    the item shape phase two passes the solver."""

    groups: Tuple[Tuple[Tuple[int, float], ...], ...]
    capacity: int

    def build(self) -> Tuple[List[List[Tuple[int, float]]], int]:
        return [list(group) for group in self.groups], self.capacity

    def shrinks(self) -> Iterator["MCKPInstance"]:
        for g in range(len(self.groups)):  # drop a group
            yield MCKPInstance(
                self.groups[:g] + self.groups[g + 1:], self.capacity
            )
        for g, group in enumerate(self.groups):  # drop one item
            for i in range(len(group)):
                smaller = group[:i] + group[i + 1:]
                yield MCKPInstance(
                    self.groups[:g] + (smaller,) + self.groups[g + 1:],
                    self.capacity,
                )
        if self.capacity > 0:
            yield MCKPInstance(self.groups, self.capacity // 2)

    def to_script(self, check: str) -> str:
        return _SCRIPT_HEADER.format(check=check, cls="MCKPInstance", spec=self)


def gen_mckp_instance(seed: int) -> MCKPInstance:
    """A third of the instances fit whole, a third are ladders, and a
    third are unshaped — one class per path of ``solve_mckp``."""
    rng = random.Random(seed)
    roll = rng.random()
    if roll < 1 / 3:
        return _gen_whole_mckp_instance(rng)
    if roll < 2 / 3:
        return _gen_ladder_mckp_instance(rng)
    groups = []
    for _ in range(rng.randint(0, 4)):
        items = []
        for _ in range(rng.randint(0, 4)):  # empty groups are in range
            weight = 0 if rng.random() < 0.2 else rng.randint(0, 6)
            value = round(rng.uniform(-5.0, 10.0), 3)  # negatives included
            items.append((weight, value))
        groups.append(tuple(items))
    return MCKPInstance(groups=tuple(groups), capacity=rng.randint(0, 12))


def _gen_whole_mckp_instance(rng: random.Random) -> MCKPInstance:
    """Capacity at or above the reach and positive values: the class
    ``solve_whole`` answers.  Exact ties and 1-ulp near-ties fail its
    certificate, and so does a group ~1e16 times the others: added to
    it, the DP's running sum rounds their value differences away."""
    groups = []
    for _ in range(rng.randint(1, 4)):
        scale = 1e16 if rng.random() < 0.2 else 1.0
        items: List[Tuple[int, float]] = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if items and roll < 0.2:
                value = items[-1][1]
            elif items and roll < 0.4:
                value = math.nextafter(items[-1][1], math.inf)
            else:
                value = scale * round(rng.uniform(0.1, 10.0), 3)
            items.append((rng.randint(0, 6), value))
        groups.append(tuple(items))
    reach = sum(max(w for w, _ in group) for group in groups)
    return MCKPInstance(
        groups=tuple(groups), capacity=reach + rng.randint(0, 3)
    )


def _gen_ladder_mckp_instance(rng: random.Random) -> MCKPInstance:
    """One weight step, concave values and capacity below the reach: the
    class ``solve_ladder`` answers.  Increments are whole numbers, so
    they are exact; a group copied from an earlier one, as is or with
    its top rung 1 ulp apart, ties or near-ties the cut, and a group
    ~1e16 times the others has the DP's running sum round their
    increments away — each fails its certificate."""
    step = rng.randint(1, 3)
    groups: List[Tuple[Tuple[int, float], ...]] = []
    for _ in range(rng.randint(2, 4)):  # one group alone fits whole
        roll = rng.random()
        if groups and roll < 0.3:
            values = [v for _, v in rng.choice(groups)]
            if roll < 0.15:
                values[-1] = math.nextafter(
                    values[-1], rng.choice((math.inf, 0.0))
                )
        else:
            scale = 1e16 if rng.random() < 0.2 else 1.0
            gains = sorted(
                (rng.randint(1, 12) for _ in range(rng.randint(1, 4))),
                reverse=True,
            )
            values = list(itertools.accumulate(scale * g for g in gains))
        groups.append(
            tuple((step * k, v) for k, v in enumerate(values, 1))
        )
    reach = step * sum(len(group) for group in groups)
    return MCKPInstance(
        groups=tuple(groups), capacity=rng.randint(step, reach - 1)
    )


@dataclass(frozen=True)
class AllocationInstance:
    """A two-phase allocation epoch: queued + running jobs and the pools."""

    jobs: Tuple[JobTuple, ...]
    training: int
    onloan: int
    onloan_cost: float

    def build(self) -> Tuple[List[Job], List[Job], Pools]:
        pending: List[Job] = []
        running: List[Job] = []
        for (job_id, duration, min_w, max_w, gpw, elastic, fungible,
             hetero, is_running, progress) in self.jobs:
            job = Job(
                JobSpec(
                    job_id=job_id,
                    submit_time=float(job_id),
                    duration=duration,
                    min_workers=min_w,
                    max_workers=max_w,
                    gpus_per_worker=gpw,
                    elastic=elastic,
                    fungible=fungible,
                    heterogeneous=hetero,
                )
            )
            if progress:
                job.remaining_work *= 1.0 - progress
            (running if is_running else pending).append(job)
        return pending, running, Pools(
            training=self.training, onloan=self.onloan,
            onloan_cost=self.onloan_cost,
        )

    def shrinks(self) -> Iterator["AllocationInstance"]:
        for i in range(len(self.jobs)):
            yield AllocationInstance(
                self.jobs[:i] + self.jobs[i + 1:],
                self.training, self.onloan, self.onloan_cost,
            )
        if self.training > 0:
            yield AllocationInstance(
                self.jobs, self.training // 2, self.onloan, self.onloan_cost
            )
        if self.onloan > 0:
            yield AllocationInstance(
                self.jobs, self.training, self.onloan // 2, self.onloan_cost
            )

    def to_script(self, check: str) -> str:
        return _SCRIPT_HEADER.format(
            check=check, cls="AllocationInstance", spec=self
        )


def gen_allocation_instance(seed: int) -> AllocationInstance:
    rng = random.Random(seed)
    jobs: List[JobTuple] = []
    # <= 6 jobs keeps the reference's brute-force MCKP (product over
    # per-group choices) within a few thousand combinations per instance.
    for job_id in range(rng.randint(2, 6)):
        gpw = rng.choice((1, 1, 2))
        elastic = rng.random() < 0.6
        if elastic:
            min_w = rng.randint(1, 2)
            max_w = min_w + rng.randint(1, 4)
        else:
            min_w = max_w = rng.randint(1, 4)
        running = elastic and rng.random() < 0.3
        jobs.append((
            job_id,
            round(rng.uniform(100.0, 10_000.0), 1),
            min_w,
            max_w,
            gpw,
            elastic,
            rng.random() < 0.5,  # non-fungible elastic jobs are common:
            rng.random() < 0.2,  # they trigger the flex-spill clamp
            running,
            round(rng.uniform(0.1, 0.8), 2) if running else 0.0,
        ))
    return AllocationInstance(
        jobs=tuple(jobs),
        training=rng.randint(0, 10),
        onloan=rng.randint(0, 18),
        onloan_cost=rng.choice((2.0, 3.0)),
    )


def minimize(instance, diverges: Callable[[object], Optional[str]]):
    """Greedy ddmin: drop one structural element at a time while the
    divergence persists, to a fixpoint.

    ``diverges`` returns a description (truthy) while the bug still
    reproduces; shrinks that raise are treated as invalid and skipped.
    The result is the instance embedded in the divergence report's repro
    script, so smaller is strictly better for whoever debugs it.
    """
    while True:
        for smaller in instance.shrinks():
            try:
                still_failing = diverges(smaller) is not None
            except Exception:
                still_failing = False
            if still_failing:
                instance = smaller
                break
        else:
            return instance
