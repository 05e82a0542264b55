"""Pollux-style goodput-driven scheduling (§7.1 scheme).

Pollux (OSDI '21) co-optimizes resource allocation and training
hyperparameters: it models each job's *goodput* — system throughput times
statistical efficiency — and searches cluster-wide allocations with a
genetic algorithm, re-tuning batch size and learning rate as allocations
change.

Faithful-to-the-critique modelling choices (§7.4):

* goodput has diminishing returns in the allocation, so the GA tends to
  shrink large-and-long jobs near their end to feed fast-progressing
  newcomers — prolonging the big jobs;
* queuing time is not part of the objective, so admission is whatever the
  GA happens to pick, not launch-as-many-as-possible;
* the GA's quality hinges on its iteration budget; we default to the 250
  generations the paper grants it.

Hyperparameter tuning itself is modelled exactly as for Lyra+TunedJobs:
simulations running Pollux set ``tuned_jobs=True`` so scaled jobs recover
their scaling losses plus a small goodput bonus.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.cluster.job import Job
from repro.core.placement import PlacementRequest
from repro.schedulers.base import SchedulerPolicy

#: Diminishing statistical efficiency per extra worker above base demand.
_STAT_EFFICIENCY_DECAY = 0.06


class PolluxScheduler(SchedulerPolicy):
    """Genetic-algorithm goodput optimizer."""

    name = "pollux"
    #: explicit (not inherited): the GA cadence gate and its RNG make
    #: every epoch stateful — an unchanged cluster can still re-decide
    epoch_idempotent = False

    def __init__(
        self,
        generations: int = 250,
        population: int = 20,
        seed: int = 0,
        ga_interval: float = 120.0,
    ):
        if generations < 1 or population < 2:
            raise ValueError("need generations >= 1 and population >= 2")
        self.generations = generations
        self.population = population
        self.rng = random.Random(seed)
        self.ga_interval = ga_interval
        self._last_ga = float("-inf")

    # ------------------------------------------------------------------
    # goodput model
    # ------------------------------------------------------------------
    @staticmethod
    def goodput(job: Job, workers: int) -> float:
        """Normalized goodput of ``job`` at ``workers`` workers.

        Throughput (effective workers x GPUs) discounted by a
        statistical-efficiency term decaying in the surplus over base
        demand, normalized by the job's maximum demand so big and small
        jobs are comparable fleet-wide.
        """
        if workers <= 0:
            return 0.0
        throughput = (
            job.scaling_model.effective_workers(min(workers, job.spec.max_workers))
            * job.spec.gpus_per_worker
        )
        surplus = max(0, workers - job.spec.min_workers)
        stat_eff = 1.0 / (1.0 + _STAT_EFFICIENCY_DECAY * surplus)
        # Statistical efficiency decays as training converges (gradient
        # noise shrinks), so nearly-finished jobs look unattractive and
        # get shrunk in favour of fast-progressing newcomers — the exact
        # behaviour §7.4 blames for Pollux prolonging large-long jobs.
        progress = 1.0 - job.remaining_work / job.spec.total_work
        late_decay = 1.0 - 0.5 * max(0.0, progress - 0.5)
        return throughput * stat_eff * late_decay / job.spec.max_gpus

    # ------------------------------------------------------------------
    # genetic search
    # ------------------------------------------------------------------
    def _worker_options(self, job: Job) -> List[int]:
        if job.elastic:
            return list(range(job.spec.min_workers, job.spec.max_workers + 1))
        return [job.spec.min_workers]

    def _fitness(self, genome: List[int], jobs: List[Job]) -> float:
        return sum(
            self.goodput(job, w) for job, w in zip(jobs, genome) if w > 0
        )

    def _repair(self, genome: List[int], jobs: List[Job], capacity: int) -> None:
        """Drop allocations until the genome fits the capacity."""

        def used() -> int:
            return sum(
                w * j.spec.gpus_per_worker for j, w in zip(jobs, genome)
            )

        while used() > capacity:
            # Shrink the job whose last worker has the lowest marginal
            # goodput; evict (set to 0) pending jobs before shrinking
            # running ones below base.
            best_idx, best_loss = -1, float("inf")
            for i, (job, w) in enumerate(zip(jobs, genome)):
                if w == 0:
                    continue
                if w > job.spec.min_workers:
                    loss = self.goodput(job, w) - self.goodput(job, w - 1)
                else:
                    # removing the whole job
                    loss = self.goodput(job, w)
                    if job.job_id not in self._running_ids:
                        loss *= 0.5  # prefer evicting not-yet-started jobs
                if loss < best_loss:
                    best_loss, best_idx = loss, i
            if best_idx < 0:
                return
            job = jobs[best_idx]
            if genome[best_idx] > job.spec.min_workers:
                genome[best_idx] -= 1
            else:
                genome[best_idx] = 0

    def _search(self, jobs: List[Job], capacity: int) -> List[int]:
        options = [self._worker_options(job) for job in jobs]
        seed_genome = [
            job.total_workers if job.job_id in self._running_ids
            else job.spec.min_workers
            for job in jobs
        ]
        population = [seed_genome[:]]
        for _ in range(self.population - 1):
            genome = [
                self.rng.choice([0] + opts) for opts in options
            ]
            population.append(genome)
        for genome in population:
            self._repair(genome, jobs, capacity)

        for _ in range(self.generations):
            scored = sorted(
                population,
                key=lambda g: self._fitness(g, jobs),
                reverse=True,
            )
            survivors = scored[: max(2, self.population // 2)]
            children = []
            while len(survivors) + len(children) < self.population:
                a, b = self.rng.sample(survivors, 2)
                child = [
                    a[i] if self.rng.random() < 0.5 else b[i]
                    for i in range(len(jobs))
                ]
                # mutation
                if jobs:
                    i = self.rng.randrange(len(jobs))
                    child[i] = self.rng.choice([0] + options[i])
                self._repair(child, jobs, capacity)
                children.append(child)
            population = survivors + children
        return max(population, key=lambda g: self._fitness(g, jobs))

    # ------------------------------------------------------------------
    # scheduling epoch
    # ------------------------------------------------------------------
    def decide(self, ctx: "PlanTransaction") -> None:
        if ctx.now - self._last_ga < self.ga_interval:
            return  # GA runs on its own cadence; queue waits (by design)
        self._last_ga = ctx.now
        self._running_ids = set(ctx.running)

        jobs: List[Job] = list(ctx.running.values()) + list(ctx.pending)
        if not jobs:
            return
        pools = ctx.view.pools()
        self.credit_flex(ctx, pools, ctx.running_elastic)
        running_base = sum(
            j.base_workers * j.spec.gpus_per_worker for j in ctx.running.values()
        )
        capacity = pools.total + running_base

        genome = self._search(jobs, capacity)

        # Apply: scale running jobs, admit pending ones with w > 0.
        engine = ctx.placement_engine()
        target: Dict[int, int] = {
            job.job_id: w for job, w in zip(jobs, genome)
        }
        for job in list(ctx.running.values()):
            want = max(target.get(job.job_id, job.total_workers),
                       job.spec.min_workers)
            flex_want = want - job.base_workers
            delta = flex_want - job.flex_workers
            if delta < 0:
                removals = self.choose_flex_removals(ctx, job, -delta)
                ctx.scale_in_worker_counts(job, removals)
            elif delta > 0:
                result = engine.place([PlacementRequest(job, flex_workers=delta)])
                if result.flex_shortfall.get(job.job_id, 0) < delta:
                    ctx.rescale(job, scaled_out=True)
        for job in list(ctx.pending):
            want = target.get(job.job_id, 0)
            if want < job.spec.min_workers:
                continue
            flex = want - job.spec.min_workers
            result = engine.place(
                [
                    PlacementRequest(
                        job,
                        base_workers=job.spec.min_workers,
                        flex_workers=flex,
                    )
                ]
            )
            if not result.failed_base:
                ctx.activate(job)
