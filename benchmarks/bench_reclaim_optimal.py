"""§7.3 — Lyra's reclaiming heuristic versus the exhaustive optimum.

The paper: Lyra matches the optimal preemption count when reclaiming
fewer than 60 servers, picks 84 % of the optimum's servers on average,
and runs ~420,000x faster.  Here randomized reclaim instances are solved
by both — the optimum by the oracle's exhaustive search over job subsets
— and we report the match rate, overlap, and the runtime gap.
"""

import random
import time

from benchmarks.bench_util import emit
from repro.cluster.gpu import V100
from repro.cluster.server import Server
from repro.core.reclaim import plan_reclaim_lyra
from repro.oracle.reference import plan_reclaim_bruteforce

from tests.conftest import make_job


def random_instance(seed: int, servers: int = 10):
    rng = random.Random(seed)
    machines = [
        Server(server_id=f"s{i}", gpu_type=V100, on_loan=True,
               home_cluster="inference")
        for i in range(servers)
    ]
    jobs = {}
    for job_id in range(rng.randint(3, 10)):
        job = make_job(job_id=job_id, max_workers=16)
        jobs[job_id] = job
        for server in rng.sample(machines, rng.randint(1, 3)):
            workers = min(rng.randint(1, 4), server.free_gpus)
            if workers > 0:
                job.record_placement(server.server_id, workers, flexible=False)
                server.allocate(job_id, workers)
    return machines, jobs


def build(instances: int = 30):
    matches = 0
    overlaps = []
    greedy_time = optimal_time = 0.0
    excess = 0
    for seed in range(instances):
        machines, jobs = random_instance(seed)
        count = random.Random(seed).randint(2, 5)
        t0 = time.perf_counter()
        greedy = plan_reclaim_lyra(machines, jobs, count)
        greedy_time += time.perf_counter() - t0
        t0 = time.perf_counter()
        optimal = plan_reclaim_bruteforce(machines, jobs, count)
        optimal_time += time.perf_counter() - t0
        if greedy.num_preemptions == optimal.num_preemptions:
            matches += 1
        else:
            excess += greedy.num_preemptions - optimal.num_preemptions
        if optimal.servers:
            overlap = len(set(greedy.servers) & set(optimal.servers)) / len(
                set(optimal.servers)
            )
            overlaps.append(overlap)
    return matches, instances, overlaps, excess, greedy_time, optimal_time


def bench_reclaim_vs_optimal(benchmark):
    matches, instances, overlaps, excess, g_time, o_time = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    mean_overlap = sum(overlaps) / len(overlaps)
    rows = [
        ["instances", instances],
        ["optimal matches", matches],
        ["total excess preemptions", excess],
        ["mean server overlap", mean_overlap],
        ["greedy total time (s)", g_time],
        ["optimal total time (s)", o_time],
        ["speedup", o_time / max(g_time, 1e-9)],
    ]
    emit("reclaim_optimal", "§7.3: greedy vs exhaustive-optimal reclaiming",
         ["metric", "value"], rows,
         notes="paper: optimal-matching below 60 servers, 84% overlap, "
               "420,000x runtime gap at production scale")
    # Greedy matches the optimum on most small instances...
    assert matches >= instances * 0.8
    # ...picks most of the optimum's servers...
    assert mean_overlap >= 0.7
    # ...and is much faster even at toy sizes.
    assert o_time > g_time
