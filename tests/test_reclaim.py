"""Tests for server reclaiming (§4), including the Fig. 5 worked example."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.gpu import V100
from repro.cluster.server import Server
from repro.core.reclaim import (
    CostModel,
    initial_greedy_costs,
    plan_reclaim_lyra,
    plan_reclaim_random,
    plan_reclaim_scf,
    server_preemption_cost,
)
from repro.oracle.reference import plan_reclaim_bruteforce

from tests.conftest import make_job


def place(job, server, workers, flexible=False):
    """Wire a job onto a server on both sides of the bookkeeping."""
    job.record_placement(
        server.server_id, workers, flexible=flexible, on_loan=server.on_loan
    )
    server.allocate(job.job_id, workers * job.spec.gpus_per_worker)


def fig5_instance():
    """The exact Fig. 5 / Table 1 example.

    Six 8-GPU servers; job a spans servers 1-2 (4+4 GPUs), job b fills
    server 3, job c spans servers 4-5 (8+2), job d spans servers 5-6
    (2+8).
    """
    servers = [
        Server(server_id=f"s{i}", gpu_type=V100, on_loan=True,
               home_cluster="inference")
        for i in range(1, 7)
    ]
    a = make_job(job_id=1, max_workers=8)
    b = make_job(job_id=2, max_workers=8)
    c = make_job(job_id=3, max_workers=10)
    d = make_job(job_id=4, max_workers=10)
    place(a, servers[0], 4)
    place(a, servers[1], 4)
    place(b, servers[2], 8)
    place(c, servers[3], 8)
    place(c, servers[4], 2)
    place(d, servers[4], 2)
    place(d, servers[5], 8)
    jobs = {j.job_id: j for j in (a, b, c, d)}
    return servers, jobs


class TestPreemptionCost:
    """The three cost definitions must reproduce Table 1 exactly."""

    @pytest.mark.parametrize(
        "idx,expected",
        [(0, 1), (1, 1), (2, 1), (3, 1), (4, 2), (5, 1)],
    )
    def test_job_count_column(self, idx, expected):
        servers, jobs = fig5_instance()
        cost = server_preemption_cost(servers[idx], jobs, CostModel.JOB_COUNT)
        assert cost == expected

    @pytest.mark.parametrize(
        "idx,expected",
        [(0, 0.5), (1, 0.5), (2, 1.0), (3, 0.8), (4, 0.4), (5, 0.8)],
    )
    def test_gpu_fraction_column(self, idx, expected):
        servers, jobs = fig5_instance()
        cost = server_preemption_cost(
            servers[idx], jobs, CostModel.GPU_FRACTION
        )
        assert cost == pytest.approx(expected)

    @pytest.mark.parametrize(
        "idx,expected",
        [(0, 0.5), (1, 0.5), (2, 1.0), (3, 0.5), (4, 1.0), (5, 0.5)],
    )
    def test_server_fraction_column(self, idx, expected):
        servers, jobs = fig5_instance()
        cost = server_preemption_cost(
            servers[idx], jobs, CostModel.SERVER_FRACTION
        )
        assert cost == pytest.approx(expected)


def reported_costs(servers, jobs, model):
    """Each server's cost as a reclaim plan reports it."""
    return {
        s.server_id: server_preemption_cost(s, jobs, model) for s in servers
    }


class TestCostIndexDrift:
    """The cost a reclaim plan reports and the greedy loop's live costs
    must agree.

    GPU_FRACTION was historically computed two ways — GPUs over
    ``job.servers`` in the reported cost vs workers over the working
    span in the loop — which only diverges when a job's per-server GPU
    cost varies across hosts.  Both paths now route through
    ``job_preemption_cost``; these pins keep them fused.  (The class and
    test names predate the removal of the batched cost index.)
    """

    def _mixed_cost_instance(self):
        """A job whose GPU cost differs across its two hosts (e.g. a
        heterogeneous placement paying double on one server)."""
        servers = [
            Server(server_id=f"m{i}", gpu_type=V100, on_loan=True,
                   home_cluster="inference")
            for i in range(3)
        ]
        job = make_job(job_id=1, max_workers=8)
        job.record_placement("m0", 2, flexible=False, gpu_cost=1, on_loan=True)
        servers[0].allocate(1, 2)
        job.record_placement("m1", 2, flexible=False, gpu_cost=2, on_loan=True)
        servers[1].allocate(1, 4)
        other = make_job(job_id=2, max_workers=4)
        place(other, servers[2], 3)
        return servers, {1: job, 2: other}

    @pytest.mark.parametrize("model", list(CostModel))
    def test_index_matches_initial_greedy_costs(self, model):
        servers, jobs = self._mixed_cost_instance()
        reported = reported_costs(servers, jobs, model)
        live = initial_greedy_costs(servers, jobs, model)
        assert live == pytest.approx(reported)

    def test_mixed_costs_price_gpu_fraction_by_gpus_not_workers(self):
        # 2 GPUs on m0 vs 4 on m1: the fractions must be 1/3 and 2/3
        # (a workers-based computation would claim 1/2 each).
        servers, jobs = self._mixed_cost_instance()
        reported = reported_costs(servers, jobs, CostModel.GPU_FRACTION)
        assert reported["m0"] == pytest.approx(1 / 3)
        assert reported["m1"] == pytest.approx(2 / 3)

    def test_index_matches_on_fig5(self):
        servers, jobs = fig5_instance()
        for model in CostModel:
            reported = reported_costs(servers, jobs, model)
            live = initial_greedy_costs(servers, jobs, model)
            assert live == pytest.approx(reported)


class TestLyraGreedy:
    def test_fig5_reclaims_servers_1_and_2_with_one_preemption(self):
        """The paper's headline example: reclaiming two servers should
        pick servers 1 and 2 (both host halves of job a), preempting a
        single job — where a naive 0-1 knapsack would preempt two."""
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra(servers, jobs, count=2)
        assert set(plan.servers) == {"s1", "s2"}
        assert plan.preempted_jobs == {1}
        assert plan.collateral_gpus == 0

    def test_gpu_fraction_model_picks_badly_on_fig5(self):
        # Table 1's argument: GPU-fraction cost selects server 5 first,
        # causing two preemptions.
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra(
            servers, jobs, count=1, cost_model=CostModel.GPU_FRACTION
        )
        assert plan.servers == ["s5"]
        assert plan.num_preemptions == 2

    def test_count_zero(self):
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra(servers, jobs, count=0)
        assert plan.servers == []
        assert plan.num_preemptions == 0

    def test_negative_count_raises(self):
        servers, jobs = fig5_instance()
        with pytest.raises(ValueError):
            plan_reclaim_lyra(servers, jobs, count=-1)

    def test_idle_servers_taken_first(self):
        servers, jobs = fig5_instance()
        idle = Server(server_id="s_idle", gpu_type=V100, on_loan=True,
                      home_cluster="inference")
        plan = plan_reclaim_lyra(servers + [idle], jobs, count=1)
        assert plan.servers == ["s_idle"]
        assert plan.num_preemptions == 0
        assert plan.free_servers == 1

    def _with_flex_server(self):
        servers, jobs = fig5_instance()
        base_server = Server(server_id="s_base", gpu_type=V100, on_loan=True,
                             home_cluster="inference")
        flex_server = Server(server_id="s_flex", gpu_type=V100, on_loan=True,
                             home_cluster="inference")
        elastic = make_job(job_id=9, max_workers=8, min_workers=2,
                           elastic=True)
        place(elastic, base_server, 2)
        place(elastic, flex_server, 3, flexible=True)
        jobs[9] = elastic
        return servers + [base_server, flex_server], jobs

    def test_flex_only_server_vacated_by_scale_in(self):
        servers, jobs = self._with_flex_server()
        plan = plan_reclaim_lyra(servers, jobs, count=1)
        assert plan.servers == ["s_flex"]
        assert plan.num_preemptions == 0
        assert plan.scaled_in == {9: {"s_flex": 3}}

    def test_scale_in_disabled_skips_phase_zero_credit(self):
        # Without the scale-in-first phase the greedy may still pick a
        # base-free server (its preemption cost is zero), but the plan
        # must not claim any preemption-free phase-zero credit.
        servers, jobs = self._with_flex_server()
        plan = plan_reclaim_lyra(servers, jobs, count=1, scale_in_first=False)
        assert plan.num_preemptions == 0
        assert plan.free_servers == 0

    def test_cascade_counts_emptied_servers(self):
        # Preempting job a empties both s1 and s2; asking for two
        # servers costs one preemption thanks to the cascade.
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra(servers[:2], jobs, count=2)
        assert plan.num_preemptions == 1

    def test_demand_larger_than_candidates(self):
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra(servers, jobs, count=99)
        assert len(plan.servers) == 6

    def test_collateral_counts_unreturned_gpus(self):
        # Reclaim only server 4: preempting job c vacates its 2 GPUs on
        # server 5, which is not returned -> collateral 2.
        servers, jobs = fig5_instance()
        plan = plan_reclaim_lyra([servers[3]], jobs, count=1)
        assert plan.servers == ["s4"]
        assert plan.preempted_jobs == {3}
        assert plan.collateral_gpus == 2


class TestBaselines:
    def test_scf_prefers_fewest_jobs(self):
        servers, jobs = fig5_instance()
        plan = plan_reclaim_scf(servers, jobs, count=1)
        # Server 5 hosts two jobs; SCF must not pick it first.
        assert plan.servers != ["s5"]

    def test_random_is_seeded(self):
        servers, jobs = fig5_instance()
        p1 = plan_reclaim_random(servers, jobs, 3, rng=random.Random(42))
        p2 = plan_reclaim_random(servers, jobs, 3, rng=random.Random(42))
        assert p1.servers == p2.servers

    def test_random_plan_is_consistent(self):
        servers, jobs = fig5_instance()
        plan = plan_reclaim_random(servers, jobs, 4, rng=random.Random(1))
        assert len(plan.servers) == 4
        # every preempted job had base workers on a selected server
        for job_id in plan.preempted_jobs:
            assert set(jobs[job_id].base_placement) & set(plan.servers)


class TestOptimal:
    """The greedy against the §7.3 exhaustive optimum, which is the
    oracle's search over job subsets."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_lyra_never_beats_optimal(self, seed):
        """Randomized instances: greedy >= optimal preemptions, and both
        plans return the requested number of servers."""
        rng = random.Random(seed)
        servers = [
            Server(server_id=f"r{i}", gpu_type=V100, on_loan=True,
                   home_cluster="inference")
            for i in range(6)
        ]
        jobs = {}
        for job_id in range(rng.randint(1, 6)):
            job = make_job(job_id=job_id, max_workers=8)
            jobs[job_id] = job
            spread = rng.sample(servers, rng.randint(1, 2))
            for server in spread:
                workers = min(rng.randint(1, 4), server.free_gpus)
                if workers > 0:
                    place(job, server, workers)
        count = rng.randint(1, 4)
        greedy = plan_reclaim_lyra(servers, jobs, count)
        optimal = plan_reclaim_bruteforce(servers, jobs, count)
        assert len(greedy.servers) == count
        assert len(optimal.servers) == count
        assert greedy.num_preemptions >= optimal.num_preemptions
