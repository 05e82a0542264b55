"""Tests for BFD worker placement (§5.3)."""

from repro.cluster.cluster import (
    Cluster,
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.gpu import T4, V100
from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server
from repro.core.placement import PlacementEngine, PlacementRequest

from tests.conftest import loan, make_engine, make_job


def loaned_cluster(training=2, loaned=2) -> Cluster:
    """A training whitelist holding dedicated + on-loan servers."""
    pair = ClusterPair(
        make_training_cluster(training), make_inference_cluster(loaned)
    )
    loan(pair, loaned)
    return pair.training


class TestWorkerCost:
    def test_training_server_charges_nominal(self):
        server = Server(server_id="t", gpu_type=V100)
        job = make_job(gpus_per_worker=2)
        assert PlacementEngine.worker_cost(job, server) == 2

    def test_t4_server_charges_triple(self):
        # §5.2 normalization: 1 nominal GPU -> 3 T4 GPUs.
        server = Server(server_id="i", gpu_type=T4, home_cluster="inference")
        job = make_job(gpus_per_worker=1)
        assert PlacementEngine.worker_cost(job, server) == 3


class TestBasicPlacement:
    def test_single_job_placed_and_started(self):
        cluster = make_training_cluster(2)
        engine = make_engine(cluster)
        job = make_job(max_workers=4)
        result = engine.place([PlacementRequest(job, base_workers=4)])
        assert result.placed_base == [job]
        assert job.total_workers == 4
        assert cluster.used_gpus == 4

    def test_best_fit_prefers_partially_used_server(self):
        cluster = make_training_cluster(3)
        cluster.servers[1].allocate(99, 6)  # 2 GPUs free
        engine = make_engine(cluster)
        job = make_job(max_workers=2)
        engine.place([PlacementRequest(job, base_workers=2)])
        assert job.servers == {cluster.servers[1].server_id}

    def test_bfd_orders_big_jobs_first(self):
        cluster = make_training_cluster(1)  # single 8-GPU server
        engine = make_engine(cluster)
        small = make_job(job_id=1, max_workers=2, gpus_per_worker=1)
        big = make_job(job_id=2, max_workers=1, gpus_per_worker=8)
        result = engine.place(
            [
                PlacementRequest(small, base_workers=2),
                PlacementRequest(big, base_workers=1),
            ]
        )
        # Big (8 GPUs/worker) goes first and fills the server; the small
        # job fails rather than fragmenting the big one.
        assert big in result.placed_base
        assert small in result.failed_base

    def test_failed_base_rolled_back(self):
        cluster = make_training_cluster(1)
        engine = make_engine(cluster)
        job = make_job(max_workers=3, gpus_per_worker=4)  # needs 12 > 8
        result = engine.place([PlacementRequest(job, base_workers=3)])
        assert result.failed_base == [job]
        assert job.total_workers == 0
        assert cluster.used_gpus == 0

    def test_flex_shortfall_tolerated(self):
        cluster = make_training_cluster(1)
        engine = make_engine(cluster)
        job = make_job(max_workers=12, min_workers=4, elastic=True)
        result = engine.place(
            [PlacementRequest(job, base_workers=4, flex_workers=8)]
        )
        assert result.placed_base == [job]
        assert result.flex_shortfall[job.job_id] == 4
        assert job.flex_workers == 4

    def test_worker_never_splits_across_servers(self):
        cluster = make_training_cluster(2)
        cluster.servers[0].allocate(99, 5)
        cluster.servers[1].allocate(98, 5)
        engine = make_engine(cluster)
        job = make_job(max_workers=1, gpus_per_worker=4)
        result = engine.place([PlacementRequest(job, base_workers=1)])
        assert result.failed_base == [job]  # 3+3 free but not 4 anywhere


class TestDomainPreferences:
    def test_inelastic_prefers_training(self):
        cluster = loaned_cluster()
        engine = make_engine(cluster)
        job = make_job(max_workers=2, fungible=True)
        engine.place([PlacementRequest(job, base_workers=2)])
        assert all(not cluster.get(s).on_loan for s in job.servers)

    def test_elastic_fungible_prefers_onloan(self):
        cluster = loaned_cluster()
        engine = make_engine(cluster)
        job = make_job(max_workers=4, min_workers=2, elastic=True,
                       fungible=True)
        engine.place([PlacementRequest(job, base_workers=2)])
        assert all(cluster.get(s).on_loan for s in job.servers)

    def test_nonfungible_never_on_loan(self):
        cluster = loaned_cluster(training=0, loaned=2)
        engine = make_engine(cluster)
        job = make_job(max_workers=2)
        result = engine.place([PlacementRequest(job, base_workers=2)])
        assert result.failed_base == [job]

    def test_base_and_flex_on_separate_groups(self):
        # §5.3: elastic base and flexible demand land on separate groups
        # of on-loan servers so reclaiming can vacate flex first.
        cluster = loaned_cluster(training=0, loaned=2)
        engine = make_engine(cluster)
        job = make_job(max_workers=4, min_workers=2, elastic=True,
                       fungible=True)
        engine.place([PlacementRequest(job, base_workers=2, flex_workers=2)])
        base_servers = {cluster.get(s).group for s in job.base_placement}
        flex_servers = {cluster.get(s).group for s in job.flex_placement}
        assert base_servers == {BASE_GROUP}
        assert flex_servers == {FLEX_GROUP}

    def test_grouping_disabled_in_ablation(self):
        cluster = loaned_cluster(training=0, loaned=2)
        engine = make_engine(cluster, special_elastic_grouping=False)
        job = make_job(max_workers=4, min_workers=2, elastic=True,
                       fungible=True)
        engine.place([PlacementRequest(job, base_workers=2, flex_workers=2)])
        groups = {cluster.get(s).group for s in job.servers}
        assert groups == {None}

    def test_gpu_type_lock_keeps_job_homogeneous(self):
        cluster = loaned_cluster(training=1, loaned=2)
        engine = make_engine(cluster)
        job = make_job(max_workers=8, min_workers=2, elastic=True,
                       fungible=True)
        # Base lands on loan (T4); flexible workers must stay on T4 too.
        engine.place([PlacementRequest(job, base_workers=2, flex_workers=4)])
        types = {cluster.get(s).gpu_type.name for s in job.servers}
        assert types == {"T4"}

    def test_heterogeneous_job_may_span_types(self):
        cluster = loaned_cluster(training=1, loaned=1)
        engine = make_engine(cluster)
        job = make_job(max_workers=8, min_workers=4, elastic=True,
                       heterogeneous=True, fungible=True)
        engine.place([PlacementRequest(job, base_workers=4, flex_workers=4)])
        types = {cluster.get(s).gpu_type.name for s in job.servers}
        assert len(types) == 2
        # base prefers training hardware, flexible prefers inference (§6)
        assert any(
            not cluster.get(s).on_loan for s in job.base_placement
        )
        assert any(cluster.get(s).on_loan for s in job.flex_placement)

    def test_mixed_placement_jobs_scheduled_last(self):
        # A heterogeneous job whose demand fits neither GPU domain alone
        # (5 workers x 2 GPUs vs 8 training GPUs + 1 loaned T4 slot) is
        # deprioritized (§6): the normal job wins the contended training
        # GPUs even though the hetero job has the larger total demand.
        cluster = loaned_cluster(training=1, loaned=1)
        engine = make_engine(cluster)
        hetero = make_job(job_id=1, max_workers=5, gpus_per_worker=2,
                          heterogeneous=True)
        normal = make_job(job_id=2, max_workers=1, gpus_per_worker=2)
        result = engine.place(
            [
                PlacementRequest(hetero, base_workers=5),
                PlacementRequest(normal, base_workers=1),
            ]
        )
        assert normal in result.placed_base
        assert hetero in result.failed_base

    def test_hetero_capable_job_fitting_one_domain_not_deprioritized(self):
        cluster = make_training_cluster(1)
        engine = make_engine(cluster)
        hetero = make_job(job_id=1, max_workers=1, gpus_per_worker=8,
                          heterogeneous=True)
        normal = make_job(job_id=2, max_workers=1, gpus_per_worker=4)
        result = engine.place(
            [
                PlacementRequest(hetero, base_workers=1),
                PlacementRequest(normal, base_workers=1),
            ]
        )
        # Both fit the training domain in principle; plain BFD order
        # applies and the bigger per-worker job goes first.
        assert hetero in result.placed_base
        assert normal in result.failed_base


class TestOpportunisticMode:
    def test_fungible_restricted_to_onloan(self):
        cluster = loaned_cluster(training=2, loaned=0)
        engine = make_engine(cluster, opportunistic=True)
        job = make_job(max_workers=2, fungible=True)
        result = engine.place([PlacementRequest(job, base_workers=2)])
        assert result.failed_base == [job]

    def test_nonfungible_unaffected(self):
        cluster = loaned_cluster(training=2, loaned=0)
        engine = make_engine(cluster, opportunistic=True)
        job = make_job(max_workers=2)
        result = engine.place([PlacementRequest(job, base_workers=2)])
        assert result.placed_base == [job]
