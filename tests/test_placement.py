"""Tests for BFD worker placement (§5.3)."""

from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    Cluster,
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.gpu import A100, T4, V100
from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server
from repro.core.actions import PlanTransaction
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.core.view import ClusterView
from repro.rm.manager import ResourceManager

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


# ----------------------------------------------------------------------
# a short gang is refused from its room, exactly as the walk would fail
# ----------------------------------------------------------------------
_HEALTH = st.sampled_from([True, True, True, False])


@st.composite
def gang_worlds(draw):
    """Mixed GPU types, busy, grouped and unhealthy servers, and gangs
    that do and do not fit: ``(training, loaned, jobs, options)``."""
    training = draw(st.lists(
        st.tuples(st.sampled_from([V100, A100]), st.integers(0, 8), _HEALTH),
        max_size=4,
    ))
    loaned = draw(st.lists(
        st.tuples(
            st.sampled_from([None, None, BASE_GROUP, FLEX_GROUP]),
            st.integers(0, 8),
            _HEALTH,
        ),
        max_size=5,
    ))
    jobs = draw(st.lists(
        st.tuples(
            st.sampled_from([1, 1, 2, 4]),  # GPUs per worker
            st.integers(1, 8),  # base workers
            st.integers(0, 4),  # flexible workers (elastic jobs only)
            st.booleans(),  # elastic
            st.booleans(),  # fungible
            st.sampled_from([False, False, True]),  # heterogeneous
        ),
        min_size=1,
        max_size=4,
    ))
    options = dict(
        special_elastic_grouping=draw(st.booleans()),
        opportunistic=draw(st.sampled_from([False, False, True])),
        regions=draw(st.booleans()),
    )
    return training, loaned, jobs, options


def _books(pair, jobs):
    """Both books and every server's group, as plain values."""
    return (
        {
            s.server_id: (dict(s.allocations), s.group)
            for s in pair.training.servers
        },
        {
            job.job_id: (
                job.status,
                dict(job.base_placement),
                dict(job.flex_placement),
                dict(job._server_cost),
                set(job._onloan_servers),
            )
            for job in jobs
        },
    )


def _place_world(world, gated: bool):
    """Build the world, place its requests inside an open plan
    transaction, roll the transaction back; returns the placement
    outcome, the books after placing and ``rm.launch`` calls per job.

    ``gated`` sets a launch gate that lets every launch through: with a
    gate, placement walks every gang server by server as it always did.
    """
    training, loaned, specs, options = world
    train = Cluster("training", [
        Server(server_id=f"t{i}", gpu_type=gpu)
        for i, (gpu, _, _) in enumerate(training)
    ])
    infer = Cluster("inference", [
        Server(server_id=f"i{i}", gpu_type=T4, home_cluster="inference")
        for i in range(len(loaned))
    ])
    pair = ClusterPair(train, infer)
    loan(pair, len(loaned))
    view = ClusterView(pair.training)
    rm = ResourceManager(pair, {})
    rows = [(f"t{i}", None, busy, ok) for i, (_, busy, ok) in enumerate(training)]
    rows += [(f"i{i}", *row) for i, row in enumerate(loaned)]
    for index, (sid, group, busy, healthy) in enumerate(rows):
        server = pair.training.get(sid)
        if not healthy:
            rm.fail_node(sid)
        if busy:
            server.allocate(-1 - index, busy)  # a job outside the requests
        if group is not None:
            server.group = group
            view.note_group_change(server)
    jobs, requests = [], []
    for k, (gpus, base, flex, elastic, fungible, hetero) in enumerate(specs):
        flex = flex if elastic else 0
        job = make_job(
            job_id=k, max_workers=base + flex, min_workers=base,
            gpus_per_worker=gpus, elastic=elastic, fungible=fungible,
            heterogeneous=hetero,
        )
        jobs.append(job)
        requests.append(PlacementRequest(job, base_workers=base, flex_workers=flex))
    options = dict(options)
    region_of = None
    if options.pop("regions"):
        def region_of(server):
            return "east" if int(server.server_id[1:]) % 2 else "west"
    engine = PlacementEngine(view, rm, region_of=region_of, **options)
    launches = Counter()
    launch = rm.launch

    def counted(job, *args, **kwargs):
        launches[job.job_id] += 1
        return launch(job, *args, **kwargs)

    rm.launch = counted
    if gated:
        rm.launch_gate = lambda job, server, workers: None
    sim = SimpleNamespace(
        rm=rm, now=0.0, config=None, cluster=pair.training, view=view,
        placement_engine=None, phase=None, trace=None, tracer=None,
        obs=None, hetero_ideal=None,
    )
    txn = PlanTransaction(sim, "test")
    before = _books(pair, jobs)
    result = engine.place(requests)
    placed = _books(pair, jobs)
    view.assert_consistent()
    txn.rollback()
    view.assert_consistent()
    assert _books(pair, jobs) == before
    outcome = (
        [job.job_id for job in result.placed_base],
        [job.job_id for job in result.failed_base],
        result.flex_shortfall,
    )
    return outcome, placed, launches


@given(world=gang_worlds())
@settings(max_examples=200, deadline=None)
def test_a_refused_gang_is_decided_and_left_as_the_walk_leaves_it(world):
    """The room check decides what the server-by-server walk decides and
    leaves the same books and groups, which the plan journal rolls back
    alike; a refused gang never reaches ``rm.launch``."""
    outcome, placed, launches = _place_world(world, gated=False)
    walked, walked_books, _ = _place_world(world, gated=True)
    assert outcome == walked
    assert placed == walked_books
    for job_id in outcome[1]:
        assert launches[job_id] == 0


def test_a_short_gang_is_refused_before_a_launch():
    # two loaned T4 servers host two one-GPU workers each (3 T4 GPUs per
    # worker, §5.2): a gang of five cannot fit
    world = ([], [(None, 0, True), (None, 0, True)],
             [(1, 5, 0, True, True, False)],
             dict(special_elastic_grouping=True, opportunistic=False,
                  regions=False))
    outcome, placed, launches = _place_world(world, gated=False)
    walked, walked_books, walked_launches = _place_world(world, gated=True)
    assert outcome == walked == ([], [0], {})
    assert launches[0] == 0 and walked_launches[0] == 2
    # the walk tagged both servers BASE_GROUP; so does the refusal
    assert placed == walked_books
    assert {group for _, group in placed[0].values()} == {BASE_GROUP}
