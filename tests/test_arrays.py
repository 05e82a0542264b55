"""The column view under random delta interleavings, and the numpy kernels.

Property-based coverage of the scheduling view's central contract: the
numpy columns of :class:`repro.core.view.ClusterView`, maintained from
deltas, must equal a from-scratch rebuild after *any* interleaving of
cluster mutations — and every query (pools, best-candidate selection
incl. the region tie-break and the unhealthy/transient-launch
exclusions, domain capacity) must return exactly what the oracle's
scan-from-scratch :class:`repro.oracle.refview.ReferenceView` returns
over the same cluster.  The MCKP DP kernel is pinned bit-identical to
its scalar reference here too.

The golden-log suite (``tests/test_equivalence.py``) pins end-to-end
behaviour; these tests pin the *mechanisms* so a column bug is caught at
the delta that introduced it, not as an opaque digest mismatch.
``tests/test_view.py`` holds the deterministic unit tests of the same
class.
"""

import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.mckp import (
    Item,
    solve_mckp,
    solve_mckp_bruteforce,
    solution_cost,
)
from repro.core.view import _INITIAL_SLOTS, ClusterView
from repro.faults.crash import (
    BARRIER_BETWEEN_EVENTS,
    CrashInjector,
    CrashPoint,
    SimulatedCrash,
)
from repro.oracle.reference import solve_mckp_scalar
from repro.oracle.refview import ReferenceView
from repro.recovery import RecoveryManager
from repro.rm.manager import ResourceManager
from tests.conftest import loan
from tests.test_equivalence import GOLDEN_PATH, digest
from tests.test_recovery import CHECKPOINT_EVERY, KILL_AT, build_sim


def _make_jobs(count: int = 4) -> dict:
    return {
        i: Job(JobSpec(
            job_id=i, submit_time=0.0, duration=1000.0,
            max_workers=6, min_workers=1, gpus_per_worker=1,
            elastic=True, fungible=True,
        ))
        for i in range(count)
    }


def _random_walk(view, rm, pair, jobs, rng, steps=50, per_step=None):
    """Drive every mutation source the delta protocol must survive."""
    ops = ("launch", "scale_in", "release", "loan", "return",
           "fail", "recover", "direct_alloc", "direct_release",
           "group", "degrade")
    now = 0.0
    for _ in range(steps):
        now += 1.0
        op = rng.choice(ops)
        job = jobs[rng.randrange(len(jobs))]
        all_servers = pair.training.servers + pair.inference.servers
        server = rng.choice(all_servers)
        try:
            if op == "launch":
                rm.launch(
                    job, server, rng.randint(1, 2), 1,
                    flexible=rng.random() < 0.5,
                )
            elif op == "scale_in":
                rm.scale_in(job, server.server_id, rng.randint(1, 3))
            elif op == "release":
                rm.release_job(job)
            elif op == "loan":
                loan(rm, rng.randint(1, 2), now=now)
            elif op == "return":
                rm.return_server(server.server_id, now=now)
            elif op == "fail":
                report = rm.fail_node(server.server_id)
                for job_id in report.jobs_lost_base:
                    rm.release_job(jobs[job_id])
            elif op == "recover":
                rm.recover_node(server.server_id)
            elif op == "direct_alloc":
                server.allocate(job.job_id, rng.randint(1, 2))
            elif op == "direct_release":
                server.release(job.job_id)
            elif op == "group":
                # the explicit post-allocation group hook (placement path)
                server.group = rng.choice([None, "base", "flex"])
                view.note_group_change(server)
            elif op == "degrade":
                server.perf_factor = rng.choice([1.0, 0.5, 0.25])
                view.note_server_attrs(server)
        except (ValueError, RuntimeError, KeyError):
            pass  # invalid op rejected — must leave the mirror intact
        if per_step is not None:
            per_step()


def _walked(seed, per_step=None):
    """A production view and a reference view over one randomly-walked
    cluster.  The reference is detached (servers hold one ``_on_change``
    slot) — it is stateless, so it needs no deltas to stay right."""
    rng = random.Random(seed)
    pair = ClusterPair(make_training_cluster(3), make_inference_cluster(3))
    jobs = _make_jobs()
    view = ClusterView(pair.training)
    ref = ReferenceView(pair.training)
    rm = ResourceManager(pair, jobs)
    _random_walk(
        view, rm, pair, jobs, rng,
        per_step=(lambda: per_step(view, ref)) if per_step else None,
    )
    return rng, pair, view, ref


def _same_answers(view, ref):
    assert view.pools() == ref.pools()
    assert view.dedicated_free == ref.dedicated_free
    assert view.onloan_free == ref.onloan_free
    for gpus_per_worker in (1, 2, 3):
        for on_loan in (False, True):
            assert view.domain_capacity(on_loan, gpus_per_worker) == (
                ref.domain_capacity(on_loan, gpus_per_worker)
            )


# ----------------------------------------------------------------------
# the columns stay delta-exact, and every query matches the reference
# ----------------------------------------------------------------------
class TestArrayMirrorProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mirror_equals_rebuild_after_every_delta(self, seed):
        # assert_consistent() compares every column and cached total
        # against a detached rebuild over the live Server objects
        _, pair, view, ref = _walked(
            seed, per_step=lambda view, ref: view.assert_consistent()
        )
        rebuilt = ClusterView(
            pair.training, attach=False,
            default_onloan_cost=view.default_onloan_cost,
        )
        assert view.snapshot() == rebuilt.snapshot()
        _same_answers(rebuilt, ref)
        # a pickle round-trip carries the columns as they are
        clone = pickle.loads(pickle.dumps(view))
        clone.assert_consistent()
        assert clone.snapshot() == view.snapshot()
        assert clone.version == view.version

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_vectorized_queries_match_dict_view(self, seed):
        """pools and domain_capacity agree with the reference scan after
        every delta (the id predates the single view: the dict-indexed
        view it names is gone)."""
        _walked(seed, per_step=_same_answers)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_select_best_is_head_of_sorted_candidates(self, seed):
        """The packed key's argmin = head of the Python-sorted scan, after
        every delta of a walk whose loans grow the columns past their
        initial slots — under every tier rule, domain mask, type lock,
        health/launch exclusion set, three perf factors and the market's
        region tie-break."""
        rng = random.Random(seed)
        pair = ClusterPair(
            make_training_cluster(_INITIAL_SLOTS - 4),
            make_inference_cluster(12),
        )
        jobs = _make_jobs()
        view = ClusterView(pair.training)
        ref = ReferenceView(pair.training)
        rm = ResourceManager(pair, jobs)
        every = pair.training.servers + pair.inference.servers
        types = sorted({s.gpu_type.name for s in every})
        assert len(types) == 2
        regions = {
            s.server_id: rng.choice(["east", "west", None]) for s in every
        }

        def region_of(server):
            return regions[server.server_id]

        for server, perf in zip(pair.training.servers, (0.5, 0.25)):
            server.perf_factor = perf
            view.note_server_attrs(server)
        loan(rm, 8)  # members join through deltas: the columns grow
        assert len(view._active) > _INITIAL_SLOTS

        def walk_matches_reference():
            ids = [s.server_id for s in pair.training.servers]
            special, hetero, elastic = rng.choice([
                (True, False, True), (True, True, False),
                (True, False, False), (False, False, True),
            ])
            query = dict(
                gpus_per_worker=rng.choice([1, 1, 2, 4]),
                train_ok=rng.random() < 0.8,
                loan_ok=rng.random() < 0.8,
                type_lock=rng.choice([None, None] + types),
                flexible=rng.random() < 0.5, heterogeneous=hetero,
                elastic=elastic, special_grouping=special,
                unhealthy_ids=set(rng.sample(ids, rng.randint(0, 2))),
                exclude_ids=set(rng.sample(ids, rng.randint(0, 2))),
            )
            if rng.random() < 0.5:
                query.update(
                    job_region=rng.choice(["east", "west", None]),
                    region_of=region_of,
                )
            ranked = ref.ranked_candidates(**query)
            # walking production's best-then-exclude loop (what
            # placement does after a transient launch failure)
            # enumerates exactly the reference's sorted list
            walked = []
            while True:
                best = view.select_best(**query)
                if best is None:
                    break
                walked.append(best.server_id)
                query["exclude_ids"] = query["exclude_ids"] | {
                    best.server_id
                }
            assert walked == [s.server_id for s in ranked]

        walk_matches_reference()
        _random_walk(
            view, rm, pair, jobs, rng, per_step=walk_matches_reference
        )


# ----------------------------------------------------------------------
# pickling and crash recovery carry the columns
# ----------------------------------------------------------------------
def test_pickle_roundtrip_rebuilds_columns():
    """The columns are pickled as they are: a restored view answers and
    keeps absorbing deltas with no rebuild step (the id predates that —
    the old mirror dropped its columns and rebuilt lazily); only the
    derived placement columns are re-derived, on the first query."""
    pair = ClusterPair(make_training_cluster(3), make_inference_cluster(3))
    view = ClusterView(pair.training)
    pair.training.servers[0].allocate(0, 2)
    clone = pickle.loads(pickle.dumps(view))
    assert clone.cluster is not pair.training
    # the clone's servers feed the clone, not the original
    clone.cluster.servers[1].allocate(1, 1)
    clone.assert_consistent()
    view.assert_consistent()
    assert clone.dedicated_free == view.dedicated_free - 1
    best = clone.select_best(
        gpus_per_worker=1, train_ok=True, loan_ok=True, type_lock=None,
        flexible=False, heterogeneous=False, elastic=True,
        special_grouping=True,
    )
    assert best is clone.cluster.servers[0]  # non-idle, fewest free GPUs


#: what a pickled view carries: the columns and the books — no derived
#: placement column, no job table, no cost cache
PICKLED_VIEW_KEYS = [
    "_active", "_free", "_free_slots", "_free_total",
    "_group_code", "_has_alloc", "_id_rank", "_on_loan", "_onloan_types",
    "_pending_cache", "_perf", "_ranks_stale", "_rel_by_code",
    "_server_at", "_slot_of", "_type_code", "_type_codes", "_worker_costs",
    "cluster", "default_onloan_cost", "version",
]


def test_pickle_leaves_derived_columns_out_and_clone_answers_alike():
    """The packed key, the cell column and the region codes are caches:
    a pickle carries none of them, and the restored clone re-derives
    them to answer every query exactly like the original."""
    pair = ClusterPair(make_training_cluster(4), make_inference_cluster(4))
    jobs = _make_jobs()
    view = ClusterView(pair.training)
    rm = ResourceManager(pair, jobs)
    loan(rm, 3)
    servers = pair.training.servers
    rm.launch(jobs[0], servers[0], 2, 1, flexible=False)
    rm.launch(jobs[1], servers[-1], 3, 1, flexible=True)
    servers[-1].group = "flex"
    view.note_group_change(servers[-1])
    servers[1].perf_factor = 0.5
    view.note_server_attrs(servers[1])
    regions = {s.server_id: ("east" if i % 2 else "west")
               for i, s in enumerate(servers)}

    def region_of(server):
        return regions[server.server_id]

    queries = [
        dict(
            gpus_per_worker=gpus, train_ok=train_ok, loan_ok=loan_ok,
            type_lock=None, flexible=flexible, heterogeneous=hetero,
            elastic=elastic, special_grouping=special,
            job_region=job_region, region_of=region_of,
        )
        for gpus in (1, 4)
        for train_ok, loan_ok in ((True, True), (True, False), (False, True))
        for flexible in (False, True)
        for special, hetero, elastic in (
            (True, False, True), (True, True, False), (False, False, False),
        )
        for job_region in (None, "east")
    ]

    def answers(v):
        best = [v.select_best(**q) for q in queries]
        return [None if s is None else s.server_id for s in best]

    expected = answers(view)
    assert view._key is not None and view._regions is not None
    assert sorted(view.__getstate__()) == PICKLED_VIEW_KEYS
    clone = pickle.loads(pickle.dumps(view))
    assert clone._key is None and clone._regions is None
    assert answers(clone) == expected
    clone.assert_consistent()


def test_recovery_roundtrip_under_array_backend(tmp_path):
    """Kill-anywhere restart equivalence: the recovered run reproduces
    the continuous run's golden digest and comes back up on a consistent
    column view (loans and returns included)."""
    with GOLDEN_PATH.open() as fh:
        golden = json.load(fh)["lyra_loaning"]["sha256"]
    sim = build_sim("lyra_loaning")
    manager = RecoveryManager(
        tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
        crash=CrashInjector([CrashPoint(KILL_AT, BARRIER_BETWEEN_EVENTS)]),
    )
    manager.attach(sim)
    with pytest.raises(SimulatedCrash):
        sim.run()
    assert manager.checkpoints > 0
    del sim

    recovered = RecoveryManager.recover(tmp_path)
    recovered.resume()
    assert digest(recovered.activities) == golden
    assert type(recovered.view) is ClusterView
    recovered.view.assert_consistent()


# ----------------------------------------------------------------------
# the vectorized MCKP kernel is bit-exact
# ----------------------------------------------------------------------
@st.composite
def mckp_instances(draw):
    num_groups = draw(st.integers(0, 4))
    groups = []
    for _ in range(num_groups):
        items = [
            Item(
                weight=draw(st.integers(0, 6)),
                value=float(draw(st.integers(-2, 20))) / 2.0,
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        groups.append(items)
    capacity = draw(st.integers(0, 12))
    return groups, capacity


class TestMCKPKernels:
    @given(inst=mckp_instances())
    @settings(max_examples=200, deadline=None)
    def test_numpy_dp_bit_equals_scalar_dp(self, inst):
        groups, capacity = inst
        v_np, c_np = solve_mckp(groups, capacity)
        v_py, c_py = solve_mckp_scalar(groups, capacity)
        assert v_np == v_py  # bit-equal floats, not approx
        assert c_np == c_py  # identical item choices, group by group
        _, weight = solution_cost(c_np)
        assert weight <= capacity

    @given(inst=mckp_instances())
    @settings(max_examples=100, deadline=None)
    def test_numpy_dp_matches_bruteforce_optimum(self, inst):
        groups, capacity = inst
        v_np, _ = solve_mckp(groups, capacity)
        v_bf, _ = solve_mckp_bruteforce(groups, capacity)
        assert v_np == pytest.approx(v_bf)

