"""Unit tests and random-delta properties of the scheduling view.

Deterministic unit tests: pool totals vs a manual scan, the deterministic
on-loan cost (the old scan derived it from iteration order), the cached
pending-queue ordering, candidate/capacity queries vs the oracle's
full-scan reference view, reclaim pricing on a placed cluster, engine
wake-up peeking, epoch skipping and heartbeat skip-ahead in the
simulator.

Property-based coverage of the view's central contract: the numpy
columns of :class:`repro.core.view.ClusterView`, maintained from deltas,
must equal a from-scratch rebuild after *any* interleaving of cluster
mutations — and every query (pools, best-candidate selection incl. the
region tie-break and the unhealthy/transient-launch exclusions, domain
capacity) must return exactly what the oracle's scan-from-scratch
:class:`repro.oracle.refview.ReferenceView` returns over the same
cluster.  Pickling and crash recovery carry the columns, and the MCKP DP
kernel is pinned bit-identical to its scalar reference.

The golden-log suite (``tests/test_equivalence.py``) pins end-to-end
behaviour; these tests pin the *mechanisms* so a column bug is caught at
the delta that introduced it, not as an opaque digest mismatch.
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
from repro.cluster.gpu import A100, T4
from repro.cluster.job import Job, JobSpec
from repro.cluster.server import BASE_GROUP, Server
from repro.core.mckp import (
    Item,
    solve_mckp,
    solve_mckp_bruteforce,
    solution_cost,
)
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.core.reclaim import server_preemption_cost
from repro.core.view import (
    _INITIAL_SLOTS,
    DEFAULT_ONLOAN_COST,
    ClusterView,
    deterministic_onloan_cost,
)
from repro.faults.crash import (
    BARRIER_BETWEEN_EVENTS,
    CrashInjector,
    CrashPoint,
    SimulatedCrash,
)
from repro.oracle.reference import solve_mckp_scalar
from repro.oracle.refview import ReferenceView, install_reference_view
from repro.recovery.manager import RecoveryManager
from repro.rm.manager import ResourceManager
from repro.schedulers.fifo import FIFOScheduler, SJFScheduler
from repro.simulator.engine import Engine
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import loan, make_engine, make_job
from tests.test_equivalence import GOLDEN_PATH, build_scenario, digest
from tests.test_recovery import CHECKPOINT_EVERY, KILL_AT


def _pair(train=3, infer=3):
    return ClusterPair(
        make_training_cluster(train), make_inference_cluster(infer)
    )


class TestViewPools:
    def test_pools_match_manual_scan(self):
        pair = _pair()
        view = ClusterView(pair.training)
        loan(pair, 2)
        job = make_job(job_id=1, gpus_per_worker=2, max_workers=3)
        engine = make_engine(view)
        engine.place([PlacementRequest(job, base_workers=2, flex_workers=1)])
        pools = view.pools()
        training = sum(
            s.free_gpus for s in pair.training.servers if not s.on_loan
        )
        onloan = sum(
            s.free_gpus for s in pair.training.servers if s.on_loan
        )
        assert pools.training == training
        assert pools.onloan == onloan

    def test_dedicated_free_tracks_allocations(self):
        pair = _pair()
        view = ClusterView(pair.training)
        total = pair.training.free_gpus
        assert view.dedicated_free == total
        server = pair.training.servers[0]
        server.allocate(7, 3)
        assert view.dedicated_free == total - 3
        server.release(7)
        assert view.dedicated_free == total

    def test_loan_and_return_move_capacity_between_pools(self):
        pair = _pair()
        view = ClusterView(pair.training)
        assert view.onloan_free == 0
        moved = loan(pair, 2)
        assert view.onloan_free == sum(s.num_gpus for s in moved)
        pair.return_server(moved[0].server_id)
        assert view.onloan_free == moved[1].num_gpus


class TestDeterministicOnloanCost:
    """Regression for the iteration-order-dependent onloan_cost bug."""

    def _hetero_pair(self, order):
        """A training cluster plus hand-built loaned T4 and A100 servers
        added in the given order."""
        training = make_training_cluster(2)
        for i, gpu_type in enumerate(order):
            server = Server(
                server_id=f"loan-{i}",
                gpu_type=gpu_type,
                home_cluster="inference",
                on_loan=True,
            )
            training.add_server(server)
        return training

    def test_cost_independent_of_iteration_order(self):
        a = self._hetero_pair([T4, A100])
        b = self._hetero_pair([A100, T4])
        pa = ClusterView(a).pools()
        pb = ClusterView(b).pools()
        assert pa.onloan_cost == pb.onloan_cost
        # weakest loaned type (T4, relative_compute 1/3) sets the cost
        assert pa.onloan_cost == pytest.approx(1.0 / T4.relative_compute)

    def test_view_and_scan_paths_agree(self):
        cluster = self._hetero_pair([A100, T4])
        scan = ReferenceView(cluster).pools()
        via_view = ClusterView(cluster).pools()
        assert scan == via_view

    def test_default_when_nothing_loaned(self):
        assert deterministic_onloan_cost([]) == DEFAULT_ONLOAN_COST == 3.0

    def test_cost_never_below_one(self):
        # loaned hardware stronger than training GPUs clamps at 1
        assert deterministic_onloan_cost([2.0]) == 1.0


class TestViewIndexes:
    def test_candidates_equal_full_scan(self):
        pair = _pair(train=4, infer=4)
        view = ClusterView(pair.training)
        ref = ReferenceView(pair.training)
        loan(pair, 3)
        # partially fill a mix of servers
        filler = make_job(job_id=50, gpus_per_worker=1, max_workers=9,
                          min_workers=9, fungible=True)
        make_engine(view).place([PlacementRequest(filler, base_workers=9)])
        for flexible in (False, True):
            query = dict(
                gpus_per_worker=2, train_ok=True, loan_ok=True,
                type_lock=None, flexible=flexible, heterogeneous=False,
                elastic=False, special_grouping=True,
            )
            scan = [s.server_id for s in ref.ranked_candidates(**query)]
            assert len(scan) > 1
            # the view's best-then-exclude walk visits the full scan's
            # sorted candidate list, in order
            walked = []
            while len(walked) < len(scan) + 1:
                best = view.select_best(**query, exclude_ids=set(walked))
                if best is None:
                    break
                walked.append(best.server_id)
            assert walked == scan

    def test_domain_capacity_equals_scan(self):
        pair = _pair(train=3, infer=3)
        view = ClusterView(pair.training)
        loan(pair, 2)
        job = make_job(job_id=60, gpus_per_worker=3, heterogeneous=True)
        pair.training.servers[0].allocate(99, 7)
        for on_loan in (False, True):
            scan = sum(
                s.free_gpus // PlacementEngine.worker_cost(job, s)
                for s in pair.training.servers
                if s.on_loan == on_loan
            )
            assert view.domain_capacity(on_loan, 3) == scan
            assert ReferenceView(pair.training).domain_capacity(
                on_loan, 3
            ) == scan

    def test_gang_room_equals_scan(self):
        """A gang's room is ``free // cost`` over exactly the servers
        ``select_best`` walks: eligible domain, healthy, the locked GPU
        type, room for one worker."""
        pair = _pair(train=3, infer=3)
        view = ClusterView(pair.training)
        ref = ReferenceView(pair.training)
        loan(pair, 3)
        train, *_, lent = pair.training.servers
        train.allocate(99, 7)  # 1 GPU left: no room for a 2-GPU worker
        lent.allocate(98, 2)  # 6 T4 GPUs left: one 2-GPU worker (cost 6)
        pair.training.servers[3].group = BASE_GROUP
        view.note_group_change(pair.training.servers[3])
        sick = {pair.training.servers[1].server_id}
        for lock, train_ok, loan_ok, unhealthy, room in (
            (None, True, True, None, 4 + 4 + 1 + 1 + 1),
            ("V100", True, True, None, 4 + 4),
            ("V100", True, True, sick, 4),
            ("T4", True, True, None, 1 + 1 + 1),
            ("T4", True, False, None, 0),
            (None, False, True, sick, 3),
            ("A100", True, True, None, 0),  # a type no member has
        ):
            query = (2, train_ok, loan_ok, lock, unhealthy)
            assert view.gang_room(*query) == ref.gang_room(*query) == room
            # a gang fits exactly up to its room, whether the candidate
            # count settles it (small gangs) or the division does
            for workers in (1, room, room + 1):
                fits = workers <= room
                assert view.gang_fits(workers, *query) == fits
                assert ref.gang_fits(workers, *query) == fits
            candidates = ref.ranked_candidates(
                2, train_ok, loan_ok, lock, False, False, True, True,
                unhealthy_ids=unhealthy,
            )
            assert room == sum(s.free_gpus // (
                6 if s.on_loan else 2) for s in candidates)
            hosts = [s.server_id for s in view.ungrouped_loans(*query)]
            assert hosts == [s.server_id for s in ref.ungrouped_loans(*query)]
            assert hosts == sorted(
                s.server_id for s in candidates
                if s.on_loan and s.group is None
            )

    def test_reclaim_cost_matches_direct_computation(self):
        """On a cluster the placement engine filled, a server's reported
        preemption cost is Table 1's server fraction summed by hand:
        ``1 / base span`` per job with base workers there."""
        pair = _pair(train=0, infer=4)
        view = ClusterView(pair.training)
        loan(pair, 4)
        jobs = {}
        engine = make_engine(view)
        for i in range(3):
            job = make_job(job_id=i, gpus_per_worker=2, max_workers=4,
                           min_workers=2, fungible=True, elastic=True)
            jobs[job.job_id] = job
            engine.place(
                [PlacementRequest(job, base_workers=2, flex_workers=1)]
            )
        for server in pair.training.servers:
            direct = sum(
                1.0 / len(job.base_placement)
                for job in jobs.values()
                if server.server_id in job.base_placement
            )
            assert server_preemption_cost(server, jobs) == pytest.approx(
                direct
            )

    def test_ordered_pending_caches_until_delta(self):
        pair = _pair()
        view = ClusterView(pair.training)
        jobs = [make_job(job_id=i, submit_time=float(10 - i)) for i in range(4)]
        def key(j):
            return (j.spec.submit_time, j.job_id)

        first = view.ordered_pending("fifo", key, jobs)
        assert [j.job_id for j in first] == [3, 2, 1, 0]
        # same version: the very same list object is reused
        assert view.ordered_pending("fifo", key, jobs) is first
        view.note_queue_change()
        jobs.append(make_job(job_id=9, submit_time=0.0))
        second = view.ordered_pending("fifo", key, jobs)
        assert second is not first
        assert [j.job_id for j in second] == [9, 3, 2, 1, 0]

    def test_key_field_overflow_is_refused_at_index(self, monkeypatch):
        """A server the packed placement key cannot hold is refused with
        a typed error when it is indexed, never wrapped into the next
        field; at the limit it still packs exactly."""
        training = make_training_cluster(2)
        view = ClusterView(training)
        limit = Server(server_id="wide", gpu_type=A100, num_gpus=4095)
        training.add_server(limit)
        best = view.select_best(
            gpus_per_worker=1, train_ok=True, loan_ok=True, type_lock=None,
            flexible=False, heterogeneous=False, elastic=False,
            special_grouping=True,
        )
        assert best is not limit  # fewest free GPUs first: 8 < 4095
        view.assert_consistent()
        with pytest.raises(OverflowError):
            ClusterView(make_training_cluster(0)).server_added(
                Server(server_id="huge", gpu_type=A100, num_gpus=4096)
            )
        # the id-rank field: a view that may hold four members refuses
        # the fifth
        monkeypatch.setattr("repro.core.view._ID_BITS", 2)
        four = make_training_cluster(4)
        small = ClusterView(four)
        with pytest.raises(OverflowError):
            four.add_server(Server(server_id="fifth", gpu_type=A100))
        assert len(small._slot_of) == 4

    def test_assert_consistent_detects_drift(self):
        pair = _pair()
        view = ClusterView(pair.training)
        view.assert_consistent()
        # corrupt the cached total behind the view's back
        view._free_total[False] -= 1
        with pytest.raises(AssertionError):
            view.assert_consistent()

    @pytest.mark.parametrize("column", ["_key", "_cell", "_regions"])
    def test_assert_consistent_audits_derived_columns(self, column):
        """The packed key, the cell column and the region codes must
        equal a from-scratch pack of the live servers."""
        pair = _pair()
        view = ClusterView(pair.training)
        loan(pair, 2)
        view.select_best(
            gpus_per_worker=1, train_ok=True, loan_ok=True, type_lock=None,
            flexible=False, heterogeneous=False, elastic=True,
            special_grouping=True, job_region="training",
            region_of=pair.region_of,
        )
        view.assert_consistent()
        slot = view._slot_of[pair.training.servers[-1].server_id]
        if column == "_regions":
            view._regions[1][slot] = -1
        else:
            getattr(view, column)[slot] += 1
        with pytest.raises(AssertionError):
            view.assert_consistent()


class TestEnginePeek:
    def test_peek_next_time(self):
        fired = []
        engine = Engine(dispatch=fired.append)
        assert engine.peek_next_time() is None
        engine.schedule(5.0, ("late",))
        engine.schedule(2.0, ("early",))
        assert engine.peek_next_time() == 2.0
        engine.run(until=3.0)
        assert fired == [("early",)]
        assert engine.peek_next_time() == 5.0


class TestSimulationFastPath:
    def _specs(self, n=40):
        return [
            JobSpec(
                job_id=i,
                submit_time=float(i * 37 % 1200),
                duration=900.0 + (i % 7) * 300.0,
                max_workers=2,
                min_workers=1,
                gpus_per_worker=1 + i % 2,
                elastic=True,
            )
            for i in range(n)
        ]

    def _run(self, policy=None, reference_view=False):
        pair = _pair(train=2, infer=2)
        sim = Simulation(
            self._specs(),
            pair,
            policy or FIFOScheduler(),
            config=SimulationConfig(record_activities=True),
        )
        if reference_view:
            install_reference_view(sim)
        sim.run()
        return sim

    def test_epochs_skipped_with_identical_logs(self):
        class EveryEpochFIFO(FIFOScheduler):
            epoch_idempotent = False  # opts out of epoch skipping

        full = self._run(EveryEpochFIFO())
        fast = self._run()
        assert fast._epochs_skipped > 0
        assert full._epochs_skipped == 0
        assert full.activities == fast.activities
        assert self._run(reference_view=True).activities == fast.activities

    def test_heartbeat_skip_ahead_reduces_wakeups(self):
        sim = self._run(policy=SJFScheduler())
        # un-skipped, the heartbeat fires on every 60 s grid point
        assert sim._heartbeats < sim.now / 60.0
        reference = self._run(policy=SJFScheduler(), reference_view=True)
        assert reference.activities == sim.activities
        assert reference._heartbeats == sim._heartbeats

    def test_view_consistent_after_full_run(self):
        sim = self._run()
        sim.view.assert_consistent()


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
    for on_loan in (False, True):
        assert view.domain_gpus(on_loan) == ref.domain_gpus(on_loan)
        assert view.domain_used(on_loan) == ref.domain_used(on_loan)
    for gpus_per_worker in (1, 2, 3):
        for on_loan in (False, True):
            assert view.domain_capacity(on_loan, gpus_per_worker) == (
                ref.domain_capacity(on_loan, gpus_per_worker)
            )
    ids = sorted(s.server_id for s in ref.cluster.servers)
    for lock in (None, "V100", "T4", "A100"):
        for unhealthy in (None, set(ids[::2])):
            for train_ok, loan_ok in ((True, True), (True, False), (False, True)):
                query = (2, train_ok, loan_ok, lock, unhealthy)
                room = ref.gang_room(*query)
                assert view.gang_room(*query) == room
                for workers in (1, 2, room, room + 1):
                    assert view.gang_fits(workers, *query) == (
                        ref.gang_fits(workers, *query)
                    )
                assert [s.server_id for s in view.ungrouped_loans(*query)] == [
                    s.server_id for s in ref.ungrouped_loans(*query)
                ]


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
        rebuilt = ClusterView(pair.training, attach=False)
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
            # a gang's room and its on-loan ungrouped hosts: the same
            # candidate set, whatever the tier rule, exclusions aside
            room_query = (
                query["gpus_per_worker"], query["train_ok"],
                query["loan_ok"], query["type_lock"], query["unhealthy_ids"],
            )
            room = ref.gang_room(*room_query)
            assert view.gang_room(*room_query) == room
            for workers in (1, 2, room, room + 1):
                assert view.gang_fits(workers, *room_query) == (room >= workers)
            assert [
                s.server_id for s in view.ungrouped_loans(*room_query)
            ] == [s.server_id for s in ref.ungrouped_loans(*room_query)]

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
    "_active", "_free", "_free_slots", "_free_total", "_gpu_total",
    "_group_code", "_has_alloc", "_id_rank", "_on_loan", "_onloan_types",
    "_pending_cache", "_perf", "_ranks_stale", "_rel_by_code",
    "_server_at", "_slot_of", "_type_code", "_type_codes", "_worker_costs",
    "cluster", "version",
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
    sim = build_scenario("lyra_loaning")
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
