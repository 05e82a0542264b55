"""Unit tests for the scheduling view and its consumers.

Covers: pool totals vs a manual scan, the deterministic on-loan cost
(the old scan derived it from iteration order), the cached pending-queue
ordering, candidate/capacity queries vs the oracle's full-scan
reference view, reclaim pricing on a placed cluster, engine wake-up
peeking, epoch skipping and heartbeat skip-ahead in the simulator.  The
random-delta properties of the same class live in
``tests/test_arrays.py``.
"""

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.gpu import A100, T4
from repro.cluster.job import JobSpec
from repro.cluster.server import Server
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.core.reclaim import server_preemption_cost
from repro.core.view import ClusterView, deterministic_onloan_cost
from repro.oracle.refview import ReferenceView, install_reference_view
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.fifo import FIFOScheduler, SJFScheduler
from repro.simulator.engine import Engine
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import loan, make_engine, make_job


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

    class _FakeSim:
        def __init__(self, view):
            self.cluster = view.cluster
            self.view = view

    def test_cost_independent_of_iteration_order(self):
        a = self._hetero_pair([T4, A100])
        b = self._hetero_pair([A100, T4])
        pa = SchedulerPolicy.free_pools(self._FakeSim(ClusterView(a)))
        pb = SchedulerPolicy.free_pools(self._FakeSim(ClusterView(b)))
        assert pa.onloan_cost == pb.onloan_cost
        # weakest loaned type (T4, relative_compute 1/3) sets the cost
        assert pa.onloan_cost == pytest.approx(1.0 / T4.relative_compute)

    def test_view_and_scan_paths_agree(self):
        cluster = self._hetero_pair([A100, T4])
        scan = SchedulerPolicy.free_pools(
            self._FakeSim(ReferenceView(cluster))
        )
        via_view = SchedulerPolicy.free_pools(
            self._FakeSim(ClusterView(cluster))
        )
        assert scan == via_view

    def test_default_when_nothing_loaned(self):
        assert deterministic_onloan_cost([], default=3.0) == 3.0
        assert deterministic_onloan_cost([], default=0.5) == 1.0

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
        engine = Engine()
        assert engine.peek_next_time() is None
        engine.schedule(5.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.peek_next_time() == 2.0
        engine.run(until=3.0)
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
