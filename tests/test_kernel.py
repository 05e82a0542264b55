"""Unit tests for the driver-agnostic scheduling kernel.

The kernel/driver seam is exercised directly with a hand-cranked
ManualDriver — no engine, no event loop — so these tests pin the
protocol the simulator and the serving daemon both rely on: epoch
batching through ``trigger_schedule``, the coalescing interval, the
``epoch_finished`` hook, drain detection, and cancellation (pending,
running with a live completion timer, unknown, finished).
"""

import math
import pickle
from collections import deque

import numpy as np
import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.core.kernel import Driver, SchedulerKernel, SimulationConfig
from repro.obs import Observability
from repro.obs.provenance import PROVENANCE_EVENT
from repro.recovery.state import capture_payload, restore_payload
from repro.recovery.wal import PlanWAL
from repro.schedulers.fifo import FIFOScheduler


class ManualDriver(Driver):
    """A hand-cranked clock: tests control time and fire timers."""

    def __init__(self, start: float = 0.0):
        self._now = start
        #: armed timers as ``(when, seq, tag)``; fired in (when,
        #: arming-order) order like the engine's heap
        self.timers = []
        self._seq = 0
        self.epochs_finished = 0
        #: fires a due tag: the hosted kernel's ``dispatch``
        self.dispatch = None

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, when, tag):
        self._seq += 1
        self.timers.append((when, self._seq, tag))

    def schedule_after(self, delay, tag):
        self.schedule(self._now + delay, tag)

    def epoch_finished(self):
        self.epochs_finished += 1

    # -- test controls -------------------------------------------------
    def advance_to(self, t: float) -> int:
        """Fire every timer due at or before ``t``; returns fire count."""
        fired = 0
        while True:
            due = [timer for timer in self.timers if timer[0] <= t]
            if not due:
                break
            timer = min(due, key=lambda x: (x[0], x[1]))
            self.timers.remove(timer)
            self._now = max(self._now, timer[0])
            self.dispatch(timer[2])
            fired += 1
        self._now = max(self._now, t)
        return fired

    def armed_tags(self):
        return [timer[2] for timer in self.timers]


def _spec(job_id, duration=100.0, max_workers=2, **kw):
    kw.setdefault("submit_time", 0.0)
    return JobSpec(job_id=job_id, duration=duration,
                   max_workers=max_workers, **kw)


def _kernel(interval=10.0, **config_kw):
    pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
    driver = ManualDriver()
    kernel = SchedulerKernel(
        [], pair, FIFOScheduler(),
        config=SimulationConfig(scheduler_interval=interval, **config_kw),
        driver=driver,
    )
    driver.dispatch = kernel.dispatch
    return kernel, driver


def _submit(kernel, job_id, **kw):
    job = kernel.register_job(_spec(job_id, **kw))
    kernel.admit_job(job)
    return job


def _naming(root, job_id):
    """Paths from ``root`` to everything that names ``job_id``: the bare
    id (as a key, a member, an attribute or an array cell) or a spec
    carrying it.  Walks dicts, sequences, sets, arrays and instance
    attributes; callables are opaque."""
    hits, seen, stack = [], set(), [("kernel", root)]
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, int) and not isinstance(obj, bool):
            if obj == job_id:
                hits.append(path)
            continue
        if id(obj) in seen or callable(obj):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype.kind in "iu" and (obj == job_id).any():
                hits.append(path)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                stack.append((f"{path}<key>", key))
                stack.append((f"{path}[{key!r}]", value))
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend((f"{path}[]", item) for item in obj)
        else:
            attrs = dict(getattr(obj, "__dict__", {}))
            for name in getattr(type(obj), "__slots__", ()):
                attrs[name] = getattr(obj, name, None)
            stack.extend((f"{path}.{n}", v) for n, v in attrs.items())
    return sorted(hits)


class TestDriverProtocol:
    def test_base_class_raises(self):
        driver = Driver()
        with pytest.raises(NotImplementedError):
            driver.now
        with pytest.raises(NotImplementedError):
            driver.schedule(0.0, ("tick",))
        with pytest.raises(NotImplementedError):
            driver.schedule_after(0.0, ("tick",))
        with pytest.raises(NotImplementedError):
            driver.epoch_finished()

    def test_kernel_without_driver_is_its_own(self):
        pair = ClusterPair(
            make_training_cluster(1), make_inference_cluster(1)
        )
        kernel = SchedulerKernel([], pair, FIFOScheduler())
        assert kernel.driver is kernel

    def test_kernel_now_delegates_to_driver(self):
        kernel, driver = _kernel()
        driver._now = 42.5
        assert kernel.now == 42.5


class _TickingDriver(ManualDriver):
    """A live clock: every read of ``now`` is later than the last, as
    the wall-clock driver's is."""

    @property
    def now(self) -> float:
        self._now += 0.25
        return self._now


class TestOneEpochOneInstant:
    def test_every_staged_start_is_the_plans_now(self):
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
        driver = _TickingDriver()
        kernel = SchedulerKernel(
            [], pair, FIFOScheduler(),
            config=SimulationConfig(scheduler_interval=10.0),
            driver=driver, obs=Observability.enabled(),
        )
        driver.dispatch = kernel.dispatch
        jobs = [_submit(kernel, i, max_workers=1) for i in range(4)]
        driver.advance_to(50.0)
        (plan,) = [e.args for e in kernel.tracer.events
                   if e.name == PROVENANCE_EVENT]
        assert plan["by_kind"] == {"launch": 4}
        for job, launch in zip(jobs, plan["actions"]):
            assert job.first_start_time == plan["now"]
            assert launch["queued_s"] == plan["now"] - job.spec.submit_time


class TestEpochBatching:
    def test_burst_of_submits_arms_one_tick(self):
        kernel, driver = _kernel(interval=10.0)
        for i in range(5):
            _submit(kernel, i)
        assert driver.armed_tags().count(("tick",)) == 1

    def test_one_epoch_plans_the_whole_batch(self):
        kernel, driver = _kernel(interval=10.0)
        for i in range(5):
            _submit(kernel, i, max_workers=1)
        driver.advance_to(0.0)
        assert driver.epochs_finished == 1
        assert kernel.executor.plans_applied == 1
        assert len(kernel.running) == 5
        assert not kernel.pending

    def test_coalescing_respects_min_interval(self):
        kernel, driver = _kernel(interval=10.0)
        _submit(kernel, 0, max_workers=1)
        driver.advance_to(0.0)  # first epoch at t=0
        _submit(kernel, 1, max_workers=1)
        # the new tick must not land before last_tick + interval
        ticks = [t for t in driver.timers if t[2] == ("tick",)]
        assert len(ticks) == 1
        assert ticks[0][0] == pytest.approx(10.0)
        # nothing fires before the interval elapses
        assert driver.advance_to(9.99) == 0
        driver.advance_to(10.0)
        assert kernel.running[1].status is JobStatus.RUNNING
        assert driver.epochs_finished == 2

    def test_trigger_while_tick_pending_is_absorbed(self):
        kernel, driver = _kernel(interval=10.0)
        _submit(kernel, 0)
        kernel.trigger_schedule()
        kernel.trigger_schedule()
        assert driver.armed_tags().count(("tick",)) == 1


class TestDrain:
    def test_drained_after_work_completes(self):
        kernel, driver = _kernel(interval=1.0)
        _submit(kernel, 0, duration=50.0, max_workers=1)
        driver.advance_to(0.0)
        assert not kernel.drained
        driver.advance_to(1000.0)  # completion + follow-up epoch
        assert kernel.jobs[0].status is JobStatus.FINISHED
        assert kernel.drained

    def test_empty_kernel_is_drained(self):
        kernel, _ = _kernel()
        assert kernel.drained

    def test_epoch_finished_fires_per_epoch(self):
        kernel, driver = _kernel(interval=1.0)
        _submit(kernel, 0, duration=5.0, max_workers=1)
        driver.advance_to(1000.0)
        # at least the admission epoch and the post-completion epoch
        assert driver.epochs_finished >= 2


class TestCancel:
    def test_cancel_pending_job(self):
        kernel, driver = _kernel(interval=10.0)
        _submit(kernel, 0)
        assert kernel.cancel_job(0) is True
        assert 0 not in kernel.jobs
        assert not kernel.pending
        driver.advance_to(100.0)
        assert not kernel.running

    def test_cancel_running_mid_epoch_frees_gpus(self):
        kernel, driver = _kernel(interval=10.0)
        _submit(kernel, 0, duration=500.0, max_workers=1)
        driver.advance_to(0.0)
        free_before = kernel.pair.training.free_gpus
        assert kernel.cancel_job(0) is True
        assert kernel.pair.training.free_gpus > free_before
        assert 0 not in kernel.running and 0 not in kernel.jobs
        # the orphaned completion timer must fire as a harmless no-op
        driver.advance_to(10_000.0)
        assert not kernel.running

    @pytest.mark.parametrize("when", ["pending", "running"])
    def test_cancel_leaves_nothing_in_the_kernel_naming_the_job(
        self, when, tmp_path
    ):
        """A cancelled job takes its bookkeeping along: once the next
        epoch ran and its orphaned completion timer fired, only the plan
        WAL — the record — still names the id."""
        victim = 987_654_321
        kernel, driver = _kernel(interval=10.0)
        kernel.executor.wal = PlanWAL(tmp_path / "wal.jsonl")
        # the two servers hold 16 GPUs: the victim fits beside job 0 or not
        _submit(kernel, 0, duration=500.0,
                max_workers=15 if when == "running" else 16)
        _submit(kernel, victim, duration=500.0, max_workers=1)
        driver.advance_to(0.0)
        assert (victim in kernel.running) == (when == "running")
        assert _naming(kernel, victim)  # the walk does find a live job
        assert kernel.cancel_job(victim) is True
        driver.advance_to(10_000.0)
        assert _naming(kernel, victim) == []
        assert kernel.metrics.submissions == 2  # counted, not kept
        journaled = str(victim) in (tmp_path / "wal.jsonl").read_text()
        assert journaled == (when == "running")

    def test_cancel_is_idempotent_and_safe(self):
        kernel, driver = _kernel()
        assert kernel.cancel_job(99) is False  # unknown
        _submit(kernel, 0, duration=10.0, max_workers=1)
        driver.advance_to(10_000.0)
        assert kernel.jobs[0].status is JobStatus.FINISHED
        assert kernel.cancel_job(0) is False  # finished
        assert 0 in kernel.jobs  # finished jobs keep their metrics row

    def test_cancel_triggers_reschedule_for_waiters(self):
        kernel, driver = _kernel(interval=1.0)
        # fill the cluster with one fat job, queue a second behind it
        fat = 2 * 8  # two servers of 8 GPUs
        _submit(kernel, 0, duration=10_000.0, max_workers=fat,
                min_workers=fat)
        driver.advance_to(0.0)
        _submit(kernel, 1, duration=10.0, max_workers=1, min_workers=1)
        driver.advance_to(2.0)
        assert 1 not in kernel.running  # blocked behind the fat job
        kernel.cancel_job(0)
        driver.advance_to(20.0)
        assert kernel.jobs[1].status in (
            JobStatus.RUNNING, JobStatus.FINISHED
        )


class TestActivitySink:
    def test_sink_sees_every_logged_activity(self):
        kernel, driver = _kernel(interval=1.0, record_activities=True)
        seen = []
        kernel.activity_sink = lambda a, extra: seen.append(a.kind.value)
        _submit(kernel, 0, duration=10.0, max_workers=1)
        driver.advance_to(1000.0)
        assert "submit" in seen
        assert "start" in seen
        assert "finish" in seen
        assert seen == [a.kind.value for a in kernel.activities]


class TestKernelMisc:
    def test_infinite_eta_arms_no_timer(self):
        kernel, driver = _kernel()
        job = kernel.register_job(_spec(0))
        before = len(driver.timers)
        kernel._schedule_completion_at(job, math.inf)
        assert len(driver.timers) == before

    def test_register_job_keeps_metrics_roster_in_step(self):
        kernel, _ = _kernel()
        kernel.register_job(_spec(0))
        kernel.register_job(_spec(1))
        assert kernel.metrics.submissions == 2
        assert {j.job_id for j in kernel.metrics.jobs} == {0, 1}


class TestRestartExactness:
    """A snapshot carries the armed timers themselves, so a restored
    kernel finishes its jobs when the uninterrupted one would — restore
    re-derives nothing from ``job.eta()`` (which is as of the job's last
    progress update, not of the capture instant)."""

    def _captured_at_600(self):
        kernel, driver = _kernel()
        _submit(kernel, 0, duration=1000.0)
        driver.advance_to(0.0)
        assert 0 in kernel.running
        driver.advance_to(600.0)
        _submit(kernel, 1, duration=50.0, max_workers=64)  # arms a tick
        return kernel, restore_payload(pickle.loads(capture_payload(kernel)))

    def test_running_job_finishes_on_time_after_a_restore(self):
        kernel, restored = self._captured_at_600()
        assert restored is not kernel and restored.now == 600.0
        epoch = kernel.jobs[0].completion_epoch
        assert restored.jobs[0].completion_epoch == epoch
        assert sorted(restored.driver.armed_tags()) == sorted(
            kernel.driver.armed_tags()
        )
        restored.driver.advance_to(2000.0)
        job = restored.jobs[0]
        assert job.status is JobStatus.FINISHED
        assert job.finish_time == 1000.0
        assert job.completion_epoch == epoch

    def test_pending_tick_comes_back_armed_exactly_once(self):
        _, restored = self._captured_at_600()
        assert restored.driver.armed_tags().count(("tick",)) == 1
        restored.trigger_schedule()  # absorbed: the armed tick is pending
        assert restored.driver.armed_tags().count(("tick",)) == 1
        epochs = restored.driver.epochs_finished
        restored.driver.advance_to(700.0)
        assert restored.driver.epochs_finished == epochs + 1
