"""Unit tests for the job model: specs, placement, progress, lifecycle."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.job import (
    BEYOND_RANGE_EFFICIENCY,
    JobSpec,
    JobStatus,
    spec_from_record,
    spec_record,
)
from repro.elastic.throughput import SUBLINEAR_20

from tests.conftest import make_job


class TestJobSpecValidation:
    def test_inelastic_defaults_min_to_max(self):
        spec = JobSpec(job_id=1, submit_time=0, duration=10, max_workers=4)
        assert spec.min_workers == 4

    def test_rejects_negative_submit(self):
        with pytest.raises(ValueError):
            JobSpec(job_id=1, submit_time=-1, duration=10, max_workers=1)

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            JobSpec(job_id=1, submit_time=0, duration=0, max_workers=1)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            JobSpec(job_id=1, submit_time=0, duration=10, max_workers=0)

    def test_rejects_min_above_max(self):
        with pytest.raises(ValueError):
            JobSpec(
                job_id=1, submit_time=0, duration=10,
                max_workers=2, min_workers=4, elastic=True,
            )

    def test_rejects_inelastic_with_range(self):
        with pytest.raises(ValueError):
            JobSpec(
                job_id=1, submit_time=0, duration=10,
                max_workers=4, min_workers=2, elastic=False,
            )

    def test_rejects_zero_gpus_per_worker(self):
        with pytest.raises(ValueError):
            JobSpec(
                job_id=1, submit_time=0, duration=10,
                max_workers=1, gpus_per_worker=0,
            )


@st.composite
def job_specs(draw):
    """Any valid JobSpec but for ``scaling``, which no record carries."""
    max_workers = draw(st.integers(1, 64))
    elastic = draw(st.booleans())
    return JobSpec(
        job_id=draw(st.integers(0, 2**40)),
        submit_time=draw(st.floats(0.0, 1e9)),
        duration=draw(st.floats(1e-3, 1e9)),
        max_workers=max_workers,
        min_workers=draw(st.integers(1, max_workers)) if elastic else 0,
        gpus_per_worker=draw(st.integers(1, 8)),
        elastic=elastic,
        fungible=draw(st.booleans()),
        heterogeneous=draw(st.booleans()),
        checkpointing=draw(st.booleans()),
        model_family=draw(st.text(max_size=12)),
    )


class TestSpecCodec:
    @given(job_specs())
    def test_a_record_reads_back_as_its_spec(self, spec):
        assert spec_from_record(spec_record(spec)) == spec
        # ... and so does its text, the way a CSV row comes back
        text = {name: str(value) for name, value in spec_record(spec).items()}
        assert spec_from_record(text) == spec

    BASE = {"job_id": 1, "submit_time": 0.0, "duration": 10.0,
            "max_workers": 2}

    def test_an_integral_number_reads_as_an_int(self):
        spec = spec_from_record({**self.BASE, "max_workers": 2.0})
        assert spec.max_workers == 2 and type(spec.max_workers) is int

    @pytest.mark.parametrize("record,field", [
        ({"job_id": 1, "submit_time": 0.0, "max_workers": 2}, "duration"),
        ({**BASE, "scale": "linear"}, "scale"),
        ({**BASE, "max_workers": "2.7"}, "max_workers"),
        ({**BASE, "elastic": ""}, "elastic"),
        ({**BASE, "submit_time": "nan"}, "submit_time"),
        ({**BASE, "job_id": False}, "job_id"),
    ], ids=["missing", "unknown", "fraction-text", "empty-flag",
            "nan-text", "bool-id"])
    def test_a_bad_record_is_refused_by_field(self, record, field):
        with pytest.raises(ValueError, match=repr(field)):
            spec_from_record(record)


class TestWorkAccounting:
    def test_total_work_is_demand_times_runtime(self):
        # Table 2 semantics: duration is the minimum running time at max
        # demand, so workload = w_max * gpw * duration.
        job = make_job(duration=50, max_workers=6, min_workers=2,
                       gpus_per_worker=1, elastic=True)
        assert job.spec.total_work == 300

    def test_base_and_max_gpus(self):
        job = make_job(max_workers=6, min_workers=2, gpus_per_worker=2,
                       elastic=True)
        assert job.spec.base_gpus == 4
        assert job.spec.max_gpus == 12

    def test_running_time_inverse_in_workers(self):
        # §5: running time inversely proportional to allocation.
        job = make_job(duration=50, max_workers=6, min_workers=2, elastic=True)
        assert job.remaining_time_at(6) == pytest.approx(50)
        assert job.remaining_time_at(2) == pytest.approx(150)
        assert job.remaining_time_at(3) == pytest.approx(100)

    def test_remaining_time_zero_workers_is_inf(self):
        assert make_job().remaining_time_at(0) == math.inf

    def test_sublinear_scaling_slows_added_workers(self):
        job = make_job(duration=50, max_workers=6, min_workers=2, elastic=True)
        job.scaling_model = SUBLINEAR_20
        # eff(2) = 1.8, eff(6) = 5.0; times scale accordingly.
        base = job.remaining_time_at(2)
        full = job.remaining_time_at(6)
        assert base / full == pytest.approx(5.0 / 1.8)

    def test_beyond_range_workers_discounted(self):
        job = make_job(duration=100, max_workers=2, min_workers=1, elastic=True)
        t_in = job.remaining_time_at(2)
        t_out = job.remaining_time_at(3)
        # worker 3 contributes only BEYOND_RANGE_EFFICIENCY of a worker
        expected = t_in * 2 / (2 + BEYOND_RANGE_EFFICIENCY)
        assert t_out == pytest.approx(expected)


class TestPlacement:
    def test_record_and_count(self):
        job = make_job(max_workers=4, min_workers=2, elastic=True)
        job.record_placement("s1", 2, flexible=False)
        job.record_placement("s2", 1, flexible=True)
        assert job.total_workers == 3
        assert job.base_workers == 2
        assert job.flex_workers == 1
        assert job.servers == {"s1", "s2"}
        assert job.workers_on("s1") == 2

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            make_job().record_placement("s1", 0, flexible=False)

    def test_remove_placement_returns_count(self):
        job = make_job(max_workers=4, min_workers=1, elastic=True)
        job.record_placement("s1", 1, flexible=False)
        job.record_placement("s1", 2, flexible=True)
        assert job.remove_placement("s1") == 3
        assert job.total_workers == 0

    def test_remove_flex_keeps_base(self):
        job = make_job(max_workers=4, min_workers=1, elastic=True)
        job.record_placement("s1", 1, flexible=False)
        job.record_placement("s1", 2, flexible=True)
        assert job.remove_flex_on("s1") == 2
        assert job.base_workers == 1
        assert job.workers_on("s1") == 1

    def test_gpu_cost_tracking(self):
        job = make_job(gpus_per_worker=2)
        job.record_placement("t4-server", 1, flexible=False, gpu_cost=6,
                             on_loan=True)
        assert job.gpu_cost_on("t4-server") == 6
        assert job.gpus_on("t4-server") == 6

    def test_gpu_cost_defaults_to_gpw(self):
        job = make_job(gpus_per_worker=2)
        job.record_placement("v100", 3, flexible=False)
        assert job.gpus_on("v100") == 6

    def test_onloan_fraction(self):
        job = make_job(max_workers=4, min_workers=2, elastic=True)
        job.record_placement("train", 2, flexible=False)
        job.record_placement("loan", 2, flexible=True, on_loan=True)
        assert job.onloan_throughput_fraction() == pytest.approx(0.5)


class TestProgress:
    def test_throughput_is_placement_independent_speed(self):
        # The §5.2 normalization charges footprint, not speed: a worker
        # contributes its nominal GPUs wherever it runs.
        job = make_job(max_workers=2, gpus_per_worker=2)
        job.record_placement("loan", 2, flexible=False, gpu_cost=6, on_loan=True)
        assert job.throughput() == pytest.approx(4.0)

    def test_advance_consumes_work(self):
        job = make_job(duration=100, max_workers=2)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(0.0)
        job.advance(50.0)
        assert job.remaining_work == pytest.approx(100.0)
        assert job.eta() == pytest.approx(50.0)

    def test_advance_accumulates_onloan_work(self):
        job = make_job(duration=100, max_workers=2)
        job.record_placement("loan", 2, flexible=False, gpu_cost=6, on_loan=True)
        job.mark_started(0.0)
        job.advance(10.0)
        assert job.onloan_work == pytest.approx(20.0)

    def test_advance_rejects_time_travel(self):
        job = make_job()
        job.mark_started(10.0)
        with pytest.raises(ValueError):
            job.advance(5.0)

    def test_eta_infinite_without_workers(self):
        job = make_job()
        job.mark_started(0.0)
        assert job.eta() == math.inf

    def test_hetero_penalty_slows_progress(self):
        job = make_job(max_workers=2, heterogeneous=True)
        job.record_placement("s1", 2, flexible=False)
        full = job.throughput()
        job.hetero_penalty = 0.7
        assert job.throughput() == pytest.approx(0.7 * full)

    def test_tuning_bonus_speeds_progress(self):
        job = make_job(max_workers=2)
        job.record_placement("s1", 2, flexible=False)
        base = job.throughput()
        job.tuning_bonus = 1.08
        assert job.throughput() == pytest.approx(1.08 * base)


class TestLifecycle:
    def test_started_job_records_first_start(self):
        job = make_job(submit_time=5.0)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(30.0)
        assert job.status is JobStatus.RUNNING
        assert job.queuing_time == pytest.approx(25.0)

    def test_finish_records_jct(self):
        job = make_job(submit_time=5.0)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(30.0)
        job.mark_finished(130.0)
        assert job.status is JobStatus.FINISHED
        assert job.jct == pytest.approx(125.0)
        assert job.total_workers == 0

    def test_cannot_restart_finished(self):
        job = make_job()
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(0.0)
        job.mark_finished(10.0)
        with pytest.raises(RuntimeError):
            job.mark_started(20.0)

    def test_preemption_without_checkpoint_loses_progress(self):
        job = make_job(duration=100, max_workers=2)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(0.0)
        job.mark_preempted(50.0, overhead=0.0)
        assert job.status is JobStatus.PENDING
        assert job.remaining_work == pytest.approx(job.spec.total_work)
        assert job.preemptions == 1
        assert job.total_workers == 0

    def test_preemption_with_checkpoint_keeps_progress(self):
        job = make_job(duration=100, max_workers=2, checkpointing=True)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(0.0)
        job.mark_preempted(50.0, overhead=0.0)
        assert job.remaining_work == pytest.approx(100.0)

    def test_preemption_overhead_adds_work(self):
        # §7.5: 63 s average preemption overhead, charged at full rate.
        job = make_job(duration=100, max_workers=2, checkpointing=True)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(0.0)
        job.mark_preempted(50.0, overhead=63.0)
        assert job.remaining_work == pytest.approx(100.0 + 63.0 * 2)

    def test_queuing_none_before_start(self):
        job = make_job()
        assert job.queuing_time is None
        assert job.jct is None

    def test_requeue_keeps_first_start_time(self):
        job = make_job()
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(10.0)
        job.mark_preempted(20.0)
        job.record_placement("s1", 2, flexible=False)
        job.mark_started(40.0)
        assert job.first_start_time == 10.0

    def test_estimate_error_scales_estimate_only(self):
        job = make_job(duration=100)
        job.estimate_error = 1.25
        assert job.estimated_duration() == pytest.approx(125.0)
        assert job.spec.duration == 100.0
