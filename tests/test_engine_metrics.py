"""Tests for the event engine and the metrics layer."""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import Engine
from repro.simulator.metrics import (
    DistributionSummary,
    SimulationMetrics,
    TimeSeries,
    percentile,
    reduction,
)

from tests.conftest import make_job


class TestEngine:
    def test_events_run_in_time_order(self):
        seen = []
        engine = Engine(dispatch=seen.append)
        engine.schedule(5.0, ("b",))
        engine.schedule(1.0, ("a",))
        engine.schedule(9.0, ("c",))
        engine.run()
        assert seen == [("a",), ("b",), ("c",)]
        assert engine.now == 9.0

    def test_ties_run_in_insertion_order(self):
        seen = []
        engine = Engine(dispatch=seen.append)
        engine.schedule(1.0, ("x", 1))
        engine.schedule(1.0, ("x", 2))
        engine.run()
        assert seen == [("x", 1), ("x", 2)]

    def test_schedule_in_past_raises(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(ValueError):
            engine.schedule(5.0, ("late",))

    def test_schedule_after_negative_raises(self):
        with pytest.raises(ValueError):
            Engine().schedule_after(-1.0, ("late",))

    def test_run_until_stops_early(self):
        seen = []
        engine = Engine(dispatch=seen.append)
        engine.schedule(1.0, ("x", 1))
        engine.schedule(10.0, ("x", 2))
        engine.run(until=5.0)
        assert seen == [("x", 1)]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_until_is_inclusive(self):
        seen = []
        engine = Engine(dispatch=seen.append)
        engine.schedule(5.0, ("x",))
        engine.run(until=5.0)
        assert seen == [("x",)]

    def test_callbacks_can_schedule_more(self):
        seen = []

        def dispatch(tag):
            seen.append(engine.now)
            if engine.now < 3:
                engine.schedule_after(1.0, tag)

        engine = Engine(dispatch=dispatch)
        engine.schedule(0.0, ("chain",))
        engine.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_stop_aborts_loop(self):
        seen = []

        def dispatch(tag):
            if tag == ("stop",):
                engine.stop()
            else:
                seen.append(tag)

        engine = Engine(dispatch=dispatch)
        engine.schedule(1.0, ("stop",))
        engine.schedule(2.0, ("nope",))
        engine.run()
        assert seen == []

    def test_run_advances_to_until_when_idle(self):
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_tags_fire_through_dispatch_and_pickle_as_data(self):
        fired = []
        engine = Engine(dispatch=fired.append)
        engine.schedule(2.0, ("b", 7))
        engine.schedule(1.0, ("a",))
        frozen = pickle.loads(pickle.dumps(engine))
        assert frozen.snapshot_events() == engine.snapshot_events()
        engine.run()
        assert fired == [("a",), ("b", 7)]
        # a restored heap is the same data; its owner hands dispatch back
        refired = []
        frozen.dispatch = refired.append
        frozen.run()
        assert refired == fired


#: an event: (time, delays of the events it schedules when it fires);
#: small integer times make same-timestamp ties the common case
_EVENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.lists(st.integers(min_value=0, max_value=3), max_size=3),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    events=_EVENTS,
    until=st.none() | st.integers(min_value=0, max_value=10),
    stop_at=st.none() | st.integers(min_value=0, max_value=20),
)
def test_property_between_hook_never_changes_what_runs(events, until, stop_at):
    """``run(until, between=hook)`` fires the same (time, seq) sequence
    as ``run(until)`` — ties, events that schedule events and a
    ``stop()`` included — and calls the hook once before every event
    and once after the last."""

    def drive(hooked: bool):
        fired, hook_calls, armed = [], [], []

        def arm(when, children):
            armed.append(children)
            engine.schedule(when, ("event", len(armed) - 1))

        def dispatch(tag):
            seq = tag[1]
            fired.append((engine.now, seq))
            for i, delay in enumerate(armed[seq]):
                # grandchildren thin out, so every schedule terminates
                arm(engine.now + delay, armed[seq][i + 1:])
            if len(fired) - 1 == stop_at:
                engine.stop()

        engine = Engine(dispatch=dispatch)
        for when, children in events:
            arm(float(when), children)
        hook = (lambda: hook_calls.append(len(fired))) if hooked else None
        end = engine.run(until=until, between=hook)
        return fired, hook_calls, end, engine.snapshot_events()

    fired, _, end, left = drive(hooked=False)
    hooked_fired, hook_calls, hooked_end, hooked_left = drive(hooked=True)
    assert fired == sorted(fired)  # (time, seq) order
    assert (hooked_fired, hooked_end, hooked_left) == (fired, end, left)
    assert hook_calls == list(range(len(fired) + 1))


class TestDistributionSummary:
    def test_from_values(self):
        summary = DistributionSummary.from_values(list(range(1, 101)))
        assert summary.mean == pytest.approx(50.5)
        assert summary.median == pytest.approx(50.5)
        assert summary.p95 == pytest.approx(95.05)
        assert summary.count == 100

    def test_empty_is_nan(self):
        summary = DistributionSummary.from_values([])
        assert math.isnan(summary.mean)
        assert summary.count == 0

    def test_percentile_helper(self):
        assert percentile([1, 2, 3, 4], 50) == pytest.approx(2.5)
        assert math.isnan(percentile([], 50))


class TestTimeSeries:
    def test_mean(self):
        series = TimeSeries()
        series.append(0, 0.5)
        series.append(300, 1.0)
        assert series.mean() == pytest.approx(0.75)

    def test_hourly_means_buckets(self):
        series = TimeSeries()
        for t, v in [(0, 0.2), (1800, 0.4), (3600, 1.0)]:
            series.append(t, v)
        assert series.hourly_means() == [pytest.approx(0.3), 1.0]

    def test_empty(self):
        assert math.isnan(TimeSeries().mean())
        assert TimeSeries().hourly_means() == []
        assert TimeSeries().hourly_max() == []

    def test_hourly_max_and_bounds(self):
        series = TimeSeries()
        for t, v in [(0, 0.2), (1800, 0.4), (3600, 1.0), (5400, 0.6)]:
            series.append(t, v)
        assert series.hourly_max() == [pytest.approx(0.4), 1.0]

    def test_custom_bucket_width(self):
        series = TimeSeries()
        for t, v in [(0, 1.0), (100, 3.0), (200, 5.0)]:
            series.append(t, v)
        assert series.bucket_means(width=200.0) == [pytest.approx(2.0), 5.0]
        assert series.bucket_max(width=200.0) == [3.0, 5.0]
        assert series.buckets(width=200.0) == {0: [1.0, 3.0], 1: [5.0]}

    def test_from_samples(self):
        series = TimeSeries.from_samples([0.1, 0.2, 0.3], interval=300.0)
        assert series.times == [0.0, 300.0, 600.0]
        assert series.values == [0.1, 0.2, 0.3]


class TestSimulationMetrics:
    def finished_job(self, job_id, submit, start, finish, onloan=0.0):
        job = make_job(job_id=job_id, submit_time=submit, duration=100,
                       max_workers=2)
        job.record_placement("s", 2, flexible=False)
        job.mark_started(start)
        job.onloan_work = onloan * job.spec.total_work
        job.mark_finished(finish)
        return job

    @staticmethod
    def metrics_over(*jobs):
        """Metrics over a job table, the way a kernel hands it one."""
        return SimulationMetrics(jobs={job.job_id: job for job in jobs})

    def test_queuing_and_jct_distributions(self):
        metrics = self.metrics_over(
            self.finished_job(1, 0, 10, 110),
            self.finished_job(2, 0, 0, 50),
        )
        assert metrics.queuing_summary().mean == pytest.approx(5.0)
        assert metrics.jct_summary().mean == pytest.approx(80.0)

    def test_queued_only_filter(self):
        metrics = self.metrics_over(
            self.finished_job(1, 0, 10, 110),
            self.finished_job(2, 0, 0, 50),
        )
        assert metrics.queuing_times(queued_only=True) == [10.0]

    def test_preemption_ratio(self):
        metrics = SimulationMetrics()
        metrics.submissions = 50
        metrics.preemptions = 5
        assert metrics.preemption_ratio == pytest.approx(0.1)

    def test_preemption_ratio_no_submissions(self):
        assert SimulationMetrics().preemption_ratio == 0.0

    def test_onloan_job_selection(self):
        metrics = self.metrics_over(
            self.finished_job(1, 0, 0, 100, onloan=0.9),
            self.finished_job(2, 0, 0, 100, onloan=0.1),
        )
        assert metrics.onloan_job_ids() == [1]
        assert metrics.onloan_job_ids(min_fraction=0.05) == [1, 2]

    def test_summary_for_subset(self):
        metrics = self.metrics_over(
            self.finished_job(1, 0, 10, 110),
            self.finished_job(2, 0, 0, 50),
        )
        summaries = metrics.summary_for([1])
        assert summaries["jct"].mean == pytest.approx(110.0)
        assert summaries["queuing"].count == 1

    def test_reduction_metric(self):
        assert reduction(3072.0, 2010.0) == pytest.approx(1.528, abs=1e-3)
        assert reduction(1.0, 0.0) == math.inf

    def test_completion_ratio(self):
        unfinished = make_job(job_id=3)
        metrics = self.metrics_over(self.finished_job(1, 0, 0, 50), unfinished)
        assert metrics.completion_ratio() == pytest.approx(0.5)
