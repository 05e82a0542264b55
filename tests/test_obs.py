"""Tests for the observability subsystem: tracer, metrics registry,
phase profiler, trace inspection and the CLI wiring."""

import json
import math
import time

import pytest

from repro.cli import main
from repro.obs import (
    Observability,
    PROVENANCE_EVENT,
    SPAN_EVENT,
    SUMMARY_EVENT,
    TimelineStore,
    TraceFormatError,
    Tracer,
    build_report,
    diff_traces,
    inspect_trace,
    load_trace,
    percentile,
    render_diff,
    render_summary,
    render_why,
    summarize,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import NULL_PROFILER, PhaseProfiler
from repro.scenarios import default_setup, run_scheme
from repro.simulator.metrics import SimulationMetrics


class TestTracer:
    def test_events_ordered_by_time_then_seq(self):
        tracer = Tracer()
        tracer.emit("b", ts=5.0)
        tracer.emit("a", ts=1.0)
        tracer.emit("c", ts=1.0)
        ordered = tracer.sorted_events()
        assert [(e.ts, e.name) for e in ordered] == [
            (1.0, "a"), (1.0, "c"), (5.0, "b"),
        ]
        # ties broken by emission order
        assert ordered[0].seq < ordered[1].seq

    def test_category_derived_from_name(self):
        tracer = Tracer()
        tracer.emit("job.start", ts=0.0, job_id=3, workers=2)
        event = tracer.events[0]
        assert event.cat == "job"
        assert event.job_id == 3
        assert event.args == {"workers": 2}

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer.disabled()
        for i in range(100):
            tracer.emit("job.start", ts=float(i), job_id=i)
        assert len(tracer) == 0
        assert tracer.sorted_events() == []

    def test_disabled_tracer_is_cheaper_than_enabled(self):
        # The whole point of the enabled-flag short-circuit: emitting
        # into a disabled tracer must beat actually recording events.
        n = 50_000
        off, on = Tracer.disabled(), Tracer()
        t0 = time.perf_counter()
        for i in range(n):
            off.emit("job.start", ts=0.0, job_id=i)
        t_off = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(n):
            on.emit("job.start", ts=0.0, job_id=i)
        t_on = time.perf_counter() - t0
        assert len(off) == 0 and len(on) == n
        assert t_off < t_on

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.emit("job.submit", ts=0.0, job_id=1)
        tracer.emit("job.start", ts=2.0, job_id=1, workers=4)
        path = tmp_path / "t.jsonl"
        count = tracer.export_jsonl(str(path), summary={"phases": {}})
        lines = path.read_text().splitlines()
        assert count == len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "job.submit"
        assert records[1]["args"] == {"workers": 4}
        assert records[-1]["name"] == SUMMARY_EVENT

    def test_chrome_export_round_trips_json(self, tmp_path):
        tracer = Tracer()
        tracer.emit("job.submit", ts=0.0, job_id=1)
        tracer.emit("job.start", ts=1.0, job_id=1)
        tracer.emit("job.finish", ts=11.0, job_id=1, jct_s=11.0)
        tracer.emit("scheduler.epoch", ts=12.0)
        path = tmp_path / "t.json"
        tracer.export_chrome(str(path), summary={"metrics": {}})
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 1
        # microsecond timestamps on the simulated clock
        assert spans[0]["ts"] == 1_000_000
        assert spans[0]["dur"] == 10_000_000
        counters = [e for e in events if e["ph"] == "C"]
        assert counters  # running/pending track exists
        assert doc["otherData"]["summary"] == {"metrics": {}}

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="jsonl|chrome"):
            Tracer().export(str(tmp_path / "t"), format="xml")


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("sim.preemptions")
        a.inc()
        assert reg.counter("sim.preemptions") is a
        assert reg.counter("sim.preemptions").value == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("ops", kind="loan").inc(2)
        reg.counter("ops", kind="reclaim").inc(3)
        snap = reg.snapshot()
        assert snap["counters"]["ops{kind=loan}"] == 2
        assert snap["counters"]["ops{kind=reclaim}"] == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("usage")
        assert math.isnan(gauge.value)
        gauge.inc(0.5)
        gauge.inc(-0.25)
        assert gauge.value == pytest.approx(0.25)
        hist = reg.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        assert hist.count == 4
        assert hist.mean() == pytest.approx(2.5)
        assert hist.percentile(50) == pytest.approx(2.5)

    def test_snapshot_and_find(self):
        reg = MetricsRegistry()
        reg.counter("sim.submissions").inc(7)
        reg.gauge("usage.training").set(0.8)
        reg.histogram("orchestrator.collateral").observe(0.1)
        snap = reg.snapshot()
        assert snap["counters"]["sim.submissions"] == 7
        assert snap["histograms"]["orchestrator.collateral"]["count"] == 1
        assert snap["gauges"] == {"usage.training": 0.8}


class TestPhaseProfiler:
    def test_records_calls_and_totals(self):
        prof = PhaseProfiler()
        for _ in range(3):
            with prof.phase("tick"):
                pass
        (stat,) = prof.stats()
        assert stat.name == "tick" and stat.calls == 3
        assert stat.total_s >= 0.0
        assert stat.max_ms >= stat.mean_ms * 0.5
        assert "tick" in prof.render_table()

    def test_stats_sorted_by_total(self):
        prof = PhaseProfiler()
        with prof.phase("fast"):
            pass
        with prof.phase("slow"):
            time.sleep(0.002)
        assert [s.name for s in prof.stats()] == ["slow", "fast"]

    def test_disabled_profiler_shares_null_phase(self):
        prof = PhaseProfiler.disabled()
        cm1, cm2 = prof.phase("a"), prof.phase("b")
        assert cm1 is cm2  # one shared no-op object, no allocation
        with cm1:
            pass
        assert prof.stats() == []
        assert NULL_PROFILER.phase("x") is cm1


class TestSimulationMetricsShim:
    def test_bare_construction_still_works(self):
        metrics = SimulationMetrics()
        metrics.preemptions += 2
        metrics.loan_ops.append(3)
        assert metrics.preemptions == 2
        assert metrics.loan_ops == [3]

    def test_attributes_backed_by_registry(self):
        reg = MetricsRegistry()
        metrics = SimulationMetrics(registry=reg)
        metrics.submissions = 5
        metrics.reclaim_ops.append(2)
        snap = reg.snapshot()
        assert snap["counters"]["sim.submissions"] == 5
        assert snap["histograms"]["orchestrator.reclaim_servers"]["count"] == 1


def tiny_obs_run(obs=None):
    setup = default_setup(
        num_jobs=60, days=0.5, training_servers=6, inference_servers=8,
        seed=3,
    )
    return run_scheme(setup, "lyra", obs=obs)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        obs = Observability.enabled()
        tiny_obs_run(obs)
        path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
        obs.export_trace(str(path))
        return obs, str(path)

    def test_lifecycle_events_present(self, traced):
        obs, _ = traced
        counts = {}
        for event in obs.tracer.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        assert counts["job.submit"] == 60
        assert counts["job.start"] == 60
        assert counts["job.finish"] == 60
        assert counts.get("scheduler.epoch", 0) > 0
        assert counts.get("scheduler.mckp", 0) > 0

    def test_phase_timings_recorded(self, traced):
        obs, _ = traced
        phases = obs.phases.to_dict()
        assert "scheduler.tick" in phases
        assert "scheduler.allocation" in phases
        assert phases["scheduler.tick"]["calls"] > 0

    def test_every_jsonl_line_parses(self, traced):
        _, path = traced
        lines = open(path).read().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert records[-1]["name"] == SUMMARY_EVENT
        assert "phases" in records[-1]["args"]

    def test_inspect_renders_all_sections(self, traced):
        _, path = traced
        report = inspect_trace(path)
        for section in ("trace overview", "event census",
                        "phase timing", "recorded metrics"):
            assert section in report

    def test_seeded_runs_produce_identical_event_streams(self):
        # obs.span events carry a wall-clock dur_ms, so they are pinned
        # separately (structure only) below the exact stream comparison.
        streams, spans = [], []
        for _ in range(2):
            obs = Observability.enabled()
            tiny_obs_run(obs)
            events = obs.tracer.sorted_events()
            streams.append([
                (e.ts, e.name, e.job_id, json.dumps(e.args, sort_keys=True,
                                                    default=str))
                for e in events if e.cat != "span"
            ])
            spans.append([
                (e.ts, e.args["span"], e.args["span_id"],
                 e.args["parent_id"])
                for e in events if e.cat == "span"
            ])
        assert streams[0] == streams[1]
        assert spans[0] and spans[0] == spans[1]

    def test_inspect_deterministic_outside_wall_clock(self, tmp_path):
        # Everything repro inspect prints before the phase-timing table
        # is derived from simulated time only, so two seeded runs agree.
        reports = []
        for i in range(2):
            obs = Observability.enabled()
            tiny_obs_run(obs)
            path = tmp_path / f"t{i}.jsonl"
            obs.export_trace(str(path))
            reports.append(inspect_trace(str(path)))
        head = [r.split("== phase timing")[0] for r in reports]
        assert head[0] == head[1]

    def test_disabled_obs_run_matches_default(self):
        # A run with the disabled bundle reports the same numbers as a
        # bare run — observability must not perturb the simulation.
        a = tiny_obs_run()
        b = tiny_obs_run(Observability.disabled())
        assert a.jct_summary().mean == b.jct_summary().mean
        assert a.preemptions == b.preemptions

    def test_chrome_trace_loads_back(self, traced):
        obs, _ = traced
        import io

        buf = io.StringIO()
        obs.tracer.export_chrome(buf, summary=obs.summary())
        doc = json.loads(buf.getvalue())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])


class TestInspectLoader:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_trace(str(path))

    def test_garbage_lines_skipped_and_counted(self, tmp_path):
        # A killed run leaves a truncated last line; that must not make
        # the whole trace unreadable.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"name": "job.submit", "ts": 0}\n'
            'not json\n'
            '{"name": "job.start", "ts": 1}\n'
            '{"name": "job.finish", "ts": 2, "args": {"jct_s":\n'
        )
        trace = load_trace(str(path))
        assert [e["name"] for e in trace["events"]] \
            == ["job.submit", "job.start"]
        assert trace["skipped_lines"] == 2
        summary = summarize(trace)
        assert summary.skipped_lines == 2
        assert "skipped 2 corrupt lines" in render_summary(summary)

    def test_fully_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\nstill not json\n")
        with pytest.raises(TraceFormatError, match="no parseable"):
            load_trace(str(path))

    def test_unknown_event_types_surfaced(self):
        trace = {"events": [
            {"ts": 0.0, "name": "job.submit"},
            {"ts": 1.0, "name": "mystery.event"},
            {"ts": 2.0, "name": "mystery.event"},
        ], "summary": {}}
        summary = summarize(trace)
        assert summary.unknown_events == {"mystery.event": 2}
        assert "unrecognized event types: mystery.event ×2" \
            in render_summary(summary)

    def test_chrome_document_auto_detected(self, tmp_path):
        tracer = Tracer()
        tracer.emit("job.submit", ts=1.0, job_id=4)
        tracer.emit("job.start", ts=2.0, job_id=4)
        tracer.emit("job.finish", ts=3.0, job_id=4)
        path = tmp_path / "t.json"
        tracer.export_chrome(str(path))
        trace = load_trace(str(path))
        # the whole lifecycle survives the Chrome round trip as instants
        names = [e["name"] for e in trace["events"]]
        assert names == ["job.submit", "job.start", "job.finish"]
        event = next(e for e in trace["events"] if e["name"] == "job.submit")
        assert event["ts"] == pytest.approx(1.0)
        assert event["job_id"] == 4
        summary = summarize(trace)
        assert (summary.submissions, summary.starts, summary.finishes) \
            == (1, 1, 1)

    def test_summarize_preemption_breakdown(self):
        trace = {"events": [
            {"ts": 0.0, "name": "job.preempt", "job_id": 1,
             "args": {"cause": "reclaim"}},
            {"ts": 1.0, "name": "job.preempt", "job_id": 1,
             "args": {"cause": "reclaim"}},
            {"ts": 2.0, "name": "job.preempt", "job_id": 2,
             "args": {"cause": "node_failure"}},
            {"ts": 3.0, "name": "orchestrator.reclaim",
             "args": {"demand": 2, "servers": ["i0"], "preempted": [1],
                      "collateral": 0.25}},
        ], "summary": {}}
        summary = summarize(trace)
        assert summary.preemptions == 3
        assert summary.preempt_causes == {"reclaim": 2, "node_failure": 1}
        assert summary.preempt_victims == {1: 2, 2: 1}
        report = render_summary(summary)
        assert "cause reclaim" in report
        assert "job 1 ×2" in report
        assert "0.250" in report


class TestSharedPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_single_sample_exact_for_any_pct(self):
        for pct in (0, 37.5, 50, 100):
            assert percentile([4.2], pct) == 4.2

    def test_extremes_are_exact_min_max(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_linear_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == pytest.approx(2.5)
        assert percentile(values, 25) == pytest.approx(1.75)

    def test_invalid_pct_rejected(self):
        for bad in (-1, 101, float("nan")):
            with pytest.raises(ValueError):
                percentile([1.0], bad)

    def test_simulator_metrics_share_the_helper(self):
        # bench_table8_percentiles consumes the simulator summaries, so
        # one percentile definition must serve both layers
        from repro.simulator.metrics import percentile as sim_percentile

        values = [1.0, 2.0, 3.0, 4.0]
        hist = MetricsRegistry().histogram("x")
        for v in values:
            hist.observe(v)
        for pct in (0, 25, 50, 95, 100):
            assert hist.percentile(pct) == sim_percentile(values, pct) \
                == percentile(values, pct)


class TestSpanTracing:
    @pytest.fixture(scope="class")
    def spans(self):
        obs = Observability.enabled()
        tiny_obs_run(obs)
        events = [e for e in obs.tracer.sorted_events()
                  if e.name == SPAN_EVENT]
        return obs, events

    def test_phases_promoted_to_spans(self, spans):
        _, events = spans
        names = {e.args["span"] for e in events}
        assert {"scheduler.tick", "scheduler.decide",
                "plan.validate", "plan.commit"} <= names

    def test_span_ids_unique_and_parents_resolve(self, spans):
        _, events = spans
        ids = [e.args["span_id"] for e in events]
        assert len(ids) == len(set(ids))
        known = set(ids)
        assert all(e.args["parent_id"] is None
                   or e.args["parent_id"] in known for e in events)

    def test_decide_nested_under_scheduler_tick(self, spans):
        _, events = spans
        by_id = {e.args["span_id"]: e for e in events}
        decide = [e for e in events
                  if e.args["span"] == "scheduler.decide"]
        assert decide
        for e in decide:
            parent = by_id[e.args["parent_id"]]
            assert parent.args["span"] == "scheduler.tick"

    def test_chrome_export_renders_spans_on_own_track(self, spans):
        obs, events = spans
        import io

        buf = io.StringIO()
        obs.tracer.export_chrome(buf)
        doc = json.loads(buf.getvalue())
        lanes = [e for e in doc["traceEvents"]
                 if e.get("pid") == 2 and e.get("ph") == "X"]
        assert len(lanes) == len(events)
        assert all(lane["dur"] >= 1 for lane in lanes)

    def test_disabled_profiler_emits_no_spans(self):
        obs = Observability.disabled()
        tiny_obs_run(obs)
        assert len(obs.tracer) == 0
        assert obs.phases.stats() == []


class TestProvenanceLedger:
    @pytest.fixture(scope="class")
    def ledger(self):
        obs = Observability.enabled()
        tiny_obs_run(obs)
        events = obs.tracer.events
        provs = [e for e in events if e.name == PROVENANCE_EVENT]
        plans = [e for e in events if e.name == "scheduler.plan"]
        spans = [e for e in events if e.name == SPAN_EVENT]
        return provs, plans, spans

    def test_every_committed_plan_has_provenance(self, ledger):
        provs, plans, _ = ledger
        assert provs and plans
        assert {e.args["plan_id"] for e in provs} \
            == {e.args["plan_id"] for e in plans}

    def test_records_carry_policy_triggers_pricing_actions(self, ledger):
        provs, _, _ = ledger
        for e in provs:
            assert e.args["policy"]
            assert isinstance(e.args["triggers"], list)
            assert "pricing" in e.args
            assert e.args["actions"]
        kinds = {t["kind"] for e in provs for t in e.args["triggers"]}
        assert "arrival" in kinds

    def test_lyra_epochs_note_mckp_inputs(self, ledger):
        provs, _, _ = ledger
        noted = [e for e in provs
                 if e.args["policy"] == "lyra" and e.args.get("inputs")]
        assert noted
        assert any("mckp_admitted" in e.args["inputs"] for e in noted)

    def test_provenance_span_links_resolve(self, ledger):
        provs, _, spans = ledger
        span_ids = {e.args["span_id"] for e in spans}
        linked = [e for e in provs if e.args.get("span_id") is not None]
        assert linked
        assert all(e.args["span_id"] in span_ids for e in linked)

    def test_untraced_run_allocates_no_provenance(self, monkeypatch):
        # the zero-cost-when-disabled contract, asserted structurally:
        # a run without tracing must never construct a Provenance
        import repro.core.actions as actions_mod
        import repro.core.kernel as kernel_mod
        import repro.simulator.simulation as sim_mod

        calls = []

        class Spy:
            def __init__(self, *args, **kwargs):
                calls.append((args, kwargs))

        monkeypatch.setattr(sim_mod, "Provenance", Spy)
        monkeypatch.setattr(kernel_mod, "Provenance", Spy)
        monkeypatch.setattr(actions_mod, "Provenance", Spy)
        tiny_obs_run()  # default bundle: tracing off
        assert calls == []

    def test_untraced_run_keeps_no_trigger_state(self):
        from repro.scenarios import build_sim

        setup = default_setup(
            num_jobs=30, days=0.25, training_servers=4,
            inference_servers=6, seed=3,
        )
        sim = build_sim(setup, "lyra")
        sim.run()
        assert sim._pending_triggers == []
        assert sim._dropped_triggers == 0
        assert len(sim.tracer) == 0


@pytest.fixture(scope="module")
def chaos_trace(tmp_path_factory):
    """A traced chaos run that exercises every causal path: outage- and
    reclaim-caused preemptions, loans, stragglers, a flash crowd."""
    from repro.faults import resolve_plan

    setup = default_setup(
        num_jobs=120, days=0.5, training_servers=4, inference_servers=10,
        seed=2, target_load=1.6,
    )
    obs = Observability.enabled()
    run_scheme(
        setup, "lyra", seed=2,
        sim_overrides={"fault_plan": resolve_plan("chaos")}, obs=obs,
    )
    path = tmp_path_factory.mktemp("chaos") / "chaos.jsonl"
    obs.export_trace(str(path))
    return str(path)


class TestTimelineAndWhy:
    @pytest.fixture(scope="class")
    def store(self, chaos_trace):
        return TimelineStore.from_file(chaos_trace)

    def _explanation_for(self, store, job_id, transition):
        (expl,) = [e for e in store.why(job_id)
                   if e.transition is transition]
        return expl

    def test_every_preemption_has_a_causal_chain(self, store):
        preempted = [
            (tl.job_id, tr) for tl in store.jobs.values()
            for tr in tl.transitions if tr.state == "preempted"
        ]
        assert preempted, "chaos run must preempt something"
        for job_id, tr in preempted:
            chain = self._explanation_for(store, job_id, tr).chain
            # the what plus at least one because
            assert len(chain) >= 2

    def test_reclaim_preemptions_link_plan_and_trigger(self, store):
        found = 0
        for tl in store.jobs.values():
            for tr in tl.transitions:
                if tr.state != "preempted" \
                        or tr.detail.get("cause") != "reclaim":
                    continue
                found += 1
                text = " ".join(
                    s.text for s in
                    self._explanation_for(store, tl.job_id, tr).chain
                )
                assert "plan #" in text
                assert "trigger:" in text
        assert found, "chaos seed must produce reclaim preemptions"

    def test_node_failure_preemptions_blame_the_fault(self, store):
        texts = []
        for tl in store.jobs.values():
            for tr in tl.transitions:
                if tr.state == "preempted" \
                        and tr.detail.get("cause") == "node_failure":
                    texts.append(" ".join(
                        s.text for s in
                        self._explanation_for(store, tl.job_id, tr).chain
                    ))
        assert texts
        assert all("failed" in t for t in texts)
        assert any("fault injection" in t or "MTBF" in t for t in texts)

    def test_dispatches_record_placement_and_loan_status(self, store):
        starts = [tr for tl in store.jobs.values()
                  for tr in tl.transitions if tr.state == "running"]
        assert starts
        assert all(tr.detail.get("servers") for tr in starts)
        assert any(tr.detail.get("gpu_types") for tr in starts)
        assert any(tr.detail.get("onloan") for tr in starts)

    def test_server_timelines_track_loans_and_health(self, store):
        states = {tr.state for tl in store.servers.values()
                  for tr in tl.transitions}
        assert "loaned" in states
        assert "down" in states and "up" in states

    def test_at_selects_the_state_in_effect(self, store):
        job_id = min(store.jobs)
        timeline = store.jobs[job_id]
        last = timeline.transitions[-1]
        story = store.why(job_id, at=last.ts + 1.0)
        assert len(story) == 1 and story[0].transition is last
        first = timeline.transitions[0]
        assert store.why(job_id, at=first.ts - 1.0) == []

    def test_unknown_job_raises(self, store):
        with pytest.raises(KeyError):
            store.why(999999)

    def test_render_why_narrates(self, store):
        job_id = next(
            tl.job_id for tl in store.jobs.values()
            if any(t.state == "preempted" for t in tl.transitions)
        )
        text = render_why(job_id, store.why(job_id))
        assert f"== why: job {job_id} ==" in text
        assert "preempted" in text


class TestRunReport:
    def test_byte_deterministic_across_same_seed_runs(self, tmp_path):
        reports = []
        for i in range(2):
            obs = Observability.enabled()
            tiny_obs_run(obs)
            path = tmp_path / f"r{i}.jsonl"
            obs.export_trace(str(path))
            reports.append(build_report(load_trace(str(path))))
        assert reports[0] == reports[1]

    def test_sections_and_percentiles(self, chaos_trace):
        text = build_report(load_trace(chaos_trace))
        for section in ("# Run report", "## Job funnel",
                        "## Completion and queueing", "## Utilization",
                        "## Loan / reclaim timeline", "## Preemptions",
                        "## Decision ledger", "## Phase breakdown",
                        "## Resilience"):
            assert section in text
        assert "| JCT |" in text and "| queue wait |" in text
        assert "p95" in text
        assert "reclaim" in text  # preemption causes include reclaims

    def test_excludes_wall_clock(self, chaos_trace):
        # phase table is call counts only; spans never appear
        text = build_report(load_trace(chaos_trace))
        assert "total_s" not in text
        assert "mean_ms" not in text
        assert "dur_ms" not in text

    def test_falls_back_to_event_derived_percentiles(self):
        trace = {"events": [
            {"ts": 0.0, "name": "job.submit", "job_id": 1},
            {"ts": 5.0, "name": "job.start", "job_id": 1,
             "args": {"queued_s": 5.0}},
            {"ts": 10.0, "name": "job.finish", "job_id": 1,
             "args": {"jct_s": 10.0}},
        ], "summary": {}}
        text = build_report(trace)
        assert "| JCT | 1 | 10.0 |" in text
        assert "| queue wait | 1 | 5.0 |" in text


class TestDiffTraces:
    def test_identical_traces(self):
        trace = {"events": [
            {"ts": 0.0, "name": "job.submit", "job_id": 1, "args": {}},
        ], "summary": {"metrics": {"counters": {"sim.submissions": 1}}}}
        diff = diff_traces(trace, trace)
        assert diff.identical
        assert "identical" in render_diff(diff)

    def test_divergence_located(self):
        a = {"events": [
            {"ts": 0.0, "name": "job.submit", "job_id": 1, "args": {}},
            {"ts": 1.0, "name": "job.start", "job_id": 1,
             "args": {"workers": 2}},
        ], "summary": {}}
        b = json.loads(json.dumps(a))
        b["events"][1]["args"]["workers"] = 3
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.divergence_index == 1
        out = render_diff(diff, "a", "b")
        assert "first divergence at event #1" in out

    def test_span_events_ignored(self):
        a = {"events": [{"ts": 0.0, "name": "obs.span", "cat": "span",
                         "args": {"dur_ms": 1.0}}], "summary": {}}
        b = {"events": [{"ts": 0.0, "name": "obs.span", "cat": "span",
                         "args": {"dur_ms": 9.0}}], "summary": {}}
        assert diff_traces(a, b).identical

    def test_length_mismatch_is_a_divergence(self):
        a = {"events": [
            {"ts": 0.0, "name": "job.submit", "job_id": 1, "args": {}},
        ], "summary": {}}
        b = {"events": [], "summary": {}}
        diff = diff_traces(a, b)
        assert diff.divergence_index == 0
        assert diff.divergence_b is None
        assert "<end of trace>" in render_diff(diff)

    def test_metric_deltas_reported(self):
        a = {"events": [], "summary": {
            "metrics": {"counters": {"sim.preemptions": 3}}}}
        b = {"events": [], "summary": {
            "metrics": {"counters": {"sim.preemptions": 5}}}}
        diff = diff_traces(a, b)
        assert diff.metric_deltas == {"sim.preemptions": (3, 5)}
        assert not diff.identical


class TestLogging:
    def test_silent_by_default_then_opt_in(self):
        import io
        import logging

        from repro.obs.log import (
            LOGGER, configure_logging, get_logger, reset_logging,
        )

        try:
            assert get_logger("simulator").name == "repro.simulator"
            # default: NullHandler only, nothing propagates to a stream
            assert all(
                isinstance(h, logging.NullHandler) for h in LOGGER.handlers
            )
            buf = io.StringIO()
            configure_logging("debug", stream=buf)
            get_logger("simulator").debug("job 1 finished")
            assert "job 1 finished" in buf.getvalue()
            # idempotent: reconfiguring replaces, not stacks
            configure_logging("debug", stream=io.StringIO())
            streams = [h for h in LOGGER.handlers
                       if isinstance(h, logging.StreamHandler)
                       and not isinstance(h, logging.NullHandler)]
            assert len(streams) == 1
            with pytest.raises(ValueError):
                configure_logging("chatty")
        finally:
            reset_logging()


class TestCLIObservability:
    def test_run_trace_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        rc = main([
            "run", "--scheme", "lyra", "--jobs", "40", "--days", "0.25",
            "--training-servers", "4", "--inference-servers", "6",
            "--trace", str(path),
        ])
        assert rc == 0
        assert "trace records" in capsys.readouterr().out
        assert path.exists()
        rc = main(["inspect", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== trace overview ==" in out
        assert "== phase timing (wall clock) ==" in out

    def test_run_trace_chrome_format(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        rc = main([
            "run", "--scheme", "lyra", "--jobs", "40", "--days", "0.25",
            "--training-servers", "4", "--inference-servers", "6",
            "--trace", str(path), "--trace-format", "chrome",
        ])
        assert rc == 0
        json.loads(path.read_text())  # a single valid JSON document
        assert main(["inspect", str(path)]) == 0
        assert "job.submit" in capsys.readouterr().out

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/nonexistent/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_inspect_bad_file(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("definitely not json\n")
        assert main(["inspect", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_run_report_why_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        rc = main([
            "run", "--scheme", "lyra", "--jobs", "40", "--days", "0.25",
            "--training-servers", "4", "--inference-servers", "6",
            "--trace", str(path),
        ])
        assert rc == 0
        capsys.readouterr()

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Decision ledger" in out

        md = tmp_path / "report.md"
        assert main(["report", str(path), "--out", str(md)]) == 0
        capsys.readouterr()
        assert "# Run report" in md.read_text()

        job_id = next(e["job_id"] for e in load_trace(str(path))["events"]
                      if e["name"] == "job.submit")
        assert main(["why", str(path), str(job_id)]) == 0
        out = capsys.readouterr().out
        assert f"== why: job {job_id} ==" in out
        assert "job submitted" in out

        assert main(["why", str(path), "999999"]) == 2
        assert "does not appear" in capsys.readouterr().err

    def test_why_missing_file(self, capsys):
        assert main(["why", "/nonexistent/trace.jsonl", "1"]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_inspect_diff_cli(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"ts": 0.0, "name": "job.submit", "job_id": 1}\n')
        b.write_text('{"ts": 0.0, "name": "job.submit", "job_id": 2}\n')
        assert main(["inspect", "--diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["inspect", "--diff", str(a), str(b)]) == 1
        assert "first divergence" in capsys.readouterr().out
        assert main(["inspect", "--diff", str(a)]) == 2
        assert "exactly two" in capsys.readouterr().err
        assert main(["inspect", str(a), str(b)]) == 2
        assert "one trace" in capsys.readouterr().err
