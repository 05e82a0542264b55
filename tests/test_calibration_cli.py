"""Tests for the CLI, the paper-data module and the
information-agnostic scheduler."""

import json

import pytest

from repro import paper
from repro.cli import main
from repro.scenarios import default_setup, run_scheme
from repro.schedulers.agnostic import (
    LyraAgnosticScheduler,
    attained_service,
    las_order_key,
    throughput_gain_values,
)

from tests.conftest import make_job


class TestAgnosticScheduler:
    def test_attained_service_counts_work(self):
        job = make_job(duration=100, max_workers=2)
        job.record_placement("s", 2, flexible=False)
        job.mark_started(0.0)
        job.advance(25.0)
        assert attained_service(job) == pytest.approx(50.0)

    def test_order_prefers_less_served_then_smaller(self):
        young = make_job(job_id=1, max_workers=4)
        old = make_job(job_id=2, max_workers=4)
        old.remaining_work = old.spec.total_work / 2
        small = make_job(job_id=3, max_workers=1)
        order = sorted([old, young, small], key=las_order_key)
        assert [j.job_id for j in order] == [3, 1, 2]

    def test_value_needs_no_runtime(self):
        job = make_job(duration=123456.0, max_workers=8, min_workers=2,
                       elastic=True)
        (value,) = throughput_gain_values(job, [2])
        # pure throughput: 2 extra linear workers x 1 GPU each
        assert value == pytest.approx(2.0)

    def test_value_discounted_by_age(self):
        job = make_job(duration=100.0, max_workers=8, min_workers=2,
                       elastic=True)
        (fresh,) = throughput_gain_values(job, [2])
        job.remaining_work = 0.0
        assert throughput_gain_values(job, [2]) == pytest.approx([fresh / 2])

    def test_end_to_end_between_baseline_and_lyra(self):
        setup = default_setup(num_jobs=150, days=0.75, training_servers=8,
                              inference_servers=10, seed=9, target_load=1.0)
        baseline = run_scheme(setup, "baseline")
        oracle = run_scheme(setup, "lyra")
        agnostic = run_scheme(setup, "lyra_agnostic")
        assert agnostic.completion_ratio() == 1.0
        assert (
            agnostic.queuing_summary().mean
            <= baseline.queuing_summary().mean
        )
        assert (
            oracle.jct_summary().mean
            <= agnostic.jct_summary().mean * 1.10
        )

    def test_scheduler_name(self):
        assert LyraAgnosticScheduler().name == "lyra_agnostic"


class TestPaperData:
    def test_table5_has_all_schemes(self):
        assert set(paper.TABLE5) >= {
            "baseline", "basic", "ideal", "lyra_loaning", "pollux",
        }

    def test_headline_reductions_consistent_with_table5(self):
        base = paper.TABLE5["baseline"]
        basic = paper.TABLE5["basic"]
        assert base.queuing_mean / basic.queuing_mean == pytest.approx(
            paper.HEADLINES["queuing_reduction_basic"], abs=0.01
        )
        assert base.jct_mean / basic.jct_mean == pytest.approx(
            paper.HEADLINES["jct_reduction_basic"], abs=0.01
        )

    def test_usage_improvement(self):
        base = paper.TABLE5["baseline"]
        basic = paper.TABLE5["basic"]
        assert basic.usage_overall / base.usage_overall - 1 == pytest.approx(
            0.25, abs=0.01
        )


class TestCLI:
    def test_run_json(self, capsys):
        rc = main([
            "run", "--scheme", "baseline", "--jobs", "60", "--days", "0.5",
            "--training-servers", "6", "--inference-servers", "8",
            "--json",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["completed"] >= 0.9
        assert "queuing" in data and "jct" in data

    def test_compare_prints_reductions(self, capsys):
        rc = main([
            "compare", "--schemes", "baseline", "lyra",
            "--jobs", "60", "--days", "0.5",
            "--training-servers", "6", "--inference-servers", "8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lyra vs baseline" in out
        assert "x queuing" in out

    def test_trace_export(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        rc = main([
            "trace", "--jobs", "40", "--days", "0.5",
            "--training-servers", "4", "--out", str(out_file),
        ])
        assert rc == 0
        data = json.loads(out_file.read_text())
        assert len(data["jobs"]) == 40
        assert data["config"]["cluster_gpus"] == 32
        # the stats are printed, not stored: the file is a replayable
        # workload and nothing else
        assert "offered_load: " in capsys.readouterr().out
        assert main(["trace", "--jobs", "4", "--days", "0.1",
                     "--out", str(tmp_path / "trace.parquet")]) == 2

    def test_paper_command(self, capsys):
        rc = main(["paper", "headlines"])
        assert rc == 0
        assert "queuing_reduction_basic" in capsys.readouterr().out

    def test_paper_unknown_table(self, capsys):
        assert main(["paper", "table99"]) == 2

    def test_unknown_scheme_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheme", "magic"])

    def test_run_replays_saved_trace(self, tmp_path, capsys):
        from repro.traces.io import save_workload
        from repro.traces.workload import TraceConfig, generate_workload

        workload = generate_workload(
            TraceConfig(num_jobs=30, days=0.25, cluster_gpus=48, seed=2)
        )
        path = tmp_path / "t.json"
        save_workload(workload, path)
        rc = main([
            "run", "--scheme", "baseline", "--replay", str(path),
            "--training-servers", "6", "--inference-servers", "6",
            "--json",
        ])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["completed"] == 1.0

    def test_report_command(self, capsys):
        rc = main([
            "report", "--jobs", "120", "--days", "0.5",
            "--training-servers", "8", "--inference-servers", "10",
            "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert "shape verdict" in out
        assert rc in (0, 1)
