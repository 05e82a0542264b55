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

    TINY = ["--jobs", "30", "--days", "0.25", "--training-servers", "4",
            "--inference-servers", "6"]

    def test_crashed_run_recovers_to_the_uninterrupted_log(
        self, tmp_path, capsys
    ):
        whole, dead, recovered = (
            tmp_path / name for name in ("whole.txt", "dead.txt", "rec.txt")
        )
        assert main(["run", *self.TINY, "--activities-out", str(whole)]) == 0
        assert main([
            "run", *self.TINY, "--activities-out", str(dead),
            "--checkpoint-dir", str(tmp_path / "ck"),
            "--checkpoint-every", "3000", "--crash-at", "10000",
        ]) == 3
        assert not dead.exists()
        assert main([
            "recover", str(tmp_path / "ck"), "--activities-out", str(recovered),
        ]) == 0
        assert "recoveries 1" in capsys.readouterr().out
        assert recovered.read_bytes() == whole.read_bytes()

    def test_chaos_with_process_crashes_is_seed_stable(self, capsys):
        """Two identically seeded runs print the same kill log and the
        same snapshot, but for the wall-clock seconds each in-process
        recovery took (only their count is seeded)."""
        runs = []
        for _ in range(2):
            assert main([
                "chaos", *self.TINY, "--plan", "process-crash", "--json",
            ]) == 0
            # the kill log goes to stderr: stdout is one JSON document
            captured = capsys.readouterr()
            kills, doc = captured.err, json.loads(captured.out)
            timing = doc["recovery"]["time_to_recover_s"]
            doc["recovery"]["time_to_recover_s"] = timing["count"]
            runs.append((kills, doc))
        assert runs[0] == runs[1]
        kills, doc = runs[0]
        assert kills.count("[chaos] simulated crash") > 0
        assert doc["recovery"]["recoveries"] == doc["recovery"][
            "time_to_recover_s"
        ] > 0

    def test_run_recovers_a_plans_process_kills(self, tmp_path, capsys):
        """`run --faults` executes a plan's process kills as `chaos` does:
        each one is recovered in-process, and the finished Activity log
        is the one the same plan gives without its kills."""
        import dataclasses

        from repro.faults.plan import resolve_plan

        killed, clean = tmp_path / "killed.txt", tmp_path / "clean.txt"
        assert main([
            "run", *self.TINY, "--faults", "process-crash", "--json",
            "--activities-out", str(killed),
        ]) == 0
        captured = capsys.readouterr()
        doc, _ = json.JSONDecoder().raw_decode(captured.out)
        fired = captured.err.count("[chaos] simulated crash")
        assert doc["resilience"]["recovery"]["recoveries"] == fired > 0

        plan = dataclasses.replace(resolve_plan("process-crash"), crashes=())
        plan_file = tmp_path / "no-kills.json"
        plan_file.write_text(json.dumps(plan.to_dict()))
        assert main([
            "run", *self.TINY, "--faults", str(plan_file),
            "--activities-out", str(clean),
        ]) == 0
        assert killed.read_bytes() == clean.read_bytes()

    def test_crash_at_refuses_a_plan_that_kills(self, tmp_path, capsys):
        assert main([
            "run", *self.TINY, "--faults", "process-crash",
            "--checkpoint-dir", str(tmp_path / "ck"), "--crash-at", "100",
        ]) == 2
        assert "--crash-at cannot be combined" in capsys.readouterr().err

    #: flags whose meaning differs by subcommand, each with its reason
    #: (``*`` = on every subcommand that takes it)
    PER_COMMAND_FLAGS = {
        ("*", "--out"): "chaos, trace and report each write a different "
                        "artifact",
        ("*", "--at"): "whatif poses its question at a default 6h in; why "
                       "narrates the whole lifecycle unless asked",
        ("check", "--seed"): "seeds the oracle's instance streams, not a "
                             "generated trace",
    }

    def test_a_shared_flag_means_one_thing(self):
        """Every flag that several subcommands take has one default,
        type, choices list and help text."""
        import argparse

        from repro.cli import build_parser

        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        seen: dict = {}
        for name, parser in sub.choices.items():
            for action in parser._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help") \
                            or ("*", flag) in self.PER_COMMAND_FLAGS \
                            or (name, flag) in self.PER_COMMAND_FLAGS:
                        continue
                    seen.setdefault(flag, {})[name] = repr((
                        action.default, action.type, action.choices,
                        action.help,
                    ))
        shared = {flag: by for flag, by in seen.items() if len(by) > 1}
        assert "--json" in shared and "--trace" in shared
        for flag, by_command in shared.items():
            assert len(set(by_command.values())) == 1, (flag, by_command)

    def test_check_without_replay_passes(self, capsys):
        assert main(["check", "--n", "2", "--skip-replay"]) == 0

    def test_run_explain_prints_the_plan_summary(self, capsys):
        assert main(["run", *self.TINY, "--explain"]) == 0
        out = capsys.readouterr().out
        assert "  plans    applied " in out and "  actions  " in out

    def test_run_on_a_market_reports_its_book(self, capsys):
        assert main(["run", *self.TINY, "--clusters", "2x2", "--json"]) == 0
        market = json.loads(capsys.readouterr().out)["market"]
        assert market["inference_clusters"] == ["infer-r0", "infer-r1"]
        assert market["training_regions"] == ["train-r0", "train-r1"]

    def test_report_command(self, capsys):
        rc = main([
            "report", "--jobs", "120", "--days", "0.5",
            "--training-servers", "8", "--inference-servers", "10",
            "--seed", "1",
        ])
        out = capsys.readouterr().out
        assert "shape verdict" in out
        assert rc in (0, 1)
