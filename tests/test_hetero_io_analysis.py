"""Tests for trace I/O and the analysis report."""

import json

import pytest

from repro.analysis import ShapeCheck, compare_to_paper, render_report
from repro.cli import main
from repro.scenarios import default_setup, run_scheme
from repro.traces.io import load_workload, save_workload
from repro.traces.workload import TraceConfig, generate_workload


class TestTraceIO:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            TraceConfig(num_jobs=50, days=0.5, cluster_gpus=64, seed=17)
        )

    @pytest.mark.parametrize("ext", ["json", "csv"])
    def test_round_trip(self, workload, tmp_path, ext, capsys):
        path = tmp_path / f"trace.{ext}"
        save_workload(workload, path)
        loaded = load_workload(path, cluster_gpus=64)
        assert len(loaded.specs) == len(workload.specs)
        for a, b in zip(workload.specs, loaded.specs):
            assert a.job_id == b.job_id
            assert a.duration == pytest.approx(b.duration)
            assert a.elastic == b.elastic
            assert a.min_workers == b.min_workers
        # the CLI leg: `repro trace --out` writes through the same
        # serializer, and `run --replay` reads the file back
        cli_path = tmp_path / f"cli.{ext}"
        assert main([
            "trace", "--jobs", "50", "--days", "0.5", "--seed", "17",
            "--training-servers", "8", "--out", str(cli_path),
        ]) == 0
        assert len(load_workload(cli_path, cluster_gpus=64).specs) == 50
        capsys.readouterr()
        assert main([
            "run", "--scheme", "baseline", "--replay", str(cli_path),
            "--training-servers", "8", "--inference-servers", "8", "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 1.0

    def test_json_preserves_config(self, workload, tmp_path):
        path = tmp_path / "trace.json"
        save_workload(workload, path)
        loaded = load_workload(path)
        assert loaded.config.cluster_gpus == workload.config.cluster_gpus
        assert loaded.config.days == workload.config.days

    def test_unknown_extension_rejected(self, workload, tmp_path):
        with pytest.raises(ValueError, match="format"):
            save_workload(workload, tmp_path / "trace.parquet")
        with pytest.raises(ValueError, match="format"):
            load_workload(tmp_path / "trace.parquet")

    def test_loaded_trace_is_runnable(self, workload, tmp_path):
        path = tmp_path / "trace.json"
        save_workload(workload, path)
        loaded = load_workload(path)
        setup = default_setup(num_jobs=10, days=0.5, training_servers=8,
                              inference_servers=8, seed=17)
        metrics = run_scheme(setup, "baseline", specs=loaded.specs)
        assert metrics.completion_ratio() == 1.0

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"job_id": 1}]')
        with pytest.raises(ValueError, match="missing field"):
            load_workload(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="no jobs"):
            load_workload(path)


class TestAnalysisReport:
    @pytest.fixture(scope="class")
    def results(self):
        setup = default_setup(num_jobs=200, days=1.0, training_servers=10,
                              inference_servers=12, seed=23, target_load=1.0)
        return {
            "baseline": run_scheme(setup, "baseline"),
            "lyra": run_scheme(setup, "lyra"),
            "lyra_scaling": run_scheme(setup, "lyra_scaling"),
        }

    def test_requires_baseline(self, results):
        with pytest.raises(ValueError, match="baseline"):
            compare_to_paper({"lyra": results["lyra"]})

    def test_checks_present_schemes_only(self, results):
        checks = compare_to_paper(results)
        names = {c.name for c in checks}
        assert any("Basic" in n for n in names)
        assert not any("loaning-only" in n for n in names)

    def test_headline_shapes_hold(self, results):
        checks = compare_to_paper(results)
        basic = [c for c in checks if "Lyra queuing reduction" in c.name][0]
        assert basic.holds
        jct = [c for c in checks if "Lyra JCT reduction" in c.name][0]
        assert jct.holds

    def test_render(self, results):
        report = render_report(compare_to_paper(results))
        assert "shape verdict" in report
        assert "paper" in report

    def test_shapecheck_str(self):
        check = ShapeCheck("x", 1.5, 1.2, True, True)
        assert "[+]" in str(check)
        bad = ShapeCheck("x", 1.5, 0.8, False, False)
        assert "[!]" in str(bad)
