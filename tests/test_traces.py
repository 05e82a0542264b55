"""Tests for the synthetic traces: calibration to the paper's statistics."""

import numpy as np
import pytest

from repro.traces.bootstrap import bootstrap_trace, bootstrap_traces
from repro.traces.inference import (
    SAMPLE_INTERVAL,
    InferenceTrace,
    generate_inference_trace,
)
from repro.traces.models import (
    ALL_FAMILIES,
    ELASTIC_FAMILIES,
    GENERIC,
    RESNET,
    fig3_series,
)
from repro.traces.workload import DAY, TraceConfig, generate_workload


class TestWorkloadCalibration:
    @pytest.fixture(scope="class")
    def workload(self):
        return generate_workload(
            TraceConfig(num_jobs=3000, days=5.0, cluster_gpus=512, seed=11)
        )

    def test_offered_load_matches_target(self, workload):
        assert workload.offered_load() == pytest.approx(0.95, abs=0.05)

    def test_fungible_fraction(self, workload):
        # §2.1: 21 % of jobs do not request a specific GPU type.
        assert workload.fungible_fraction() == pytest.approx(0.21, abs=0.02)

    def test_fungible_load_share_matches_job_share(self, workload):
        # §7.1: fungible jobs are also ~21 % of the training *load*.
        fungible_work = sum(
            s.total_work for s in workload.specs if s.fungible
        )
        assert fungible_work / workload.total_work() == pytest.approx(
            0.21, abs=0.08
        )

    def test_elastic_job_fraction(self, workload):
        elastic = sum(1 for s in workload.specs if s.elastic)
        assert elastic / len(workload.specs) == pytest.approx(0.05, abs=0.01)

    def test_elastic_resource_share(self, workload):
        # §2.2: elastic families account for ~36 % of cluster resources.
        assert workload.elastic_share() == pytest.approx(0.36, abs=0.06)

    def test_elastic_jobs_use_known_families(self, workload):
        families = {
            s.model_family for s in workload.specs if s.elastic
        }
        assert families <= {f.name for f in ELASTIC_FAMILIES}

    def test_elastic_scaling_range_is_double_base(self, workload):
        for s in workload.specs:
            if s.elastic:
                assert s.max_workers == 2 * s.min_workers

    def test_durations_minutes_to_days(self, workload):
        durations = [s.duration for s in workload.specs]
        assert min(durations) >= 60.0
        assert max(durations) > 3600.0

    def test_arrivals_sorted_and_in_span(self, workload):
        times = [s.submit_time for s in workload.specs]
        assert times == sorted(times)
        assert 0 <= times[0] and times[-1] < workload.span

    def test_deterministic_for_seed(self):
        config = TraceConfig(num_jobs=100, days=1.0, cluster_gpus=64, seed=3)
        a = generate_workload(config)
        b = generate_workload(config)
        assert [s.job_id for s in a.specs] == [s.job_id for s in b.specs]
        assert [s.duration for s in a.specs] == [s.duration for s in b.specs]

    def test_different_seeds_differ(self):
        a = generate_workload(TraceConfig(num_jobs=100, seed=1))
        b = generate_workload(TraceConfig(num_jobs=100, seed=2))
        assert [s.duration for s in a.specs] != [s.duration for s in b.specs]

    def test_job_ids_unique_and_dense(self, workload):
        ids = [s.job_id for s in workload.specs]
        assert ids == list(range(len(ids)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TraceConfig(num_jobs=0)
        with pytest.raises(ValueError):
            TraceConfig(days=-1)
        with pytest.raises(ValueError):
            TraceConfig(fungible_fraction=1.5)

    def test_checkpointing_fraction_applied(self):
        workload = generate_workload(
            TraceConfig(num_jobs=500, checkpointing_fraction=0.4, seed=5)
        )
        frac = sum(1 for s in workload.specs if s.checkpointing) / 500
        assert frac == pytest.approx(0.4, abs=0.02)

    def test_heterogeneous_fraction_applied(self):
        workload = generate_workload(
            TraceConfig(num_jobs=500, heterogeneous_fraction=0.1, seed=5)
        )
        frac = sum(1 for s in workload.specs if s.heterogeneous) / 500
        assert frac == pytest.approx(0.1, abs=0.02)


class TestInferenceTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return generate_inference_trace(days=7.0, num_servers=500, seed=0)

    def test_fig1_statistics(self, trace):
        """Fig. 1: utilization 42-95 %, mean ~65 %, peak/trough ~2.2."""
        util = trace.utilization
        assert float(np.mean(util)) == pytest.approx(0.65, abs=0.06)
        assert float(np.min(util)) == pytest.approx(0.42, abs=0.12)
        assert float(np.max(util)) == pytest.approx(0.95, abs=0.08)
        assert trace.peak_to_trough() == pytest.approx(2.2, abs=0.6)

    def test_diurnal_period(self, trace):
        """Autocorrelation at a 1-day lag must be strong."""
        util = trace.utilization - np.mean(trace.utilization)
        lag = int(DAY / SAMPLE_INTERVAL)
        ac = np.corrcoef(util[:-lag], util[lag:])[0, 1]
        assert ac > 0.7

    def test_sample_count(self, trace):
        assert len(trace.utilization) == int(7 * DAY / SAMPLE_INTERVAL)

    def test_utilization_at_clamps(self, trace):
        assert trace.utilization_at(-100) == trace.utilization[0]
        assert trace.utilization_at(1e12) == trace.utilization[-1]

    def test_loanable_plus_busy_plus_headroom_covers_cluster(self, trace):
        for t in (0.0, 3600.0, DAY / 2):
            busy = trace.busy_servers_at(t)
            loanable = trace.loanable_at(t)
            assert busy + loanable <= trace.num_servers

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceTrace(utilization=np.array([1.5]), num_servers=10)
        with pytest.raises(ValueError):
            InferenceTrace(utilization=np.array([]), num_servers=10)
        with pytest.raises(ValueError):
            InferenceTrace(utilization=np.array([0.5]), num_servers=0)

    def test_bad_headroom_rejected(self, trace):
        with pytest.raises(ValueError):
            trace.loanable_at(0.0, headroom=1.0)

    def test_deterministic(self):
        a = generate_inference_trace(days=1.0, seed=4)
        b = generate_inference_trace(days=1.0, seed=4)
        assert np.array_equal(a.utilization, b.utilization)


class TestModelFamilies:
    def test_elastic_families_are_the_paper_four(self):
        assert {f.name for f in ELASTIC_FAMILIES} == {
            "resnet", "vgg", "bert", "gnmt",
        }

    def test_generic_not_elastic_capable(self):
        assert not GENERIC.elastic_capable

    def test_throughput_monotone(self):
        values = [RESNET.throughput(w) for w in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_throughput_near_linear(self):
        # Fig. 3: near-linear scaling for the chosen families.
        assert RESNET.throughput(8) >= 0.85 * 8 * RESNET.throughput(1)

    def test_zero_workers(self):
        assert RESNET.throughput(0) == 0.0

    def test_negative_workers_raise(self):
        with pytest.raises(ValueError):
            RESNET.throughput(-1)

    def test_fig3_series_doubles_every_five_epochs(self):
        series = fig3_series(RESNET, epochs=30, double_every=5)
        workers = [w for _, w, _ in series]
        assert workers[0] == 1
        assert workers[5] == 2
        assert workers[25] == 32
        throughputs = [t for _, _, t in series]
        assert throughputs[-1] > throughputs[0]

    def test_registry_complete(self):
        assert set(ALL_FAMILIES) == {"resnet", "vgg", "bert", "gnmt", "generic"}


class TestBootstrap:
    @pytest.fixture(scope="class")
    def base(self):
        return generate_workload(
            TraceConfig(num_jobs=600, days=5.0, cluster_gpus=256, seed=9)
        )

    def test_resampled_span(self, base):
        sample = bootstrap_trace(base, days=3, seed=1)
        assert sample.config.days == 3.0
        assert all(s.submit_time < 3 * DAY for s in sample.specs)

    def test_ids_renumbered(self, base):
        sample = bootstrap_trace(base, days=3, seed=1)
        assert [s.job_id for s in sample.specs] == list(range(len(sample.specs)))

    def test_arrivals_sorted(self, base):
        sample = bootstrap_trace(base, days=4, seed=2)
        times = [s.submit_time for s in sample.specs]
        assert times == sorted(times)

    def test_deterministic(self, base):
        a = bootstrap_trace(base, days=3, seed=5)
        b = bootstrap_trace(base, days=3, seed=5)
        assert [s.duration for s in a.specs] == [s.duration for s in b.specs]

    def test_ensemble_differs(self, base):
        traces = bootstrap_traces(base, count=3, days=3, seed=0)
        sizes = {len(t.specs) for t in traces}
        durations = [tuple(s.duration for s in t.specs[:20]) for t in traces]
        assert len(set(durations)) > 1 or len(sizes) > 1

    def test_invalid_days(self, base):
        with pytest.raises(ValueError):
            bootstrap_trace(base, days=0)

    def test_preserves_job_shape_distribution(self, base):
        sample = bootstrap_trace(base, days=5, seed=3)
        base_elastic = sum(1 for s in base.specs if s.elastic) / len(base.specs)
        if sample.specs:
            sample_elastic = sum(1 for s in sample.specs if s.elastic) / len(
                sample.specs
            )
            assert sample_elastic == pytest.approx(base_elastic, abs=0.06)
