"""Tests for the resource orchestrator: loaning and reclaiming."""

import numpy as np
import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec
from repro.core.orchestrator import ResourceOrchestrator
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.traces.inference import HEADROOM, InferenceTrace


def flat_trace(levels, num_servers=4):
    """A step-function inference trace: one level per 5-minute sample."""
    return InferenceTrace(
        utilization=np.array(levels, dtype=float), num_servers=num_servers
    )


def sim_with(trace, specs=(), orchestrator=None, training=2, inference=4,
             **cfg):
    pair = ClusterPair(
        make_training_cluster(training), make_inference_cluster(inference)
    )
    return Simulation(
        list(specs),
        pair,
        LyraScheduler(),
        inference_trace=trace,
        orchestrator=orchestrator or ResourceOrchestrator(),
        config=SimulationConfig(**cfg),
    )


class TestTargets:
    def test_loanable_respects_headroom(self):
        trace = flat_trace([0.5] * 10, num_servers=10)
        # busy = 5, headroom = ceil(0.02*10) = 1 -> 4 loanable
        assert trace.loanable_at(0.0, headroom=0.02) == 4

    def test_loanable_zero_when_busy(self):
        trace = flat_trace([1.0] * 10)
        assert trace.loanable_at(0.0) == 0

    def test_target_loanable_uses_trace(self):
        trace = flat_trace([0.0] * 10, num_servers=4)
        sim = sim_with(trace)
        orch = ResourceOrchestrator()
        # 4 - ceil(0.02*4)=1; the pair's one lender is its inference side
        assert orch.lender_offer(sim, "inference", HEADROOM) == 3
        # degraded posture: a safety headroom instead, ceil(0.3*4)=2
        assert orch.lender_offer(sim, "inference", 0.3) == 2
        # per-lender traces, once given, are the only source
        named = ResourceOrchestrator(
            lender_traces={"elsewhere": flat_trace([0.5] * 10)}
        )
        assert named.lender_offer(sim, "elsewhere", HEADROOM) == 1
        assert named.lender_offer(sim, "inference", HEADROOM) == 0

    def test_no_trace_means_no_loaning(self):
        sim = sim_with(None)
        orch = ResourceOrchestrator()
        assert orch.lender_offer(sim, "inference", HEADROOM) == 0
        assert orch.plan_tick(sim).actions == ()


class TestLoanReclaimFlow:
    def test_loan_then_reclaim_cycle(self):
        # 1 hour idle, then fully busy: servers must come back.  A
        # filler job pins the training cluster so the fungible job
        # actually needs the loan.
        levels = [0.0] * 12 + [1.0] * 12
        trace = flat_trace(levels, num_servers=4)
        specs = [
            JobSpec(job_id=0, submit_time=0.0, duration=20000.0,
                    max_workers=16),
            JobSpec(job_id=1, submit_time=0.0, duration=20000.0,
                    max_workers=2, fungible=True),
        ]
        orch = ResourceOrchestrator()
        sim = sim_with(trace, specs, orch)
        sim.run()
        assert sim.metrics.loan_ops, "no loans happened"
        assert sim.metrics.reclaim_ops, "no reclaims happened"
        assert sim.pair.loaned_count == 0
        assert len(sim.pair.inference) == 4

    def test_smoothing_ignores_single_sample_spike(self):
        # one 5-minute spike in an otherwise idle trace: the median-of-3
        # filter must not trigger a reclaim.
        levels = [0.0] * 6 + [1.0] + [0.0] * 6
        trace = flat_trace(levels, num_servers=4)
        orch = ResourceOrchestrator()
        spec = JobSpec(job_id=0, submit_time=0.0, duration=4000.0,
                       max_workers=2, fungible=True)
        sim = sim_with(trace, [spec], orch)
        sim.run()
        assert not sim.metrics.reclaim_ops

    def _loan_hungry_specs(self):
        """A filler job pins the training cluster; a fungible job must
        borrow inference hardware."""
        return [
            JobSpec(job_id=0, submit_time=0.0, duration=30000.0,
                    max_workers=16),
            JobSpec(job_id=1, submit_time=0.0, duration=30000.0,
                    max_workers=2, fungible=True),
        ]

    def test_sustained_rise_triggers_reclaim(self):
        levels = [0.0] * 6 + [1.0] * 7
        trace = flat_trace(levels, num_servers=4)
        sim = sim_with(trace, self._loan_hungry_specs(),
                       ResourceOrchestrator())
        sim.run()
        assert sim.metrics.reclaim_ops

    def test_demand_aware_loaning_skips_unneeded_servers(self):
        # Everything fits on training hardware: nothing should be loaned
        # even though the inference cluster is fully idle.
        levels = [0.0] * 12
        trace = flat_trace(levels, num_servers=4)
        spec = JobSpec(job_id=0, submit_time=0.0, duration=2000.0,
                       max_workers=2, fungible=True)
        sim = sim_with(trace, [spec], ResourceOrchestrator())
        sim.run()
        assert not sim.metrics.loan_ops

    def test_reclaim_preempts_fungible_job_on_loaned_server(self):
        levels = [0.0] * 6 + [1.0] * 10
        trace = flat_trace(levels, num_servers=4)
        # job too large for the 16-GPU dedicated cluster alone? No: make
        # it fit only with loans so it must land on loaned hardware.
        spec = JobSpec(job_id=0, submit_time=0.0, duration=50000.0,
                       max_workers=8, min_workers=4, gpus_per_worker=2,
                       elastic=True, fungible=True)
        sim = sim_with(trace, [spec], ResourceOrchestrator(), training=1)
        sim.run()
        job = sim.jobs[0]
        # the job used loaned capacity at some point and survived the
        # reclaim wave (scale-in or preemption, both acceptable).
        assert job.finish_time is not None

    def test_flex_satisfied_metric_recorded(self):
        levels = [0.0] * 8 + [1.0] * 10
        trace = flat_trace(levels, num_servers=4)
        spec = JobSpec(job_id=0, submit_time=0.0, duration=30000.0,
                       max_workers=16, min_workers=4, elastic=True,
                       fungible=True)
        sim = sim_with(trace, [spec], ResourceOrchestrator(), training=1)
        sim.run()
        if sim.metrics.reclaim_ops:
            assert sim.metrics.flex_satisfied
            assert all(0 <= f <= 1 for f in sim.metrics.flex_satisfied)


class TestReclaimerSelection:
    def test_unknown_reclaimer_rejected(self):
        with pytest.raises(ValueError):
            ResourceOrchestrator(reclaimer="bogus")

    @pytest.mark.parametrize("name", ["lyra", "random", "scf"])
    def test_all_reclaimers_complete_cycle(self, name):
        levels = [0.0] * 8 + [0.9] * 8
        trace = flat_trace(levels, num_servers=4)
        spec = JobSpec(job_id=0, submit_time=0.0, duration=10000.0,
                       max_workers=2, fungible=True)
        sim = sim_with(trace, [spec], ResourceOrchestrator(reclaimer=name))
        sim.run()
        assert sim.pair.loaned_count == 0


class TestReclaimPricing:
    """Table 1's server-fraction cost is priced once per reclaim plan,
    at plan time, whether or not a tracer is on."""

    RUN = [
        "run", "--scheme", "lyra", "--jobs", "300", "--days", "1",
        "--training-servers", "6", "--inference-servers", "10",
        "--load", "3", "--explain", "--json",
    ]

    @staticmethod
    def _plans(capsys, argv):
        import json

        from repro.cli import main

        assert main(argv) == 0
        out = capsys.readouterr().out
        return json.loads(out[: out.rindex("}") + 1])["plans"]

    def test_explain_prices_untraced_reclaims_as_traced_ones(
        self, capsys, tmp_path
    ):
        # --explain prints the run's decision ledger: with --trace as
        # well, its plans are the trace file's plan.provenance records
        import json

        path = tmp_path / "t.jsonl"
        untraced = self._plans(capsys, self.RUN)
        traced = self._plans(capsys, self.RUN + ["--trace", str(path)])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        ledger = [r["args"] for r in records if r["name"] == "plan.provenance"]
        assert traced == ledger
        assert untraced == traced
        assert [p["plan_id"] for p in ledger] == sorted(
            {p["plan_id"] for p in ledger}
        )
        assert all(isinstance(p["triggers"], list) for p in ledger)
        assert sum(p["pricing"]["preemption_cost"] for p in untraced) > 0

    def test_every_reported_cost_is_a_float_equal_to_server_preemption_cost(
        self, monkeypatch
    ):
        from repro.core.reclaim import server_preemption_cost
        from tests.test_equivalence import build_scenario

        checked = []
        real = ResourceOrchestrator._plan_reclaim_actions

        def spy(self, sim, demand, **kwargs):
            actions = real(self, sim, demand, **kwargs)
            for action in actions:
                if action.kind != "reclaim_servers" or action.route_around:
                    continue
                assert [sid for sid, _ in action.costs] == list(
                    action.server_ids
                )
                for sid, cost in action.costs:
                    expected = server_preemption_cost(
                        sim.pair.training.get(sid), sim.jobs
                    )
                    assert type(cost) is float
                    assert cost == round(expected, 4)
                    checked.append(cost)
            return actions

        monkeypatch.setattr(ResourceOrchestrator, "_plan_reclaim_actions", spy)
        build_scenario("lyra_loaning").run()
        assert any(cost > 0 for cost in checked)
