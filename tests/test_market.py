"""The one cluster topology and the one clearing rule, over N×M.

Covers:

* three loan-path regressions — each test fails on the pre-fix code:
  - ``return_server`` routing by ``home_cluster`` (it used to dump every
    return into ``self.inference``, wherever the server came from);
  - ``loan_ids`` all-or-nothing validation (it used to raise mid-list,
    leaving earlier servers already moved);
  - one shared loan-eligibility predicate (``peek_loanable`` used to
    re-implement the filter inline, so an eligibility change could make
    plans diverge from commits);
* the topology: federation, contracts, config parsing, regional outages;
* the clearing rule on N > 1 lenders: a flash crowd and the §6 predictor
  reach every lender (both were dropped by the market's own copy of the
  rule), the degraded posture is entered once per tick;
* the pair is the 1×1 case: the two constructors build one class, and
  the orchestrated golden scenarios reproduce the committed logs with
  the lender and the region renamed — nothing depends on the names
  ``"inference"`` / ``"training"``;
* Hypothesis properties: any interleaving of loan / loan_ids /
  return_server, fully unwound, restores every whitelist exactly; every
  committed orchestrator plan over a random ≤ 3×3 market conserves
  servers and stays within each lender's deficit and spare supply.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster.cluster import (
    ClusterPair,
    ClusterSet,
    ContractTerms,
    FederatedCluster,
    make_inference_cluster,
    make_training_cluster,
)
from repro.market import (
    build_market_setup,
    market_config_from_file,
    market_config_from_spec,
    resolve_market,
)
from repro.cluster.job import JobSpec
from repro.core.orchestrator import PredictorUnavailable, ResourceOrchestrator
from repro.faults.plan import FaultPlan, FlashCrowd
from repro.obs import Observability
from repro.obs.provenance import PROVENANCE_EVENT
from repro.rm.manager import ResourceManager
from repro.scenarios import build_sim, default_setup
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation
from repro.traces.inference import SAMPLE_INTERVAL, InferenceTrace

from tests.conftest import loan
from tests.test_equivalence import digest, run_scenario, GOLDEN_PATH, VIEWS


def two_lender_set(**kwargs) -> ClusterSet:
    return ClusterSet(
        training_regions=[
            make_training_cluster(2, name="train-r0", id_prefix="train-r0")
        ],
        inference_clusters=[
            make_inference_cluster(3, name="infer-r0", id_prefix="infer-r0"),
            make_inference_cluster(3, name="infer-r1", id_prefix="infer-r1"),
        ],
        **kwargs,
    )


# ----------------------------------------------------------------------
# bugfix regressions
# ----------------------------------------------------------------------
class TestReturnRouting:
    def test_return_server_routes_by_home_cluster(self):
        """A mixed-origin loan pool must unwind each server to the
        member whitelist it came from, not to "the" inference cluster."""
        pair = two_lender_set()
        a, b = pair.inference_members
        pair.loan_ids(["infer-r0-0000", "infer-r1-0000", "infer-r1-0001"])
        assert len(a) == 2 and len(b) == 1
        for sid in ("infer-r1-0000", "infer-r0-0000", "infer-r1-0001"):
            server = pair.return_server(sid)
            assert not server.on_loan
        assert sorted(s.server_id for s in a.servers) == [
            "infer-r0-0000", "infer-r0-0001", "infer-r0-0002"
        ]
        assert sorted(s.server_id for s in b.servers) == [
            "infer-r1-0000", "infer-r1-0001", "infer-r1-0002"
        ]
        assert pair.training.on_loan_servers == []

    def test_plain_pair_return_also_routes_by_home(self):
        """The base-pair path goes through the same routing."""
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
        loan(pair, 1)
        sid = pair.training.on_loan_servers[0].server_id
        server = pair.return_server(sid)
        assert server.server_id in pair.inference
        assert not server.on_loan


class TestLoanIdsAtomicity:
    def test_loan_ids_all_or_nothing_on_busy_id(self):
        """A busy id at position k must leave both whitelists untouched —
        the pre-fix code had already moved positions 0..k-1."""
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(4))
        ids = [s.server_id for s in pair.inference.servers]
        busy = pair.inference.get(ids[2])
        busy.allocate(job_id=1, gpus=1)
        before_inference = [s.server_id for s in pair.inference.servers]
        before_training = [s.server_id for s in pair.training.servers]
        with pytest.raises(ValueError, match="busy"):
            pair.loan_ids([ids[0], ids[1], ids[2], ids[3]])
        assert [s.server_id for s in pair.inference.servers] == before_inference
        assert [s.server_id for s in pair.training.servers] == before_training
        assert all(not s.on_loan for s in pair.inference.servers)

    def test_loan_ids_all_or_nothing_on_unknown_id(self):
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(3))
        ids = [s.server_id for s in pair.inference.servers]
        before = [s.server_id for s in pair.inference.servers]
        with pytest.raises(ValueError, match="not in the inference"):
            pair.loan_ids([ids[0], "nope", ids[1]])
        assert [s.server_id for s in pair.inference.servers] == before
        assert pair.loaned_count == 0


class TestSharedEligibility:
    def test_peek_matches_move_under_custom_eligibility(self):
        """Eligibility is decided once, at peek: an override shapes the
        ids a plan names, and commit moves exactly those."""

        class PickyRM(ResourceManager):
            banned = "infer-0001"

            def loan_eligible(self, server):
                return (
                    super().loan_eligible(server)
                    and server.server_id != self.banned
                )

        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(4))
        rm = PickyRM(pair, {})
        peeked = rm.peek_loanable(3)
        assert PickyRM.banned not in peeked
        moved = pair.loan_ids(peeked, now=0.0)
        assert [s.server_id for s in moved] == peeked
        assert PickyRM.banned in pair.inference

    def test_unhealthy_server_excluded_from_peek_and_move(self):
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(3))
        rm = ResourceManager(pair, {})
        first = pair.inference.servers[0].server_id
        rm.fail_node(first)
        peeked = rm.peek_loanable(3)
        assert first not in peeked
        moved = pair.loan_ids(peeked, now=0.0)
        assert [s.server_id for s in moved] == peeked
        assert first in pair.inference


# ----------------------------------------------------------------------
# federation + contracts
# ----------------------------------------------------------------------
class TestFederation:
    def test_union_reads_and_no_insertion(self):
        pair = two_lender_set()
        union = pair.inference
        assert isinstance(union, FederatedCluster)
        assert len(union) == 6
        assert union.total_gpus == sum(
            m.total_gpus for m in pair.inference_members
        )
        assert "infer-r1-0002" in union
        with pytest.raises(TypeError, match="no insertion point"):
            union.add_server(union.get("infer-r1-0002"))

    def test_degenerate_set_uses_members_directly(self):
        """Two constructors, one class: with one cluster per side the
        set *is* the pair — the members themselves, no federation
        wrapper, no merged copy — and the pair has the set's book."""
        training = make_training_cluster(2)
        inference = make_inference_cluster(2)
        pair = ClusterSet(
            training_regions=[training], inference_clusters=[inference]
        )
        assert type(pair) is ClusterPair is type(two_lender_set())
        assert pair.training is training and pair.inference is inference
        assert not pair.market_active and two_lender_set().market_active
        assert not isinstance(pair.inference, FederatedCluster)
        plain = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
        assert plain.inference_members == [plain.inference]
        assert plain.training_region_names == ("training",)
        assert list(plain.clusters()) == [plain.training, plain.inference]
        loan(plain, 1, now=5.0)
        loan(pair, 1, now=5.0)
        assert plain.contracts == pair.contracts
        assert plain.market_snapshot() == pair.market_snapshot()
        assert plain.market_snapshot()["outstanding_by_lender"] == {
            "inference": 1
        }

    def test_home_cluster_of_unknown_region_raises(self):
        pair = two_lender_set()
        stray = make_inference_cluster(1, name="elsewhere").servers[0]
        with pytest.raises(KeyError, match="no member cluster"):
            pair.home_cluster_of(stray)


class TestContracts:
    def test_contract_lifecycle_and_penalties(self):
        terms = ContractTerms(min_duration=100.0, recall_penalty=2.5)
        pair = two_lender_set(terms=terms)
        pair.loan_ids(
            ["infer-r0-0000", "infer-r1-0000"], borrower="train-r0", now=10.0
        )
        assert pair.contracts_opened == 2
        assert pair.outstanding_by_lender() == {
            "infer-r0": 1, "infer-r1": 1
        }
        contract = pair.contracts["infer-r0-0000"]
        assert contract.lender == "infer-r0"
        assert contract.borrower == "train-r0"
        assert not contract.mature(50.0)
        # early recall: penalty accrues
        pair.return_server("infer-r0-0000", now=50.0)
        assert pair.early_recalls == 1
        assert pair.penalties_accrued == pytest.approx(2.5)
        # mature recall: free
        pair.return_server("infer-r1-0000", now=500.0)
        assert pair.early_recalls == 1
        assert pair.recalls == 2
        assert not pair.contracts

    def test_transfer_costs(self):
        pair = two_lender_set(
            transfer_costs={("infer-r0", "train-r0"): 0.5},
            default_transfer_cost=3.0,
        )
        assert pair.transfer_cost("infer-r0", "train-r0") == 0.5
        assert pair.transfer_cost("infer-r1", "train-r0") == 3.0
        pair.loan_ids(["infer-r1-0000"], borrower="train-r0")
        assert pair.transfer_cost_paid == pytest.approx(3.0)

    def test_region_of_tracks_borrower(self):
        pair = two_lender_set()
        pair.loan_ids(["infer-r0-0000"], borrower="train-r0")
        loaned = pair.training.get("infer-r0-0000")
        assert pair.region_of(loaned) == "train-r0"
        dedicated = pair.training.servers[0]
        assert pair.region_of(dedicated) == "train-r0"


# ----------------------------------------------------------------------
# config parsing
# ----------------------------------------------------------------------
class TestMarketConfig:
    def test_spec_shapes_and_staggered_peaks(self):
        cfg = market_config_from_spec("3x2")
        assert (len(cfg.inference), len(cfg.training)) == (3, 2)
        peaks = [r.peak_hour for r in cfg.inference]
        assert peaks == [22.0, 14.0, 6.0]
        assert [r.name for r in cfg.training] == ["train-r0", "train-r1"]

    def test_bad_specs_rejected(self):
        for bad in ("", "2x", "x2", "0x1", "axb"):
            with pytest.raises(ValueError):
                market_config_from_spec(bad)
        with pytest.raises(ValueError, match="--clusters"):
            resolve_market("not-a-spec")

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "market.json"
        path.write_text(json.dumps({
            "inference": [
                {"name": "infer-eu", "servers": 2, "peak_hour": 20},
                {"name": "infer-us", "servers": 2, "peak_hour": 4},
            ],
            "training": [{"name": "train-eu", "servers": 2}],
            "transfer_costs": {"infer-us->train-eu": 2.0},
            "min_duration": 1800.0,
            "recall_penalty": 0.25,
        }))
        cfg = market_config_from_file(str(path))
        assert [r.name for r in cfg.inference] == ["infer-eu", "infer-us"]
        assert [r.name for r in cfg.training] == ["train-eu"]
        assert cfg.transfer_cost_map()[("infer-us", "train-eu")] == 2.0
        assert cfg.terms.min_duration == 1800.0
        assert resolve_market(str(path)) == cfg

    def test_build_splits_hardware_evenly(self):
        setup = default_setup(
            num_jobs=5, days=0.5, training_servers=5, inference_servers=7
        )
        built = build_market_setup(setup, market_config_from_spec("2x2"))
        pair = built.pair
        sizes = [len(m) for m in pair.inference_members]
        assert sizes == [4, 3]
        regions = pair.training_region_free_gpus()
        assert set(regions) == {"train-r0", "train-r1"}
        assert len(pair.training) == 5
        assert built.aggregate_trace.num_servers == 7
        assert set(built.lender_traces) == {"infer-r0", "infer-r1"}


# ----------------------------------------------------------------------
# market clearing
# ----------------------------------------------------------------------
class TestBroker:
    def test_market_smoke_2x2(self):
        """A 2×2 market run loans across lenders, opens contracts, keeps
        the books clean, and completes the workload."""
        setup = default_setup(
            num_jobs=80, days=1.0, training_servers=12,
            inference_servers=16, seed=0,
        )
        sim = build_sim(setup, "lyra", market=market_config_from_spec("2x2"))
        metrics = sim.run()
        assert metrics.completion_ratio() > 0
        snapshot = sim.pair.market_snapshot()
        assert snapshot["contracts_opened"] > 0
        assert snapshot["lenders_used"], "no lender ever participated"
        sim.rm.verify_books()
        # every still-open contract matches an actually-loaned server
        for sid in sim.pair.contracts:
            assert sim.pair.training.get(sid).on_loan

    def test_degenerate_market_has_no_contract_machinery_cost(self):
        """A 1×1 market is a pair under other names: the plain
        orchestrator clears it, and loans keep the one contract book."""
        setup = default_setup(
            num_jobs=90, days=0.5, training_servers=6, inference_servers=8,
            target_load=4.0,
        )
        sim = build_sim(setup, "lyra", market=market_config_from_spec("1x1"))
        assert type(sim.orchestrator) is ResourceOrchestrator
        assert type(sim.pair) is ClusterPair and not sim.pair.market_active
        metrics = sim.run()
        sim.rm.verify_books()
        book = sim.pair.market_snapshot()
        assert book["contracts_opened"] == sum(metrics.loan_ops) > 0
        assert book["recalls"] + book["contracts_open"] == book[
            "contracts_opened"
        ]
        assert book["lenders_used"] == ["infer-r0"]

    def test_split_want_is_front_loaded_and_exact(self):
        split = ResourceOrchestrator._split_want
        assert split(7, 3) == [3, 2, 2]
        assert split(2, 3) == [1, 1, 0]
        assert sum(split(11, 4)) == 11
        assert split(5, 0) == []
        assert split(4, 1) == [4]  # the pair: one borrower takes it all



# ----------------------------------------------------------------------
# one rule: what reaches the pair's lender reaches every lender
# ----------------------------------------------------------------------
def loaded_sim(spec, fault_plan=None, predictor=None, obs=None):
    """12+24 servers, 300 jobs over half a day at load 2.0 (seed 1), not
    yet run: the pair opens 16 loans here, a 2×1 market 33, a 2×2
    market 34."""
    setup = default_setup(
        num_jobs=300, days=0.5, training_servers=12, inference_servers=24,
        seed=1, target_load=2.0,
    )
    overrides = {"record_activities": True}
    if fault_plan is not None:
        overrides["fault_plan"] = fault_plan
    return build_sim(
        setup, "lyra", seed=1, predictor=predictor, obs=obs,
        market=market_config_from_spec(spec) if spec else None,
        sim_overrides=overrides,
    )


def loaded_run(spec, **kwargs):
    sim = loaded_sim(spec, **kwargs)
    sim.run()
    sim.rm.verify_books()
    return sim


class TestEveryLenderIsReached:
    def test_flash_crowd_reaches_every_lender(self):
        """A 4-hour +0.6 spike at t = 3 h must cut a 2×2 market's
        loaning as it cuts the pair's.  It used to overlay the aggregate
        trace only, which no lender of a market reads: the run was
        byte-identical with and without the fault."""
        crowd = FaultPlan(
            name="crowd",
            flash_crowds=(
                FlashCrowd(at=10800.0, duration=14400.0, magnitude=0.6),
            ),
        )
        calm = loaded_run("2x2")
        spiked = loaded_run("2x2", fault_plan=crowd)
        assert digest(spiked.activities) != digest(calm.activities)
        assert len(spiked.metrics.loan_ops) < len(calm.metrics.loan_ops)
        registry = spiked.metrics.registry
        assert registry.counter("resilience.flash_crowds").value == 1

    def test_predictor_caps_every_lender(self):
        """A forecast of full utilization leaves nothing to offer — on
        the pair and on each lender of a market (whose own clearing rule
        used to accept the predictor and never call it)."""
        for spec in (None, "2x1"):
            sim = loaded_run(spec, predictor=lambda history: 1.0)
            assert sim.metrics.loan_ops == [], spec
            assert sim.pair.contracts_opened == 0

    def test_late_forecast_recalls_and_says_so(self):
        """A forecast that rises only after loans are out recalls them,
        and the plan's provenance names the forecast as the reason."""
        cell = {}

        def predictor(history):
            return 1.0 if cell["sim"].now >= 5 * 3600.0 else 0.0

        obs = Observability.enabled()
        sim = cell["sim"] = loaded_sim("2x1", predictor=predictor, obs=obs)
        sim.run()
        assert sim.metrics.loan_ops, "nothing was ever on loan"
        recalls = [
            event.args for event in obs.tracer.events
            if event.name == PROVENANCE_EVENT
            and event.args["policy"].startswith("orchestrator:")
            and event.ts >= 5 * 3600.0
            and any(a["kind"] == "reclaim_servers"
                    for a in event.args["actions"])
        ]
        assert recalls, "the risen forecast recalled nothing"
        assert all(args["inputs"]["forecast_capped"] for args in recalls)
        assert all(args["inputs"]["predictor"] for args in recalls)
        assert sim.pair.loaned_count == 0

    def test_predictor_unavailable_degrades_the_tick_once(self):
        """Whichever lender's forecast raises, the tick degrades once:
        one counter increment, one event, every lender on the safety
        headroom."""
        calls = []

        def flaky(history):
            calls.append(len(history))
            if len(calls) == 2:  # the second lender of the tick
                raise PredictorUnavailable("forecast service down")
            return 0.0

        pair = two_lender_set()
        trace = InferenceTrace(utilization=np.zeros(12), num_servers=3)
        obs = Observability.enabled()
        sim = Simulation(
            [], pair, LyraScheduler(), obs=obs,
            orchestrator=ResourceOrchestrator(
                predictor=flaky, window=1,
                lender_traces={"infer-r0": trace, "infer-r1": trace},
            ),
        )
        plan = sim.orchestrator.plan_tick(sim)
        assert calls == [1, 1]
        assert plan.decision_inputs["degraded"]
        assert not plan.decision_inputs["forecast_capped"]
        # ceil(0.17 * 3) = 1 server held back per lender
        assert plan.decision_inputs["lender_supply"] == {
            "infer-r0": 2, "infer-r1": 2
        }
        counter = sim.metrics.registry.counter("resilience.degraded_ticks")
        assert counter.value == 1
        degraded = [
            e for e in obs.tracer.events
            if e.name == "recovery.predictor_degraded"
        ]
        assert len(degraded) == 1


class TestRegionalOutage:
    def test_outage_targets_only_the_named_region(self):
        from repro.faults.plan import resolve_plan

        setup = default_setup(
            num_jobs=60, days=1.0, training_servers=10,
            inference_servers=12, seed=1,
        )
        obs = Observability.enabled()
        sim = build_sim(
            setup, "lyra", market=market_config_from_spec("2x2"),
            sim_overrides={"fault_plan": resolve_plan("regional-outage")},
            obs=obs,
        )
        sim.run()
        assert sim.metrics.node_failures > 0
        failed = [
            event.args["server_id"] for event in obs.tracer.events
            if event.name == "cluster.node_failure"
        ]
        assert len(failed) == sim.metrics.node_failures
        for server_id in failed:
            assert str(server_id).startswith("infer-r0"), (
                f"regional outage leaked outside infer-r0: {server_id}"
            )

    def test_region_with_no_servers_is_a_recorded_noop(self):
        from repro.faults.plan import FaultPlan, NodeOutage

        setup = default_setup(
            num_jobs=10, days=0.5, training_servers=4, inference_servers=4
        )
        plan = FaultPlan(
            name="ghost-region",
            outages=(NodeOutage(at=3600.0, servers=2, region="nowhere"),),
        )
        sim = build_sim(
            setup, "lyra", market=market_config_from_spec("2x2"),
            sim_overrides={"fault_plan": plan},
        )
        sim.run()  # must not raise
        assert sim.metrics.node_failures == 0


# ----------------------------------------------------------------------
# the pair is the 1×1 market: both constructors, any names, one log
# ----------------------------------------------------------------------
def degenerate_pair():
    return ClusterSet(
        training_regions=[make_training_cluster(6)],
        inference_clusters=[make_inference_cluster(8)],
    )


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("name", ["lyra_loaning", "lyra_elastic"])
def test_degenerate_market_matches_golden_logs(name, view):
    """The list-of-clusters constructor gives the committed golden log,
    byte for byte."""
    with GOLDEN_PATH.open() as fh:
        golden = json.load(fh)
    sim = run_scenario(name, view=view, pair_factory=degenerate_pair)
    assert digest(sim.activities) == golden[name]["sha256"], (
        f"the 1x1 ClusterSet drifted from the plain pair on "
        f"{name!r}/{view!r}"
    )


def renamed_pair():
    """The golden 6+8 pair under ``market_config_from_spec("1x1")``'s
    names: lender ``infer-r0``, region ``train-r0``, ids to match."""
    names = market_config_from_spec("1x1")
    lender, region = names.inference[0].name, names.training[0].name
    return ClusterSet(
        training_regions=[
            make_training_cluster(6, name=region, id_prefix=region)
        ],
        inference_clusters=[
            make_inference_cluster(8, name=lender, id_prefix=lender)
        ],
    )


def with_golden_ids(detail):
    """``detail`` with ``infer-r0-0003`` spelled ``infer-0003`` again."""
    if isinstance(detail, str):
        return detail.replace("infer-r0-", "infer-").replace(
            "train-r0-", "train-"
        )
    if isinstance(detail, dict):
        return {
            with_golden_ids(k): with_golden_ids(v) for k, v in detail.items()
        }
    if isinstance(detail, (list, tuple)):
        return type(detail)(with_golden_ids(item) for item in detail)
    return detail


@pytest.mark.parametrize(
    "name", ["lyra_loaning", "agnostic_loaning", "node_failures"]
)
def test_renamed_pair_matches_golden_logs(name):
    """Nothing in the one rule may depend on the names ``"inference"`` /
    ``"training"``: every orchestrated golden scenario, lender and
    region renamed, gives the golden log once server ids are mapped
    back."""
    with GOLDEN_PATH.open() as fh:
        golden = json.load(fh)
    sim = run_scenario(name, pair_factory=renamed_pair)
    # the failure scenario's load never overflows the training cluster
    loaned = name != "node_failures"
    assert bool(sim.metrics.loan_ops) == loaned
    assert sim.pair.lenders_used == ({"infer-r0"} if loaned else set())
    assert loaned == any("infer-r0-" in repr(a.detail) for a in sim.activities)
    mapped = [
        dataclasses.replace(a, detail=with_golden_ids(a.detail))
        for a in sim.activities
    ]
    assert digest(mapped) == golden[name]["sha256"]


# ----------------------------------------------------------------------
# property: every interleaving fully unwinds
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["loan", "loan_ids", "ret"]),
                          st.integers(0, 5)),
                max_size=24))
def test_any_interleaving_unwinds_cleanly(ops):
    """Any interleaving of loan / loan_ids / return_server over a
    multi-cluster set, fully unwound, restores every whitelist's exact
    membership, clears every on_loan flag, and leaves the RM books
    clean."""
    pair = two_lender_set()
    rm = ResourceManager(pair, {})
    original = {
        m.name: [s.server_id for s in m.servers]
        for m in pair.inference_members
    }
    original_training = [s.server_id for s in pair.training.servers]
    for op, arg in ops:
        if op == "loan":
            loan(rm, arg % 3, now=float(arg))
        elif op == "loan_ids":  # one lender's servers only
            ids = rm.peek_loanable(arg % 3, lender="infer-r1")
            if ids:
                pair.loan_ids(ids, now=float(arg))
        else:  # return one on-loan server, if any
            loaned = pair.training.on_loan_servers
            if loaned:
                rm.return_server(loaned[arg % len(loaned)].server_id,
                                 now=float(arg))
        rm.verify_books()
    # unwind everything still out
    for server in list(pair.training.on_loan_servers):
        rm.return_server(server.server_id, now=999.0)
    rm.verify_books()
    assert [s.server_id for s in pair.training.servers] == original_training
    for member in pair.inference_members:
        assert sorted(s.server_id for s in member.servers) == sorted(
            original[member.name]
        )
        assert all(not s.on_loan for s in member.servers)
    assert pair.outstanding_by_lender() == {
        "infer-r0": 0, "infer-r1": 0
    }


FLAT_SAMPLES = 6  # one piecewise-flat level lasts half an hour


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    levels=st.lists(
        st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.9, 1.0]),
                 min_size=4, max_size=4),
        min_size=3, max_size=3,
    ),
    demand=st.lists(
        st.tuples(st.integers(0, 12), st.integers(2, 16), st.booleans()),
        min_size=2, max_size=8,
    ),
)
def test_every_committed_plan_clears_within_its_books(shape, levels, demand):
    """Over random ≤ 3×3 markets, piecewise-flat lender traces and
    pending demand, every orchestrator plan that commits: keeps the
    books (``verify_books``), recalls for a lender at most its deficit,
    matches no loan to a lender beyond its spare supply, and names no
    server in two ``LoanServers``."""
    lenders, regions = shape
    pair = ClusterSet(
        training_regions=[
            make_training_cluster(1, name=f"t{j}", id_prefix=f"t{j}")
            for j in range(regions)
        ],
        inference_clusters=[
            make_inference_cluster(3, name=f"i{i}", id_prefix=f"i{i}")
            for i in range(lenders)
        ],
    )
    traces = {
        f"i{i}": InferenceTrace(
            utilization=np.repeat(levels[i], FLAT_SAMPLES), num_servers=3
        )
        for i in range(lenders)
    }
    specs = [
        JobSpec(
            job_id=n, submit_time=tick * SAMPLE_INTERVAL, duration=4000.0,
            max_workers=workers, min_workers=1 if elastic else workers,
            elastic=elastic, fungible=True,
        )
        for n, (tick, workers, elastic) in enumerate(demand)
    ]
    sim = Simulation(
        specs, pair, LyraScheduler(), obs=Observability.enabled(),
        orchestrator=ResourceOrchestrator(lender_traces=traces),
    )
    commit = sim.executor.apply
    checked = []

    def checking(plan, dry_run=False):
        receipt = commit(plan, dry_run=dry_run)
        if plan.policy.startswith("orchestrator:"):
            seen = plan.decision_inputs
            supply, owed = seen["lender_supply"], seen["lender_outstanding"]
            recalled, loaned, named = dict.fromkeys(supply, 0), {}, []
            for action in plan.actions:
                if action.kind == "loan_servers":
                    named.extend(action.server_ids)
                    loaned[action.lender] = (
                        loaned.get(action.lender, 0) + len(action.server_ids)
                    )
                elif action.kind == "reclaim_servers" and action.record_metrics:
                    recalled[action.lender] += len(action.server_ids)
            assert len(named) == len(set(named))
            for name in supply:
                assert recalled[name] <= max(0, owed[name] - supply[name])
                spare = supply[name] - (owed[name] - recalled[name])
                assert loaned.get(name, 0) <= max(0, spare)
            sim.rm.verify_books()
            checked.append(plan)
        return receipt

    sim.executor.apply = checking
    sim.run()
    assert checked and sim.executor.plans_rejected == 0
