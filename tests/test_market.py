"""The multi-cluster capacity market, and the loan-path bugfix sweep.

Covers:

* the three loan-path regressions this PR fixes — each test fails on the
  pre-fix code:
  - ``return_server`` routing by ``home_cluster`` (it used to dump every
    return into ``self.inference``, wherever the server came from);
  - ``loan_ids`` all-or-nothing validation (it used to raise mid-list,
    leaving earlier servers already moved);
  - one shared loan-eligibility predicate (``peek_loanable`` used to
    re-implement the filter inline, so an eligibility change could make
    plans diverge from commits);
* the market layer itself: contracts, broker clearing across lenders,
  regional outages, config parsing;
* the degenerate-equivalence rule: a 1×1 ClusterSet driven by a
  CapacityBroker reproduces the committed golden logs byte-identically;
* a Hypothesis property: any interleaving of loan / loan_ids /
  return_server, fully unwound, restores every whitelist exactly.
"""

import json

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.market import (
    CapacityBroker,
    ClusterSet,
    ContractTerms,
    FederatedCluster,
    build_market_setup,
    market_config_from_file,
    market_config_from_spec,
    resolve_market,
)
from repro.obs import Observability
from repro.rm.manager import ResourceManager
from repro.scenarios import build_sim, default_setup

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
        a = pair.inference.member("infer-r0")
        b = pair.inference.member("infer-r1")
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
        rm = PickyRM(pair)
        peeked = rm.peek_loanable(3)
        assert PickyRM.banned not in peeked
        moved = rm.loan_selected(peeked, now=0.0)
        assert [s.server_id for s in moved] == peeked
        assert PickyRM.banned in pair.inference

    def test_unhealthy_server_excluded_from_peek_and_move(self):
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(3))
        rm = ResourceManager(pair)
        first = pair.inference.servers[0].server_id
        rm.fail_node(first)
        peeked = rm.peek_loanable(3)
        assert first not in peeked
        moved = rm.loan_selected(peeked, now=0.0)
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
        pair = ClusterSet(
            training_regions=[make_training_cluster(2)],
            inference_clusters=[make_inference_cluster(2)],
        )
        assert not pair.market_active
        assert not isinstance(pair.inference, FederatedCluster)
        assert pair.inference.name == "inference"

    def test_home_cluster_of_unknown_region_raises(self):
        pair = two_lender_set()
        stray = make_inference_cluster(1, name="elsewhere").servers[0]
        with pytest.raises(KeyError, match="no member cluster"):
            pair.home_cluster_of(stray)


class TestContracts:
    def test_contract_lifecycle_and_penalties(self):
        terms = ContractTerms(min_duration=100.0, recall_penalty=2.5)
        pair = two_lender_set(terms=terms)
        pair.clock = 10.0
        pair.loan_ids(["infer-r0-0000", "infer-r1-0000"], borrower="train-r0")
        assert pair.contracts_opened == 2
        assert pair.outstanding_by_lender() == {
            "infer-r0": 1, "infer-r1": 1
        }
        contract = pair.contracts["infer-r0-0000"]
        assert contract.lender == "infer-r0"
        assert contract.borrower == "train-r0"
        assert not contract.mature(50.0)
        # early recall: penalty accrues
        pair.clock = 50.0
        pair.return_server("infer-r0-0000")
        assert pair.early_recalls == 1
        assert pair.penalties_accrued == pytest.approx(2.5)
        # mature recall: free
        pair.clock = 500.0
        pair.return_server("infer-r1-0000")
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
        assert cfg.shape == "3x2"
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
        assert cfg.shape == "2x1"
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
# broker clearing
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
        """A 1×1 market behaves as the plain pair (inert bookkeeping)."""
        setup = default_setup(
            num_jobs=30, days=0.5, training_servers=6, inference_servers=8
        )
        sim = build_sim(setup, "lyra", market=market_config_from_spec("1x1"))
        assert isinstance(sim.orchestrator, CapacityBroker)
        assert not sim.pair.market_active
        sim.run()
        sim.rm.verify_books()

    def test_split_want_is_front_loaded_and_exact(self):
        assert CapacityBroker._split_want(7, 3) == [3, 2, 2]
        assert CapacityBroker._split_want(2, 3) == [1, 1, 0]
        assert sum(CapacityBroker._split_want(11, 4)) == 11
        assert CapacityBroker._split_want(5, 0) == []


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
# degenerate golden equivalence (the tentpole's safety rail)
# ----------------------------------------------------------------------
def degenerate_pair():
    return ClusterSet(
        training_regions=[make_training_cluster(6)],
        inference_clusters=[make_inference_cluster(8)],
    )


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("name", ["lyra_loaning", "lyra_elastic"])
def test_degenerate_market_matches_golden_logs(name, view):
    """ClusterSet(1×1) + CapacityBroker ≡ ClusterPair + orchestrator,
    byte-for-byte against the committed golden fixture."""
    with GOLDEN_PATH.open() as fh:
        golden = json.load(fh)
    sim = run_scenario(
        name,
        view=view,
        pair_factory=degenerate_pair,
        orchestrator_factory=CapacityBroker,
    )
    assert digest(sim.activities) == golden[name]["sha256"], (
        f"degenerate 1x1 market drifted from the plain pair on "
        f"{name!r}/{view!r}"
    )


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
    rm = ResourceManager(pair)
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
                rm.loan_selected(ids, now=float(arg))
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
