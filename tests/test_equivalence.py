"""Equivalence: the production view vs the oracle's reference view.

The scheduling view (:class:`repro.core.view.ClusterView`) must be an
*observationally invisible* optimisation: every seeded scenario — one
per scheduler family, plus orchestrated loaning/reclaiming and
node-failure runs — must produce a byte-identical Activity log whether
the kernel runs on the production view or on the scan-from-scratch
reference (:class:`repro.oracle.refview.ReferenceView`, swapped in by
``install_reference_view``).

A golden-log fixture (``tests/data/golden_logs.json``) additionally pins
both against silent drift across future changes: regenerate it with
``python -m tests.test_equivalence`` (which runs the reference view)
only when a PR *intends* to change scheduling behaviour.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.core.kernel import DAY
from repro.core.orchestrator import ResourceOrchestrator
from repro.faults.plan import FaultPlan, NodeFailureProcess
from repro.oracle.refview import ReferenceView, install_reference_view
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.agnostic import LyraAgnosticScheduler
from repro.schedulers.fifo import (
    FIFOScheduler,
    OpportunisticScheduling,
    SJFScheduler,
)
from repro.schedulers.gandiva import GandivaScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.schedulers.pollux import PolluxScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.traces.inference import generate_inference_trace
from repro.traces.workload import TraceConfig, generate_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_logs.json"

#: The legs of the matrix:
#:
#: - ``reference``   the oracle's scan-from-scratch reference view,
#: - ``production``  the production column view,
#: - ``audited``     the production view again, with its delta
#:                   maintenance audited (columns == rebuild) after
#:                   *every* epoch rather than once at the end.
VIEWS = ("reference", "audited", "production")

#: name -> (policy factory, simulation kwargs)
SCENARIOS = {
    "fifo_contention": (FIFOScheduler, {}),
    "sjf": (SJFScheduler, {}),
    "lyra_elastic": (LyraScheduler, {}),
    "lyra_loaning": (LyraScheduler, {"orchestrated": True, "load": 4.0}),
    "lyra_inelastic": (LyraScheduler, {"elastic": False}),
    "gandiva": (GandivaScheduler, {}),
    "afs": (AFSScheduler, {}),
    "pollux_seeded": (
        lambda: PolluxScheduler(generations=10, population=8, seed=1),
        {},
    ),
    "agnostic_loaning": (
        LyraAgnosticScheduler,
        {"orchestrated": True, "load": 4.0},
    ),
    "opportunistic": (
        OpportunisticScheduling,
        {"inference": True, "drain_days": 3.0},
    ),
    "node_failures": (
        LyraScheduler,
        {
            "orchestrated": True,
            "load": 1.6,
            "fault_plan": FaultPlan(
                name="node-mtbf", process=NodeFailureProcess(mtbf=30000.0)
            ),
        },
    ),
}


def run_scenario(
    name: str,
    view: str = "production",
    obs=None,
    pair_factory=None,
) -> Simulation:
    """Run one golden scenario on one leg of :data:`VIEWS`.

    ``pair_factory`` substitutes the cluster pair's construction — the
    market suite uses it to pin the 1×1 ``ClusterSet`` and a renamed
    pair against these same golden digests.
    """
    if pair_factory is None:
        pair_factory = lambda: ClusterPair(  # noqa: E731
            make_training_cluster(6), make_inference_cluster(8)
        )
    policy_fn, opts = SCENARIOS[name]
    specs = generate_workload(
        TraceConfig(
            num_jobs=90,
            days=1.0,
            cluster_gpus=48,
            seed=7,
            target_load=opts.get("load", 0.8),
        )
    ).specs
    pair = pair_factory()
    orchestrated = opts.get("orchestrated", False)
    trace = (
        generate_inference_trace(days=2.0, num_servers=8, seed=3)
        if orchestrated or opts.get("inference")
        else None
    )
    config = SimulationConfig(
        record_activities=True,
        elastic=opts.get("elastic", True),
        fault_plan=opts.get("fault_plan"),
        drain_limit=opts.get("drain_days", 30.0) * DAY,
    )
    sim = Simulation(
        specs,
        pair,
        policy_fn(),
        inference_trace=trace,
        orchestrator=ResourceOrchestrator() if orchestrated else None,
        config=config,
        obs=obs,
    )
    if view == "reference":
        install_reference_view(sim)
    elif view == "audited":
        finished = sim.epoch_finished

        def audited() -> None:
            sim.view.assert_consistent()
            finished()

        sim.epoch_finished = audited
    sim.run()
    return sim


def digest(activities) -> str:
    """Canonical, repr-exact digest of an Activity log."""
    h = hashlib.sha256()
    for a in activities:
        h.update(
            f"{a.time!r}|{a.kind.value}|{a.job_id!r}|{a.detail!r}\n".encode()
        )
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_backends_produce_identical_logs(name, view, golden):
    sim = run_scenario(name, view=view)
    d = digest(sim.activities)
    entry = golden[name]
    assert len(sim.activities) == entry["events"], (
        f"view {view!r}, scenario {name!r}: event count drifted"
    )
    assert d == entry["sha256"], (
        f"view {view!r}, scenario {name!r} drifted from the "
        f"committed golden log; if the behaviour change is intentional, "
        f"regenerate the fixture with `python -m tests.test_equivalence`"
    )
    # every leg must be running through the decision-plan core
    assert sim.executor.plans_applied > 0
    assert sim.executor.plans_rejected == 0
    # ... and on the view it claims to
    assert isinstance(sim.view, ReferenceView) == (view == "reference")
    sim.view.assert_consistent()


def test_tracing_does_not_perturb_the_golden_log(golden):
    """Observability must be read-only: a fully traced run (spans,
    provenance, the lot) still produces the byte-identical Activity log
    pinned by the golden fixture — and the instrumentation is live."""
    from repro.obs import Observability
    from repro.obs.provenance import PROVENANCE_EVENT
    from repro.obs.tracer import SPAN_EVENT

    obs = Observability.enabled()
    sim = run_scenario("lyra_loaning", obs=obs)
    assert digest(sim.activities) == golden["lyra_loaning"]["sha256"]
    names = {e.name for e in obs.tracer.events}
    assert SPAN_EVENT in names
    assert PROVENANCE_EVENT in names


def test_disabled_obs_keeps_golden_log(golden):
    """An explicitly disabled bundle is equivalent to no bundle."""
    from repro.obs import Observability

    obs = Observability.disabled()
    sim = run_scenario("lyra_elastic", obs=obs)
    assert digest(sim.activities) == golden["lyra_elastic"]["sha256"]
    assert len(obs.tracer) == 0
    assert obs.phases.stats() == []


def _regenerate() -> None:
    fixture = {}
    for name in sorted(SCENARIOS):
        sim = run_scenario(name, view="reference")
        fixture[name] = {
            "events": len(sim.activities),
            "sha256": digest(sim.activities),
        }
        print(f"{name:18s} {fixture[name]['events']:6d} events "
              f"{fixture[name]['sha256'][:16]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
