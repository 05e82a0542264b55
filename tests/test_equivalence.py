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

:func:`build_scenario` is the one builder of a golden scenario: the
recovery, market and view suites build theirs here too.  A test that
needs only a finished plain run reads ``tests.conftest.golden_run``,
which simulates each (scenario, leg) once per session.
docs/CORRECTNESS.md tables which planted bug each golden leg catches.
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
from repro.oracle.refview import install_reference_view
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

#: The legs of the matrix, each as :func:`build_scenario` options:
#:
#: - ``reference``   the oracle's scan-from-scratch reference view,
#: - ``audited``     the production view with its delta maintenance
#:                   audited (columns == rebuild), and the books with
#:                   the derived state they check, after *every* epoch
#:                   rather than once at the end,
#: - ``production``  the production column view.
LEGS = {
    "reference": {"view": "reference"},
    "audited": {"audit": True},
    "production": {},
}

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


def build_scenario(
    name: str,
    view: str = "production",
    audit: bool = False,
    obs=None,
    pair_factory=None,
    fault_plan=None,
) -> Simulation:
    """The golden scenario ``name``, built but not run.

    ``view`` is ``"production"`` or ``"reference"``; ``audit`` checks
    the view against a rebuild and the books (derived state included)
    after every epoch.  ``pair_factory``
    substitutes the cluster pair's construction (the market suite pins
    the 1×1 ``ClusterSet`` and a renamed pair against these same golden
    digests), and ``fault_plan`` replaces the scenario's own.
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
        fault_plan=fault_plan or opts.get("fault_plan"),
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
    if audit:
        finished = sim.epoch_finished

        def audited() -> None:
            sim.view.assert_consistent()
            sim.rm.verify_books()
            finished()

        sim.epoch_finished = audited
    return sim


def digest(activities) -> str:
    """Canonical, repr-exact digest of an Activity log."""
    h = hashlib.sha256()
    for a in activities:
        h.update(a.line().encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_backends_produce_identical_logs(name, leg, golden, golden_run):
    run = golden_run(name, leg)
    entry = golden[name]
    assert run.events == entry["events"], (
        f"leg {leg!r}, scenario {name!r}: event count drifted"
    )
    assert run.digest == entry["sha256"], (
        f"leg {leg!r}, scenario {name!r} drifted from the "
        f"committed golden log; if the behaviour change is intentional, "
        f"regenerate the fixture with `python -m tests.test_equivalence`"
    )
    # every leg must be running through the decision-plan core
    assert run.plans_applied > 0
    assert run.plans_rejected == 0
    # ... and on the view it claims to
    assert run.on_reference == (leg == "reference")
    assert run.view_drift is None, run.view_drift


def test_tracing_does_not_perturb_the_golden_log(golden):
    """Observability must be read-only: a fully traced run (spans,
    provenance, the lot) still produces the byte-identical Activity log
    pinned by the golden fixture — and the instrumentation is live."""
    from repro.obs import Observability
    from repro.obs.provenance import PROVENANCE_EVENT
    from repro.obs.tracer import SPAN_EVENT

    obs = Observability.enabled()
    sim = build_scenario("lyra_loaning", obs=obs)
    sim.run()
    assert digest(sim.activities) == golden["lyra_loaning"]["sha256"]
    names = {e.name for e in obs.tracer.events}
    assert SPAN_EVENT in names
    assert PROVENANCE_EVENT in names


def test_disabled_obs_keeps_golden_log(golden, golden_run):
    """A run given no bundle runs on a disabled one, which records
    nothing and keeps the golden log."""
    run = golden_run("lyra_elastic")
    assert run.digest == golden["lyra_elastic"]["sha256"]
    assert run.obs_recorded == 0


def _regenerate() -> None:
    fixture = {}
    for name in sorted(SCENARIOS):
        sim = build_scenario(name, view="reference")
        sim.run()
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
