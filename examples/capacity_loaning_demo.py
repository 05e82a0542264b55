#!/usr/bin/env python3
"""Capacity loaning in action: watch idle inference servers flow to the
training cluster overnight and return for the traffic peak.

This example drives the resource orchestrator directly against a diurnal
inference trace and prints an hour-by-hour ASCII strip chart of inference
utilization vs loaned servers, followed by the reclaiming statistics —
including how often elastic scale-in alone satisfied the reclaim demand
(§5.3's flexible server group at work).

Run:  python examples/capacity_loaning_demo.py
"""

from repro.core.orchestrator import ResourceOrchestrator
from repro.scenarios import apply_scenario, default_setup, make_policy
from repro.simulator.simulation import Simulation, SimulationConfig


class HourlySimulation(Simulation):
    """The simulation plus one hourly timer that records the loan state:
    ``(time, inference utilization, loaned, busy on loan, pending)``."""

    TIMERS = {**Simulation.TIMERS, "hourly": "_on_hourly"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.timeline = []

    def _on_hourly(self) -> None:
        util = self.inference_trace.utilization_at(self.now)
        busy = sum(1 for s in self.pair.training.on_loan_servers if not s.idle)
        self.timeline.append(
            (self.now, util, self.pair.loaned_count, busy, len(self.pending))
        )
        if self.pending or self.running or self.now < self._last_arrival:
            self.engine.schedule_after(3600.0, ("hourly",))


def strip(value: float, width: int = 24) -> str:
    filled = int(round(value * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    setup = default_setup(
        num_jobs=500,
        days=2.0,
        training_servers=16,
        inference_servers=20,
        seed=3,
        target_load=1.05,
    )
    pair = setup.make_pair()
    orchestrator = ResourceOrchestrator(reclaimer="lyra")
    sim = HourlySimulation(
        apply_scenario(setup.workload.specs, "basic"),
        pair,
        make_policy("lyra"),
        inference_trace=setup.inference_trace,
        orchestrator=orchestrator,
        config=SimulationConfig(elastic=True),
    )
    sim.engine.schedule(0.0, ("hourly",))
    metrics = sim.run()

    print("hour  inference utilization      loaned busy pending")
    for now, util, loaned, busy, pending in sim.timeline[:48]:
        print(
            f"{now / 3600:>4.0f}  [{strip(util)}] {util:.2f} "
            f"{loaned:>5} {busy:>4} {pending:>7}"
        )

    print(
        f"\nloan ops: {len(metrics.loan_ops)} "
        f"(moved {sum(metrics.loan_ops)} servers), "
        f"reclaim ops: {len(metrics.reclaim_ops)} "
        f"(returned {sum(metrics.reclaim_ops)} servers)"
    )
    print(
        f"preemptions: {metrics.preemptions} "
        f"({metrics.preemption_ratio:.1%} of submissions); "
        f"reclaim demand satisfied by the flexible group alone: "
        f"{metrics.mean_flex_satisfied():.0%} on average"
    )
    print(
        f"mean collateral damage: {metrics.mean_collateral():.2f} "
        f"of each reclaim demand"
    )
    if metrics.onloan_busy.values:
        print(
            f"on-loan server occupancy while loaned: "
            f"{metrics.onloan_busy.mean():.0%}"
        )


if __name__ == "__main__":
    main()
