#!/usr/bin/env python3
"""Observability tour: trace a Lyra run, then mine the event stream.

Runs a small loaning-heavy scenario with the full observability bundle
attached, exports the structured event trace (JSONL + Chrome formats),
prints the ``repro inspect`` report, and shows how to answer ad-hoc
questions directly from the in-memory event list — here, "which reclaim
operations actually preempted somebody, and what did they cost?".

Run:  python examples/trace_inspection_demo.py
"""

import json
import tempfile
from pathlib import Path

from repro.obs import Observability
from repro.obs.inspect import inspect_trace
from repro.scenarios import default_setup, run_scheme


def main() -> None:
    # A small cluster under pressure so reclaims have to preempt.
    setup = default_setup(
        num_jobs=200,
        days=1.0,
        training_servers=8,
        inference_servers=10,
        seed=5,
        target_load=1.1,
    )
    obs = Observability.enabled()
    metrics = run_scheme(setup, "lyra_loaning", obs=obs)
    print(
        f"simulated {len(metrics.jobs)} jobs; tracer captured "
        f"{len(obs.tracer)} events across "
        f"{len({e.name for e in obs.tracer.events})} event types"
    )

    out_dir = Path(tempfile.mkdtemp(prefix="lyra-trace-"))
    jsonl = out_dir / "trace.jsonl"
    chrome = out_dir / "trace_chrome.json"
    obs.export_trace(str(jsonl))
    obs.export_trace(str(chrome), format="chrome")
    print(f"wrote {jsonl} (JSONL) and {chrome} (load the latter in "
          f"about://tracing or https://ui.perfetto.dev)\n")

    # The same report `python -m repro inspect trace.jsonl` prints.
    print(inspect_trace(str(jsonl)))

    # Ad-hoc mining: costly reclaims, straight off the event objects.
    print("\n== reclaims that preempted jobs ==")
    costly = [
        e for e in obs.tracer.events
        if e.name == "orchestrator.reclaim" and e.args.get("preempted")
    ]
    if not costly:
        print("  none — every reclaim was satisfied from FLEX groups")
    for event in costly:
        print(
            f"  t={event.ts / 3600.0:6.2f}h  servers={event.args['servers']}"
            f"  preempted jobs={event.args['preempted']}"
            f"  collateral={event.args.get('collateral', 0.0):.3f}"
        )

    # The first few raw JSONL records, to show the schema.
    print("\n== first three trace records ==")
    with open(jsonl) as fh:
        for _, line in zip(range(3), fh):
            print(" ", json.dumps(json.loads(line), sort_keys=True))


if __name__ == "__main__":
    main()
