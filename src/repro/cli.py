"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one scheme on a generated trace and print metrics
  (``--trace out.jsonl`` additionally exports a structured event trace;
  ``--faults PLAN`` injects a fault plan; ``--node-mtbf``/
  ``--node-repair-time``/``--failure-seed`` are shorthand for a plan
  holding one Poisson node-failure process).
* ``serve``    — run the same scheduling kernel as a wall-clock asyncio
  daemon: jobs arrive over a JSONL TCP API (submit/query/cancel/scale,
  streaming event feed), requests batch into scheduling epochs, and
  ``--state-dir`` adds journal+snapshot+WAL durability so a killed
  daemon restarts without losing an acked job (see docs/SERVING.md).
* ``chaos``    — run one scheme under a named or file-based fault plan
  and print the resilience snapshot (goodput, lost GPU-hours by cause,
  time-to-recover).  Seeded: identical arguments give byte-identical
  ``--json`` output.
* ``whatif``   — run a loaning scheme up to a point in time, then price
  a hypothetical reclaim plan (preemptions, lost GPU-hours, per-server
  preemption cost) as a dry run that provably leaves the simulation
  untouched.
* ``check``    — conformance-check the schedulers against the
  correctness oracles (``repro.oracle``): differential sweeps against
  brute-force references, metamorphic properties, and mini-scenario
  replays through every registered scheduler on both views.  Exits
  non-zero on the first divergence, printing a minimized repro script.
* ``compare``  — run several schemes on the same trace, print a table.
* ``trace``    — generate a synthetic trace and describe (or export) it.
* ``inspect``  — summarize an exported event trace (phase timings,
  preemption causes, reclaim timeline); ``--diff A B`` compares two
  traces and reports the first divergence plus metric deltas.
* ``why``      — narrate the causal chain behind a job's lifecycle from
  an exported trace: which plan dispatched/preempted it, what triggered
  that epoch, which fault was behind it.
* ``report``   — with a trace file, render a deterministic markdown run
  report (JCT/queue-wait percentiles, utilization, loan/reclaim and
  preemption timelines, decision ledger, phase call counts); without
  one, run the headline schemes and check shapes against the paper.
* ``paper``    — print the paper's published numbers for a table.

Everything is seeded; two invocations with the same arguments produce
identical numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro import paper
from repro.analysis import compare_to_paper, render_report
from repro.ioutil import atomic_write, atomic_write_text
from repro.obs import (
    Observability,
    TraceFormatError,
    configure_logging,
    inspect_trace,
)
from repro.scenarios import (
    SCENARIOS,
    SCHEMES,
    build_sim,
    default_setup,
    run_scheme,
    wire_scheme,
)
from repro.simulator.metrics import SimulationMetrics, reduction
from repro.traces.io import load_workload, save_workload
from repro.traces.workload import TraceConfig, generate_workload


def _add_log_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable library logging at this level (silent by default)",
    )


def _add_setup_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=600,
                        help="number of jobs to generate")
    parser.add_argument("--days", type=float, default=2.0,
                        help="trace span in days")
    parser.add_argument("--training-servers", type=int, default=24)
    parser.add_argument("--inference-servers", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--load", type=float, default=1.0,
                        help="offered load relative to cluster capacity")
    _add_log_arg(parser)


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--node-mtbf", type=float, default=None, metavar="SECONDS",
        help="per-node mean time between failures; arms a Poisson "
             "node-failure process (off by default)",
    )
    parser.add_argument(
        "--node-repair-time", type=float, default=3600.0, metavar="SECONDS",
        help="how long a failed node stays down before recovering",
    )
    parser.add_argument(
        "--failure-seed", type=int, default=None,
        help="RNG seed for fault injection; defaults to the plan's own "
             "seed (or 0 for --node-mtbf)",
    )


def _fault_overrides(args) -> dict:
    """SimulationConfig overrides from the fault-injection CLI knobs."""
    overrides: dict = {}
    plan_spec = getattr(args, "faults", None) or getattr(args, "plan", None)
    if plan_spec:
        from repro.faults import resolve_plan

        plan = resolve_plan(plan_spec)
        if args.failure_seed is not None:
            plan = plan.with_seed(args.failure_seed)
        overrides["fault_plan"] = plan
    elif args.node_mtbf:
        from repro.faults import FaultPlan, NodeFailureProcess

        overrides["fault_plan"] = FaultPlan(
            name="node-mtbf",
            seed=args.failure_seed or 0,
            process=NodeFailureProcess(
                mtbf=args.node_mtbf, repair_time=args.node_repair_time
            ),
        )
    return overrides


def _add_recovery_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="durable-state directory (snapshots + WAL); enables "
             "checkpointing",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=1800.0, metavar="SECONDS",
        help="simulated seconds between snapshots (default: 1800)",
    )
    parser.add_argument(
        "--activities-out", default=None, metavar="FILE",
        help="write the Activity log, one line per event, for "
             "byte-comparison across runs",
    )


def _make_setup(args):
    return default_setup(
        num_jobs=args.jobs,
        days=args.days,
        training_servers=args.training_servers,
        inference_servers=args.inference_servers,
        seed=args.seed,
        target_load=args.load,
    )


def _metrics_dict(metrics: SimulationMetrics) -> dict:
    q = metrics.queuing_summary()
    j = metrics.jct_summary()
    return {
        "queuing": {"mean": q.mean, "median": q.median, "p95": q.p95},
        "jct": {"mean": j.mean, "median": j.median, "p95": j.p95},
        "usage_training": metrics.training_usage.mean(),
        "usage_overall": metrics.overall_usage.mean(),
        "preemption_ratio": metrics.preemption_ratio,
        "scale_ops": metrics.scale_ops,
        "loan_ops": len(metrics.loan_ops),
        "reclaim_ops": len(metrics.reclaim_ops),
        "completed": metrics.completion_ratio(),
    }


def _print_metrics(name: str, metrics: SimulationMetrics) -> None:
    data = _metrics_dict(metrics)
    print(f"[{name}]")
    print(f"  queuing  mean {data['queuing']['mean']:>10,.1f} s   "
          f"median {data['queuing']['median']:>8,.1f}   "
          f"p95 {data['queuing']['p95']:>10,.1f}")
    print(f"  jct      mean {data['jct']['mean']:>10,.1f} s   "
          f"median {data['jct']['median']:>8,.1f}   "
          f"p95 {data['jct']['p95']:>10,.1f}")
    print(f"  usage    training {data['usage_training']:.3f}   "
          f"overall {data['usage_overall']:.3f}")
    print(f"  events   preemption ratio {data['preemption_ratio']:.3f}   "
          f"scale ops {data['scale_ops']}   loans {data['loan_ops']}   "
          f"reclaims {data['reclaim_ops']}")


def _print_plan_summary(sim) -> None:
    """Summarize the recorded decision plans of a finished run."""
    plans = sim.plan_log
    executor = sim.executor
    print(f"  plans    applied {executor.plans_applied}   "
          f"rejected {executor.plans_rejected}   "
          f"actions {executor.actions_applied}   "
          f"recorded {len(plans)} non-empty")
    if not plans:
        return
    by_kind: dict = {}
    preemptions = 0
    gpus_moved = 0
    for entry in plans:
        for kind, count in entry.get("by_kind", {}).items():
            by_kind[kind] = by_kind.get(kind, 0) + count
        pricing = entry.get("pricing") or {}
        preemptions += pricing.get("preemptions", 0)
        gpus_moved += pricing.get("gpus_moved", 0)
    kinds = "   ".join(f"{k} {n}" for k, n in sorted(by_kind.items()))
    print(f"  actions  {kinds}")
    print(f"  cost     preemptions {preemptions}   "
          f"gpus moved {gpus_moved}")
    last = plans[-1]
    print(f"  last     t={last['now']:,.0f} policy={last['policy']} "
          f"{len(last['actions'])} action(s)")


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def _write_activities(sim, path: str) -> None:
    """Dump the Activity log, one line per event, in the exact format the
    equivalence digest hashes — so `cmp a.log b.log` is the byte-identity
    check.  Written atomically: a kill mid-dump leaves no partial file."""
    with atomic_write(path) as fh:
        for a in sim.activities:
            fh.write(f"{a.time!r}|{a.kind.value}|{a.job_id!r}|{a.detail!r}\n")
    print(f"wrote {len(sim.activities)} activity lines to {path}")


def _print_recovery_summary(sim) -> None:
    registry = sim.obs.registry
    wal = sim.recovery.wal if sim.recovery is not None else None
    print(f"  durable  checkpoints {registry.counter('recovery.checkpoints').value}   "
          f"recoveries {registry.counter('recovery.recoveries').value}   "
          f"wal replayed {registry.counter('recovery.wal_entries_replayed').value}"
          + (f"   wal appended {wal.appended}" if wal is not None else ""))


def _run_interruptible(sim):
    """Run the simulation, stopping gracefully on SIGINT/SIGTERM.

    The first signal stops the engine at the next event boundary — the
    run returns normally with whatever completed, so the caller still
    writes traces and artifacts (atomically, via :mod:`repro.ioutil`)
    instead of dying with a traceback and half a file.  A second signal
    falls back to the default behavior.

    Returns ``(metrics, signum)`` where ``signum`` is None for an
    uninterrupted run.
    """
    import signal

    caught: dict = {}

    def _stop(signum, frame):
        if caught:
            raise KeyboardInterrupt
        caught["signum"] = signum
        sim.engine.stop()

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _stop)
        except ValueError:  # not the main thread (embedded use)
            pass
    try:
        metrics = sim.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return metrics, caught.get("signum")


def cmd_run(args) -> int:
    import signal

    from repro.faults.crash import SimulatedCrash

    setup = _make_setup(args)
    specs = None
    if getattr(args, "replay", None):
        specs = load_workload(
            args.replay, cluster_gpus=args.training_servers * 8
        ).specs
    obs = None
    if getattr(args, "trace", None):
        obs = Observability.enabled()
    sim_overrides = _fault_overrides(args)
    explain = getattr(args, "explain", False)
    if explain:
        sim_overrides["record_plans"] = True
    if args.activities_out:
        sim_overrides["record_activities"] = True
    market = None
    if getattr(args, "clusters", None):
        from repro.market import resolve_market

        try:
            market = resolve_market(args.clusters)
        except (ValueError, OSError) as exc:
            print(f"bad --clusters: {exc}", file=sys.stderr)
            return 2
    sim = build_sim(
        setup, args.scheme, scenario=args.scenario, seed=args.seed,
        scaling_model=args.scaling_model, specs=specs, obs=obs,
        sim_overrides=sim_overrides or None, market=market,
    )
    if args.checkpoint_dir:
        _attach_recovery(sim, args)
    elif args.crash_at is not None:
        print("--crash-at requires --checkpoint-dir (there would be "
              "nothing to recover from)", file=sys.stderr)
        return 2
    try:
        metrics, interrupted = _run_interruptible(sim)
    except SimulatedCrash as exc:
        print(f"simulated crash: {exc}; recover with "
              f"`repro recover {args.checkpoint_dir}`", file=sys.stderr)
        return 3
    has_faults = "fault_plan" in sim_overrides
    snapshot = None
    if market is not None:
        snapshot = sim.pair.market_snapshot()
    if args.json:
        data = _metrics_dict(metrics)
        if has_faults:
            from repro.faults import resilience_snapshot

            data["resilience"] = resilience_snapshot(
                metrics, plan=sim_overrides.get("fault_plan")
            )
        if snapshot is not None:
            data["market"] = snapshot
        if explain:
            data["plans"] = sim.plan_log
        print(json.dumps(data, indent=2,
                         sort_keys="resilience" in data))
    else:
        _print_metrics(args.scheme, metrics)
        if has_faults:
            print(f"  faults   node failures {metrics.node_failures}   "
                  f"preemptions {metrics.preemptions}")
        if snapshot is not None:
            lenders = ", ".join(snapshot["lenders_used"]) or "none"
            print(f"  market   {len(snapshot['inference_clusters'])} lenders"
                  f" x {len(snapshot['training_regions'])} regions   "
                  f"contracts {snapshot['contracts_opened']}   "
                  f"early recalls {snapshot['early_recalls']}   "
                  f"penalties {snapshot['penalties_accrued']}")
            print(f"  lenders  {lenders}")
        if explain:
            _print_plan_summary(sim)
    if obs is not None:
        records = obs.export_trace(args.trace, format=args.trace_format)
        print(f"wrote {records} trace records to {args.trace} "
              f"({args.trace_format}); summarize with "
              f"`repro inspect {args.trace}`")
    if args.activities_out:
        _write_activities(sim, args.activities_out)
    if sim.recovery is not None and not args.json:
        _print_recovery_summary(sim)
    if interrupted is not None:
        name = signal.Signals(interrupted).name
        print(f"interrupted ({name}) at t={sim.now:,.0f}; partial "
              f"artifacts written", file=sys.stderr)
        return 128 + interrupted
    return 0


def cmd_serve(args) -> int:
    """Run the scheduling kernel as a wall-clock daemon.

    Same kernel, same policies, same durability machinery as ``run`` —
    just driven by real time (:class:`repro.serve.WallClockDriver`)
    instead of the simulated-event engine, with jobs arriving over a
    JSONL TCP API instead of from a generated trace.
    """
    import asyncio
    import contextlib
    import signal

    from repro.cluster.cluster import (
        ClusterPair,
        make_inference_cluster,
        make_training_cluster,
    )
    from repro.recovery import WALError
    from repro.serve import SchedulerService

    pair = ClusterPair(
        make_training_cluster(args.training_servers),
        make_inference_cluster(args.inference_servers),
    )
    # a loaning scheme's orchestrator has no utilization trace to offer
    # against here, so it ticks and loans nothing
    policy, config, orchestrator = wire_scheme(
        args.scheme,
        seed=args.seed,
        sim_overrides={"scheduler_interval": args.epoch_interval},
    )
    obs = Observability.enabled() if args.trace else Observability.disabled()
    try:
        service = SchedulerService(
            pair,
            policy,
            config,
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            time_scale=args.time_scale,
            state_dir=args.state_dir,
            snapshot_every_epochs=args.snapshot_every,
            obs=obs,
            orchestrator=orchestrator,
        )
    except WALError as exc:
        # the state directory's request journal is unreadable
        print(f"cannot start: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> int:
        await service.start()
        print(f"repro serve: {args.scheme} listening on "
              f"{service.host}:{service.port} "
              f"(time_scale={args.time_scale:g}"
              + (f", state={args.state_dir}" if args.state_dir else "")
              + ")", flush=True)
        if service.recovered_jobs or service.replayed_requests:
            print(f"repro serve: recovered {service.recovered_jobs} job(s) "
                  f"from snapshot, replayed {service.replayed_requests} "
                  f"journaled request(s)", flush=True)
        loop = asyncio.get_running_loop()
        received: set = set()

        def _on_signal(signum):
            received.add(signum)
            service.shutdown_requested.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, _on_signal, sig)
        server_task = asyncio.ensure_future(service.serve_forever())
        await service.shutdown_requested.wait()
        # SIGTERM is the orderly way down: stop admission, let the
        # cluster empty, then snapshot.  SIGINT (and the shutdown op)
        # stop immediately — the final snapshot plus the request
        # journal make the stop lossless either way.
        if signal.SIGTERM in received and args.drain_timeout > 0:
            print("repro serve: draining ...", flush=True)
            drained = await service.drain(timeout=args.drain_timeout)
            print("repro serve: drain "
                  + ("complete" if drained else "timed out"), flush=True)
        await service.stop()
        server_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await server_task
        if args.trace:
            # after a restart the service's bundle is the restored kernel's
            records = service.obs.export_trace(args.trace, format="jsonl")
            print(f"wrote {records} trace records to {args.trace}",
                  flush=True)
        return 0

    return asyncio.run(_serve())


def _attach_recovery(sim, args):
    from repro.faults.crash import CrashInjector, CrashPoint
    from repro.recovery import RecoveryManager

    crash = None
    if args.crash_at is not None:
        crash = CrashInjector(
            [CrashPoint(args.crash_at, args.crash_barrier)]
        )
    manager = RecoveryManager(
        args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        crash=crash,
    )
    manager.attach(sim)
    return manager


def cmd_recover(args) -> int:
    """Restore a killed run from its checkpoint directory and finish it."""
    from repro.recovery import RecoveryError, RecoveryManager

    try:
        sim = RecoveryManager.recover(args.directory)
    except RecoveryError as exc:
        print(f"cannot recover: {exc}", file=sys.stderr)
        return 2
    metrics = sim.resume()
    if args.json:
        print(json.dumps(_metrics_dict(metrics), indent=2))
    else:
        _print_metrics("recovered", metrics)
        _print_recovery_summary(sim)
    if args.activities_out:
        _write_activities(sim, args.activities_out)
    return 0


def cmd_chaos(args) -> int:
    """Run one scheme under a fault plan and report resilience metrics."""
    from repro.faults import BUILTIN_PLANS, resilience_snapshot, resolve_plan

    if args.list_plans:
        for name, plan in sorted(BUILTIN_PLANS.items()):
            parts = []
            if plan.process:
                parts.append(f"mtbf {plan.process.mtbf / 3600:.0f}h")
            if plan.outages:
                parts.append(f"{len(plan.outages)} outage(s)")
            if plan.stragglers:
                parts.append(f"{len(plan.stragglers)} straggler(s)")
            if plan.flash_crowds:
                parts.append(f"{len(plan.flash_crowds)} flash crowd(s)")
            if plan.predictor_outages or plan.predictor_biases:
                parts.append("predictor faults")
            if plan.launch_failures:
                parts.append(
                    f"launch p={plan.launch_failures.probability:g}"
                )
            if plan.crashes:
                parts.append(f"{len(plan.crashes)} process crash(es)")
            print(f"  {name:<14} {', '.join(parts) or 'no faults'}")
        return 0

    plan = resolve_plan(args.plan)
    if args.failure_seed is not None:
        plan = plan.with_seed(args.failure_seed)
    setup = _make_setup(args)
    obs = Observability.enabled() if args.trace else None
    if plan.crashes:
        sim, metrics = _run_with_crashes(args, setup, plan, obs)
    else:
        sim = None
        metrics = run_scheme(
            setup, args.scheme, scenario=args.scenario, seed=args.seed,
            scaling_model=args.scaling_model,
            sim_overrides={"fault_plan": plan}, obs=obs,
        )
    snap = resilience_snapshot(metrics, plan=plan)
    payload = json.dumps(snap, indent=2, sort_keys=True)
    if args.out:
        atomic_write_text(args.out, payload + "\n")
        print(f"wrote resilience snapshot to {args.out}")
    if args.json:
        print(payload)
    else:
        good = snap["goodput"]
        print(f"[{args.scheme} under plan {plan.name!r} "
              f"(seed {plan.seed})]")
        print(f"  goodput  {good['goodput_fraction']:.4f}   "
              f"useful {good['useful_gpu_hours']:,.1f} GPUh   "
              f"wasted {good['wasted_gpu_hours']:,.1f} GPUh")
        lost = snap["lost_gpu_hours_by_cause"]
        if lost:
            print("  lost GPU-hours by cause: "
                  + "   ".join(f"{c} {h:,.1f}" for c, h in sorted(lost.items())))
        by_cause = snap["preemptions_by_cause"]
        print(f"  events   node failures {snap['node_failures']}   "
              f"no-ops {snap['node_failure_noops']}   preemptions "
              + (", ".join(f"{c}={n}" for c, n in sorted(by_cause.items()))
                 or "0"))
        ttr = snap["time_to_restart_s"]
        if ttr["count"]:
            print(f"  recover  restarts {ttr['count']}   "
                  f"mean {ttr['mean']:,.1f} s   p95 {ttr['p95']:,.1f} s")
        launch = snap["launch"]
        if launch["retries"] or launch["failures"]:
            print(f"  launch   retries {launch['retries']}   "
                  f"exhausted {launch['failures']}")
        if snap["degraded_ticks"]:
            print(f"  loaning  degraded ticks {snap['degraded_ticks']}")
        rec = snap["recovery"]
        if rec["recoveries"] or rec["checkpoints"]:
            ttrr = rec["time_to_recover_s"]
            mean = f"   mean {ttrr['mean'] * 1000:,.1f} ms" \
                if ttrr["count"] else ""
            print(f"  durable  checkpoints {rec['checkpoints']}   "
                  f"recoveries {rec['recoveries']}   "
                  f"wal replayed {rec['wal_entries_replayed']}   "
                  f"snapshot {rec['snapshot_bytes']:,.0f} B{mean}")
        jct = snap["jct"]
        print(f"  jct      mean {jct['mean']:>10,.1f} s   "
              f"p95 {jct['p95']:>10,.1f}   completed {snap['completed']:.3f}"
              f"   audits {snap['audits']}")
    if obs is not None:
        # after a crash-recovery loop the live bundle is the restored
        # sim's, not the one this process originally created
        bundle = sim.obs if sim is not None else obs
        records = bundle.export_trace(args.trace, format=args.trace_format)
        print(f"wrote {records} trace records to {args.trace}")
    return 0


def _run_with_crashes(args, setup, plan, obs):
    """Chaos harness for plans with a process-kill schedule: run under a
    checkpointing RecoveryManager, and on every simulated crash discard
    the dead simulation and recover from disk — in-process, so one chaos
    invocation reports the whole kill-recover-resume story."""
    import shutil
    import tempfile

    from repro.faults.crash import CrashInjector, SimulatedCrash
    from repro.recovery import RecoveryError, RecoveryManager

    workdir = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    injector = CrashInjector(plan.crashes)

    def fresh_sim():
        sim = build_sim(
            setup, args.scheme, scenario=args.scenario, seed=args.seed,
            scaling_model=args.scaling_model,
            sim_overrides={"fault_plan": plan}, obs=obs,
        )
        manager = RecoveryManager(
            workdir, checkpoint_every=args.checkpoint_every, crash=injector
        )
        manager.attach(sim)
        return sim

    sim = fresh_sim()
    resumed = False
    try:
        while True:
            try:
                metrics = sim.resume() if resumed else sim.run()
                return sim, metrics
            except SimulatedCrash as exc:
                print(f"  [chaos] {exc}; recovering "
                      f"({len(injector.remaining())} kill(s) left)")
                try:
                    sim = RecoveryManager.recover(workdir)
                    resumed = True
                except RecoveryError:
                    # died before the first checkpoint: start over (the
                    # WAL survives; the rerun replays it as no-ops)
                    sim = fresh_sim()
                    resumed = False
                else:
                    # the surviving schedule lives in the injector this
                    # process kept; a restored sim has no crash armed
                    sim.recovery.arm_crash(injector)
    finally:
        if not args.checkpoint_dir:
            shutil.rmtree(workdir, ignore_errors=True)


def cmd_whatif(args) -> int:
    """Price a hypothetical reclaim plan mid-run without applying it.

    Runs the scheme up to ``--at`` seconds, asks the orchestrator to
    plan reclaiming ``--demand`` on-loan servers, and dry-runs the plan
    through the executor: the output is what the reclaim *would* cost
    (preemptions, per-server preemption cost, collateral GPUs) with the
    simulation state provably untouched.
    """
    setup = _make_setup(args)
    sim = build_sim(setup, args.scheme, scenario=args.scenario,
                    seed=args.seed)
    if sim.orchestrator is None:
        print(f"scheme {args.scheme!r} has no resource orchestrator; "
              f"pick a loaning scheme (e.g. lyra, lyra_loaning)",
              file=sys.stderr)
        return 2
    sim.run(until=args.at)
    loaned = sim.pair.loaned_count
    before = (
        len(sim.activities), len(sim.running), len(sim.pending),
        loaned, sim.metrics.scale_ops,
    )
    plan = sim.orchestrator.plan_reclaim(sim, args.demand)
    receipt = sim.executor.apply(plan, dry_run=True)
    after = (
        len(sim.activities), len(sim.running), len(sim.pending),
        sim.pair.loaned_count, sim.metrics.scale_ops,
    )
    if before != after:
        raise AssertionError(
            f"dry-run mutated the simulation: {before} -> {after}")
    sim.rm.verify_books()
    sim.view.assert_consistent()
    payload = {
        "at": sim.now,
        "scheme": args.scheme,
        "loaned_servers": loaned,
        "demand": args.demand,
        "plan": plan.to_dict(),
        "pricing": receipt.pricing,
        "state_changed": False,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"[whatif {args.scheme} @ t={sim.now:,.0f}s]  "
          f"{loaned} server(s) on loan, reclaim demand {args.demand}")
    pricing = receipt.pricing
    if not plan.actions:
        print("  plan     empty — nothing on loan to reclaim")
        return 0
    kinds = "   ".join(
        f"{k} {n}" for k, n in sorted(plan.by_kind().items())
    )
    print(f"  plan     {len(plan.actions)} action(s): {kinds}")
    print(f"  cost     preemptions {pricing['preemptions']}   "
          f"preemption cost {pricing['preemption_cost']:.4f}   "
          f"lost {pricing['lost_gpu_hours']:.4f} GPUh")
    print(f"  moves    gpus {pricing['gpus_moved']}   "
          f"servers reclaimed {pricing['servers_reclaimed']}   "
          f"jobs affected {pricing['jobs_affected']}")
    print("  state    unchanged (dry run)")
    return 0


def cmd_check(args) -> int:
    """Conformance-check the schedulers against the correctness oracles.

    Runs ``repro.oracle.run_check``: seeded differential sweeps (greedy
    and optimal reclaim vs an exhaustive job-subset search, the MCKP DP
    vs enumeration, two-phase allocation vs a first-principles
    reference), metamorphic properties (capacity monotonicity,
    permutation invariance, dry-run pricing), and mini-scenario replays
    of every requested scheme on both views.  A divergence prints
    a pointed report with a minimized, runnable repro script and the
    command exits 1.
    """
    from repro.oracle import run_check

    progress = None
    if args.verbose and not args.json:
        progress = lambda msg: print(f"  {msg}")  # noqa: E731
    report = run_check(
        policies=args.policy or None,
        seed=args.seed,
        n=args.n,
        replay=not args.skip_replay,
        progress=progress,
        max_divergences=args.max_divergences,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_compare(args) -> int:
    setup = _make_setup(args)
    results = {}
    for scheme in args.schemes:
        results[scheme] = run_scheme(
            setup, scheme, scenario=args.scenario, seed=args.seed,
            scaling_model=args.scaling_model,
        )
    if args.json:
        print(json.dumps(
            {name: _metrics_dict(m) for name, m in results.items()},
            indent=2,
        ))
        return 0
    print(f"{'scheme':<16}{'q mean':>10}{'q p95':>10}"
          f"{'jct mean':>11}{'jct p95':>11}{'usage':>8}{'preempt':>9}")
    for name, metrics in results.items():
        q = metrics.queuing_summary()
        j = metrics.jct_summary()
        print(f"{name:<16}{q.mean:>10,.0f}{q.p95:>10,.0f}"
              f"{j.mean:>11,.0f}{j.p95:>11,.0f}"
              f"{metrics.overall_usage.mean():>8.2f}"
              f"{metrics.preemption_ratio:>9.3f}")
    if "baseline" in results and len(results) > 1:
        base = results["baseline"]
        for name, metrics in results.items():
            if name == "baseline":
                continue
            print(f"{name} vs baseline: "
                  f"{reduction(base.queuing_summary().mean, metrics.queuing_summary().mean):.2f}x queuing, "
                  f"{reduction(base.jct_summary().mean, metrics.jct_summary().mean):.2f}x JCT")
    return 0


def cmd_trace(args) -> int:
    config = TraceConfig(
        num_jobs=args.jobs,
        days=args.days,
        cluster_gpus=args.training_servers * 8,
        seed=args.seed,
        target_load=args.load,
    )
    workload = generate_workload(config)
    stats = {
        "jobs": len(workload.specs),
        "days": config.days,
        "offered_load": workload.offered_load(),
        "fungible_fraction": workload.fungible_fraction(),
        "elastic_share": workload.elastic_share(),
        "elastic_jobs": sum(1 for s in workload.specs if s.elastic),
    }
    if args.out:
        try:
            save_workload(workload, args.out)
        except ValueError as exc:  # not a .json / .csv path
            print(f"cannot write trace: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(workload.specs)} jobs to {args.out}")
    for key, value in stats.items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float)
              else f"  {key}: {value}")
    return 0


def cmd_report(args) -> int:
    """With a trace file: render the markdown run report.  Without one:
    run the headline schemes and print the shape-verdict report."""
    if getattr(args, "trace_file", None):
        from repro.obs import report_from_file

        try:
            text = report_from_file(args.trace_file)
        except FileNotFoundError:
            print(f"no such trace file: {args.trace_file}", file=sys.stderr)
            return 2
        except TraceFormatError as exc:
            print(f"cannot parse trace: {exc}", file=sys.stderr)
            return 2
        if args.out:
            atomic_write_text(args.out, text)
            print(f"wrote report to {args.out}")
        else:
            print(text, end="")
        return 0
    setup = _make_setup(args)
    results = {
        scheme: run_scheme(setup, scheme, seed=args.seed)
        for scheme in ("baseline", "lyra", "lyra_loaning", "lyra_scaling")
    }
    checks = compare_to_paper(results)
    print(render_report(checks))
    return 0 if all(c.holds for c in checks) else 1


def cmd_why(args) -> int:
    """Narrate the causal chain behind one job's lifecycle."""
    from repro.obs import TimelineStore, render_why

    try:
        store = TimelineStore.from_file(args.trace_file)
    except FileNotFoundError:
        print(f"no such trace file: {args.trace_file}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2
    try:
        story = store.why(args.job_id, at=args.at)
    except KeyError:
        known = sorted(store.jobs)
        hint = (f" (trace covers jobs {known[0]}..{known[-1]})"
                if known else "")
        print(f"job {args.job_id} does not appear in this trace{hint}",
              file=sys.stderr)
        return 2
    print(render_why(args.job_id, story))
    return 0


def cmd_inspect(args) -> int:
    """Summarize an exported event trace, or diff two of them."""
    from repro.obs import diff_traces, load_trace, render_diff

    files = args.trace_file
    try:
        if args.diff:
            if len(files) != 2:
                print("--diff compares exactly two traces",
                      file=sys.stderr)
                return 2
            diff = diff_traces(load_trace(files[0]), load_trace(files[1]))
            print(render_diff(diff, files[0], files[1]))
            return 0 if diff.identical else 1
        if len(files) != 1:
            print("inspect takes one trace (use --diff to compare two)",
                  file=sys.stderr)
            return 2
        print(inspect_trace(files[0], top=args.top))
    except FileNotFoundError as exc:
        print(f"no such trace file: {exc.filename}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"cannot parse trace: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_paper(args) -> int:
    tables = {
        "table5": paper.TABLE5,
        "table7": paper.TABLE7,
        "table8": paper.TABLE8,
        "table9": paper.TABLE9,
        "table10": paper.TABLE10,
        "headlines": paper.HEADLINES,
        "fig1": paper.FIG1,
        "workload": paper.WORKLOAD_STATS,
    }
    data = tables.get(args.table)
    if data is None:
        print(f"unknown table {args.table!r}; choose from "
              f"{sorted(tables)}", file=sys.stderr)
        return 2
    for key, value in data.items():
        print(f"  {key}: {value}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lyra (EuroSys '23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheme")
    _add_setup_args(run_p)
    run_p.add_argument("--scheme", default="lyra", choices=sorted(SCHEMES))
    run_p.add_argument("--scenario", default="basic", choices=SCENARIOS)
    run_p.add_argument("--scaling-model", default="linear",
                       choices=["linear", "sublinear20"])
    run_p.add_argument("--json", action="store_true")
    run_p.add_argument("--explain", action="store_true",
                       help="record every applied decision plan and print "
                            "a summary (with --json, the full plan log "
                            "under \"plans\")")
    run_p.add_argument("--replay",
                       help="replay a saved workload trace (.json/.csv) "
                            "instead of generating one")
    run_p.add_argument("--trace",
                       help="export a structured event trace to this path")
    run_p.add_argument("--trace-format", default="jsonl",
                       choices=["jsonl", "chrome"],
                       help="event-trace format: JSON lines, or Chrome "
                            "trace_event for about://tracing / Perfetto")
    run_p.add_argument("--faults", default=None, metavar="PLAN",
                       help="fault plan: a builtin name (see `repro chaos "
                            "--list-plans`) or a YAML/JSON plan file")
    run_p.add_argument("--clusters", default=None, metavar="SPEC",
                       help="multi-cluster capacity market: 'NxM' (N "
                            "inference lenders in staggered time zones x "
                            "M training regions) or a market-config JSON "
                            "file; the setup's hardware is split across "
                            "the regions and the resource orchestrator "
                            "clears the market each interval ('1x1' "
                            "reproduces the plain pair exactly)")
    _add_fault_args(run_p)
    _add_recovery_args(run_p)
    run_p.add_argument("--crash-at", type=float, default=None,
                       metavar="SECONDS",
                       help="kill the run at the first matching recovery "
                            "barrier at/after this simulated time "
                            "(exit code 3; recover with `repro recover`)")
    run_p.add_argument("--crash-barrier", default="between_events",
                       choices=["between_events", "mid_epoch", "post_wal"],
                       help="barrier class for --crash-at")
    run_p.set_defaults(func=cmd_run)

    recover_p = sub.add_parser(
        "recover",
        help="restore a killed run from its checkpoint directory and "
             "finish it",
    )
    recover_p.add_argument("directory",
                           help="checkpoint directory of the dead run "
                                "(run --checkpoint-dir)")
    recover_p.add_argument("--json", action="store_true")
    recover_p.add_argument("--activities-out", default=None, metavar="FILE",
                           help="write the finished Activity log here "
                                "(byte-comparable to an uninterrupted "
                                "run's)")
    _add_log_arg(recover_p)
    recover_p.set_defaults(func=cmd_recover)

    chaos_p = sub.add_parser(
        "chaos",
        help="run one scheme under a fault plan, report resilience metrics",
    )
    _add_setup_args(chaos_p)
    chaos_p.add_argument("--plan", default="chaos", metavar="PLAN",
                         help="builtin plan name or YAML/JSON plan file "
                              "(default: chaos)")
    chaos_p.add_argument("--list-plans", action="store_true",
                         help="list builtin fault plans and exit")
    chaos_p.add_argument("--scheme", default="lyra",
                         choices=sorted(SCHEMES))
    chaos_p.add_argument("--scenario", default="basic", choices=SCENARIOS)
    chaos_p.add_argument("--scaling-model", default="linear",
                         choices=["linear", "sublinear20"])
    chaos_p.add_argument("--failure-seed", type=int, default=None,
                         help="override the plan's fault-injection seed")
    chaos_p.add_argument("--json", action="store_true",
                         help="print the resilience snapshot as JSON "
                              "(byte-stable for identical seeds)")
    chaos_p.add_argument("--out", help="also write the snapshot JSON here")
    chaos_p.add_argument("--trace",
                         help="export a structured event trace to this path")
    chaos_p.add_argument("--trace-format", default="jsonl",
                         choices=["jsonl", "chrome"])
    chaos_p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="keep the crash harness's snapshots + WAL "
                              "here (default: a temp dir, removed after)")
    chaos_p.add_argument("--checkpoint-every", type=float, default=1800.0,
                         metavar="SECONDS",
                         help="snapshot cadence for plans with process "
                              "crashes (default: 1800)")
    chaos_p.set_defaults(func=cmd_chaos)

    whatif_p = sub.add_parser(
        "whatif",
        help="price a hypothetical reclaim plan mid-run (dry run)",
    )
    _add_setup_args(whatif_p)
    whatif_p.add_argument("--scheme", default="lyra",
                          choices=sorted(SCHEMES))
    whatif_p.add_argument("--scenario", default="basic", choices=SCENARIOS)
    whatif_p.add_argument("--at", type=float, default=21600.0,
                          metavar="SECONDS",
                          help="simulation time at which to pose the "
                               "what-if (default: 6h in)")
    whatif_p.add_argument("--demand", type=int, default=2,
                          help="on-loan servers the inference side "
                               "hypothetically asks back")
    whatif_p.add_argument("--json", action="store_true")
    whatif_p.set_defaults(func=cmd_whatif)

    check_p = sub.add_parser(
        "check",
        help="conformance-check schedulers against the correctness oracles",
    )
    check_p.add_argument("--policy", action="append",
                         choices=sorted(SCHEMES), metavar="SCHEME",
                         help="scheme to replay on both views "
                              "(repeatable; default: every registered "
                              "scheme)")
    check_p.add_argument("--seed", type=int, default=0,
                         help="base seed; different seeds explore disjoint "
                              "instance streams")
    check_p.add_argument("--n", type=int, default=50,
                         help="instances per differential check (replay "
                              "and pricing counts scale down from it)")
    check_p.add_argument("--skip-replay", action="store_true",
                         help="skip the mini-scenario replays (instance "
                              "sweeps and metamorphic checks only)")
    check_p.add_argument("--max-divergences", type=int, default=1,
                         help="stop after this many divergences")
    check_p.add_argument("--json", action="store_true")
    check_p.add_argument("--verbose", action="store_true",
                         help="print per-stage progress lines")
    _add_log_arg(check_p)
    check_p.set_defaults(func=cmd_check)

    cmp_p = sub.add_parser("compare", help="run several schemes")
    _add_setup_args(cmp_p)
    cmp_p.add_argument("--schemes", nargs="+",
                       default=["baseline", "lyra"],
                       choices=sorted(SCHEMES))
    cmp_p.add_argument("--scenario", default="basic", choices=SCENARIOS)
    cmp_p.add_argument("--scaling-model", default="linear",
                       choices=["linear", "sublinear20"])
    cmp_p.add_argument("--json", action="store_true")
    cmp_p.set_defaults(func=cmd_compare)

    trace_p = sub.add_parser("trace", help="generate/describe a trace")
    _add_setup_args(trace_p)
    trace_p.add_argument("--out",
                         help="write the trace (.json/.csv) for run --replay")
    trace_p.set_defaults(func=cmd_trace)

    report_p = sub.add_parser(
        "report",
        help="markdown run report from a trace; without a trace, run the "
             "headline schemes and check shapes vs paper",
    )
    report_p.add_argument("trace_file", nargs="?", default=None,
                          help="trace written by run --trace; renders the "
                               "deterministic markdown run report")
    report_p.add_argument("--out", default=None,
                          help="write the markdown report to this path "
                               "instead of stdout")
    _add_setup_args(report_p)
    report_p.set_defaults(func=cmd_report)

    why_p = sub.add_parser(
        "why",
        help="narrate the causal chain behind a job's lifecycle",
    )
    why_p.add_argument("trace_file", help="trace written by run --trace")
    why_p.add_argument("job_id", type=int, help="job to explain")
    why_p.add_argument("--at", type=float, default=None, metavar="SECONDS",
                       help="explain only the state in effect at this "
                            "simulated time")
    _add_log_arg(why_p)
    why_p.set_defaults(func=cmd_why)

    inspect_p = sub.add_parser(
        "inspect", help="summarize an exported event trace"
    )
    inspect_p.add_argument("trace_file", nargs="+",
                           help="trace written by run --trace "
                                "(two traces with --diff)")
    inspect_p.add_argument("--diff", action="store_true",
                           help="compare two traces: first event-stream "
                                "divergence plus metric deltas "
                                "(exit 1 when they differ)")
    inspect_p.add_argument("--top", type=int, default=5,
                           help="how many worst-preempted jobs to list")
    _add_log_arg(inspect_p)
    inspect_p.set_defaults(func=cmd_inspect)

    serve_p = sub.add_parser(
        "serve",
        help="run the scheduler as a wall-clock daemon (JSONL TCP API)",
    )
    serve_p.add_argument("--scheme", default="lyra", choices=sorted(SCHEMES))
    serve_p.add_argument("--training-servers", type=int, default=24)
    serve_p.add_argument("--inference-servers", type=int, default=30)
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=7463,
                         help="TCP port to listen on (0 picks a free "
                              "port, printed on startup)")
    serve_p.add_argument("--epoch-interval", type=float, default=0.2,
                         metavar="SECONDS",
                         help="scheduling-epoch batching window in kernel "
                              "seconds; requests landing within one "
                              "window are planned in one epoch (wall "
                              "window = this / --time-scale)")
    serve_p.add_argument("--time-scale", type=float, default=1.0,
                         help="kernel seconds per wall second; 60 runs "
                              "a day of kernel time in 24 minutes "
                              "(demos, load tests)")
    serve_p.add_argument("--max-pending", type=int, default=10_000,
                         help="admission control: submits beyond this "
                              "many pending jobs are rejected with "
                              "queue_full")
    serve_p.add_argument("--state-dir", default=None, metavar="DIR",
                         help="durable state directory (request journal, "
                              "kernel snapshots, plan WAL); restarting "
                              "on the same directory recovers every "
                              "acked job")
    serve_p.add_argument("--snapshot-every", type=int, default=1,
                         metavar="EPOCHS",
                         help="snapshot the kernel every N scheduling "
                              "epochs (with --state-dir)")
    serve_p.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="on SIGTERM, stop admission and wait up to "
                              "this long for the cluster to empty before "
                              "the final snapshot (0 skips the drain)")
    serve_p.add_argument("--trace",
                         help="export a structured event trace here on "
                              "shutdown")
    _add_log_arg(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    paper_p = sub.add_parser("paper", help="show the paper's numbers")
    paper_p.add_argument("table", help="table5|table7|table8|table9|"
                                       "table10|headlines|fig1|workload")
    paper_p.set_defaults(func=cmd_paper)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
