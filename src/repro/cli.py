"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one scheme on a generated trace and print metrics
  (``--trace out.jsonl`` additionally exports a structured event trace;
  ``--faults PLAN`` injects a fault plan, process kills included;
  ``--node-mtbf``/``--node-repair-time``/``--failure-seed`` are
  shorthand for a plan holding one Poisson node-failure process).
* ``serve``    — run the same scheduling kernel as a wall-clock asyncio
  daemon: jobs arrive over a JSONL TCP API (submit/query/cancel/scale,
  streaming event feed), requests batch into scheduling epochs, and
  ``--state-dir`` adds journal+snapshot+WAL durability so a killed
  daemon restarts without losing an acked job (see docs/SERVING.md).
* ``chaos``    — run one scheme under a named or file-based fault plan
  (read exactly as ``run --faults`` reads it) and print the resilience
  snapshot (goodput, lost GPU-hours by cause, time-to-recover).
  Seeded: identical arguments give byte-identical ``--json`` output.
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
from repro.obs import Observability
from repro.obs.inspect import TraceFormatError
from repro.obs.log import configure_logging
from repro.scenarios import (
    SCENARIOS,
    SCHEMES,
    build_sim,
    default_setup,
    wire_scheme,
)
from repro.simulator.metrics import SimulationMetrics, reduction
from repro.traces.io import load_workload, save_workload
from repro.traces.workload import TraceConfig, generate_workload


class _Refused(Exception):
    """A command refuses its arguments: :func:`main` prints the reason to
    stderr and exits 2."""


def _fault_overrides(args) -> dict:
    """SimulationConfig overrides from the fault flags: ``--faults`` and
    ``--plan`` name the same thing, ``--node-mtbf`` is shorthand for a
    plan of one node-failure process."""
    opt = vars(args).get
    plan_spec = opt("faults") or opt("plan")
    if plan_spec:
        from repro.faults.plan import resolve_plan

        plan = resolve_plan(plan_spec)
        if args.failure_seed is not None:
            plan = plan.with_seed(args.failure_seed)
        return {"fault_plan": plan}
    if opt("node_mtbf"):
        from repro.faults.plan import FaultPlan, NodeFailureProcess

        return {"fault_plan": FaultPlan(
            name="node-mtbf",
            seed=args.failure_seed or 0,
            process=NodeFailureProcess(
                mtbf=args.node_mtbf, repair_time=args.node_repair_time
            ),
        )}
    return {}


def _make_setup(args):
    return default_setup(
        num_jobs=args.jobs,
        days=args.days,
        training_servers=args.training_servers,
        inference_servers=args.inference_servers,
        seed=args.seed,
        target_load=args.load,
    )


def _simulate(args, scheme: Optional[str] = None, setup=None,
              until: Optional[float] = None):
    """The one path from parsed arguments to a finished simulation.

    Builds ``scheme`` (default ``--scheme``) on ``setup`` (default: the
    one the setup flags describe) under the fault plan the fault flags
    resolve to, and runs it to ``until`` (default: the end).  A
    subcommand runs with the default of every option it does not take.
    Returns ``(sim, metrics)``.

    ``--checkpoint-dir`` attaches a checkpointing
    :class:`~repro.recovery.manager.RecoveryManager`.  A plan that kills
    the process gets one either way (in a temporary directory, removed
    after): each kill discards the dead simulation and recovers from
    disk in-process, with the kill logged to stderr, so the simulation
    returned is the one that finished.  A ``--crash-at`` kill is not
    recovered — its ``SimulatedCrash`` propagates.

    The first SIGINT/SIGTERM stops the run at the next event boundary;
    the run returns normally with whatever completed (so the caller
    still writes its artifacts) and the signal is left in
    ``args.interrupted`` for :func:`main` to report.  A second signal
    falls back to the default behavior.
    """
    import shutil
    import signal
    import tempfile

    opt = vars(args).get
    if setup is None:
        setup = _make_setup(args)
    specs = None
    if opt("replay"):
        specs = load_workload(
            args.replay, cluster_gpus=args.training_servers * 8
        ).specs
    overrides = _fault_overrides(args)
    plan = overrides.get("fault_plan")
    kills = plan.crashes if plan is not None else ()
    if opt("explain"):
        overrides["record_plans"] = True
    if opt("activities_out"):
        overrides["record_activities"] = True
    market = None
    if opt("clusters"):
        from repro.market import resolve_market

        try:
            market = resolve_market(args.clusters)
        except (ValueError, OSError) as exc:
            raise _Refused(f"bad --clusters: {exc}")
    crash_at = opt("crash_at")
    if crash_at is not None and not args.checkpoint_dir:
        raise _Refused("--crash-at requires --checkpoint-dir (there would "
                       "be nothing to recover from)")
    if crash_at is not None and kills:
        raise _Refused(f"--crash-at cannot be combined with plan "
                       f"{plan.name!r}, whose own process kills are "
                       f"recovered in-process")
    injector = None
    recoverable = ()  # catches nothing: a --crash-at kill propagates
    if kills or crash_at is not None:
        from repro.faults.crash import (
            CrashInjector,
            CrashPoint,
            SimulatedCrash,
        )

        injector = CrashInjector(
            kills or [CrashPoint(crash_at, args.crash_barrier)]
        )
        if kills:
            recoverable = SimulatedCrash
    workdir = opt("checkpoint_dir")
    if kills and not workdir:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    if workdir:
        from repro.recovery.manager import RecoveryError, RecoveryManager
    obs = Observability.enabled() if opt("trace") else None

    def fresh_sim():
        built = build_sim(
            setup, scheme or args.scheme, scenario=opt("scenario", "basic"),
            seed=args.seed, scaling_model=opt("scaling_model", "linear"),
            specs=specs, obs=obs, sim_overrides=overrides, market=market,
        )
        if workdir:
            RecoveryManager(
                workdir, checkpoint_every=args.checkpoint_every,
                crash=injector,
            ).attach(built)
        return built

    caught: dict = {}

    def stop(signum, frame):
        if caught:
            raise KeyboardInterrupt
        caught["signum"] = signum
        sim.engine.stop()

    previous = {}
    resumed = False
    try:
        sim = fresh_sim()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, stop)
            except ValueError:  # not the main thread (embedded use)
                pass
        while True:
            try:
                metrics = sim.resume() if resumed else sim.run(until)
                break
            except recoverable as exc:
                print(f"  [chaos] {exc}; recovering "
                      f"({len(injector.remaining())} kill(s) left)",
                      file=sys.stderr)
                try:
                    sim, resumed = RecoveryManager.recover(workdir), True
                except RecoveryError:
                    # died before the first checkpoint: start over (the
                    # WAL survives; the rerun replays it as no-ops)
                    sim, resumed = fresh_sim(), False
                else:
                    # the surviving schedule lives in the injector this
                    # process kept; a restored sim has no crash armed
                    sim.recovery.arm_crash(injector)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if workdir != opt("checkpoint_dir"):
            shutil.rmtree(workdir, ignore_errors=True)
    if caught:
        args.interrupted = (caught["signum"], sim.now)
    return sim, metrics


def _load_traces(paths):
    """Load exported event traces; a missing or unparseable file refuses
    the command."""
    from repro.obs.inspect import load_trace

    try:
        return [load_trace(path) for path in paths]
    except FileNotFoundError as exc:
        raise _Refused(f"no such trace file: {exc.filename}")
    except TraceFormatError as exc:
        raise _Refused(f"cannot parse trace: {exc}")


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


def cmd_run(args) -> int:
    from repro.faults.crash import SimulatedCrash

    try:
        sim, metrics = _simulate(args)
    except SimulatedCrash as exc:
        print(f"simulated crash: {exc}; recover with "
              f"`repro recover {args.checkpoint_dir}`", file=sys.stderr)
        return 3
    plan = sim.config.fault_plan
    snapshot = sim.pair.market_snapshot() if args.clusters else None
    if args.json:
        data = _metrics_dict(metrics)
        if plan is not None:
            from repro.faults.metrics import resilience_snapshot

            data["resilience"] = resilience_snapshot(metrics, plan=plan)
        if snapshot is not None:
            data["market"] = snapshot
        if args.explain:
            data["plans"] = sim.plan_log
        print(json.dumps(data, indent=2,
                         sort_keys="resilience" in data))
    else:
        _print_metrics(args.scheme, metrics)
        if plan is not None:
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
        if args.explain:
            _print_plan_summary(sim)
    if args.trace:
        records = sim.obs.export_trace(args.trace, format=args.trace_format)
        print(f"wrote {records} trace records to {args.trace} "
              f"({args.trace_format}); summarize with "
              f"`repro inspect {args.trace}`")
    if args.activities_out:
        _write_activities(sim, args.activities_out)
    if sim.recovery is not None and not args.json:
        _print_recovery_summary(sim)
    return 0


def cmd_serve(args) -> int:
    """Run the scheduling kernel as a wall-clock daemon.

    Same kernel, same policies, same durability machinery as ``run`` —
    just driven by real time (:class:`repro.serve.driver.WallClockDriver`)
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
    from repro.recovery.wal import WALError
    from repro.serve.service import SchedulerService

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
    except ValueError as exc:
        raise _Refused(f"bad --snapshot-every: {exc}")
    except WALError as exc:
        # the state directory's request journal is unreadable
        raise _Refused(f"cannot start: {exc}")

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


def cmd_recover(args) -> int:
    """Restore a killed run from its checkpoint directory and finish it."""
    from repro.recovery.manager import RecoveryError, RecoveryManager

    try:
        sim = RecoveryManager.recover(args.directory)
    except RecoveryError as exc:
        raise _Refused(f"cannot recover: {exc}")
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
    from repro.faults.metrics import resilience_snapshot
    from repro.faults.plan import BUILTIN_PLANS

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

    sim, metrics = _simulate(args)
    plan = sim.config.fault_plan
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
    if args.trace:
        records = sim.obs.export_trace(args.trace, format=args.trace_format)
        print(f"wrote {records} trace records to {args.trace}")
    return 0


def cmd_whatif(args) -> int:
    """Price a hypothetical reclaim plan mid-run without applying it.

    Runs the scheme up to ``--at`` seconds, asks the orchestrator to
    plan reclaiming ``--demand`` on-loan servers, and dry-runs the plan
    through the executor: the output is what the reclaim *would* cost
    (preemptions, per-server preemption cost, collateral GPUs) with the
    simulation state provably untouched.
    """
    if wire_scheme(args.scheme)[2] is None:
        raise _Refused(f"scheme {args.scheme!r} has no resource "
                       f"orchestrator; pick a loaning scheme (e.g. lyra, "
                       f"lyra_loaning)")
    sim, _ = _simulate(args, until=args.at)
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

    Runs ``repro.oracle.conformance.run_check``: seeded differential
    sweeps (greedy and optimal reclaim vs an exhaustive job-subset
    search, the MCKP DP vs enumeration, two-phase allocation vs a
    first-principles reference), metamorphic properties (capacity
    monotonicity, permutation invariance, dry-run pricing), and
    mini-scenario replays of every requested scheme on both views.  A
    divergence prints a pointed report with a minimized, runnable repro
    script and the command exits 1.
    """
    from repro.oracle.conformance import run_check

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
    results = {
        scheme: _simulate(args, scheme, setup)[1] for scheme in args.schemes
    }
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
            raise _Refused(f"cannot write trace: {exc}")
        print(f"wrote {len(workload.specs)} jobs to {args.out}")
    for key, value in stats.items():
        print(f"  {key}: {value:.3f}" if isinstance(value, float)
              else f"  {key}: {value}")
    return 0


def cmd_report(args) -> int:
    """With a trace file: render the markdown run report.  Without one:
    run the headline schemes and print the shape-verdict report."""
    if args.trace_file:
        from repro.obs.report import build_report

        text = build_report(*_load_traces([args.trace_file]))
        if args.out:
            atomic_write_text(args.out, text)
            print(f"wrote report to {args.out}")
        else:
            print(text, end="")
        return 0
    setup = _make_setup(args)
    results = {
        scheme: _simulate(args, scheme, setup)[1]
        for scheme in ("baseline", "lyra", "lyra_loaning", "lyra_scaling")
    }
    checks = compare_to_paper(results)
    print(render_report(checks))
    return 0 if all(c.holds for c in checks) else 1


def cmd_why(args) -> int:
    """Narrate the causal chain behind one job's lifecycle."""
    from repro.obs.timeline import TimelineStore, render_why

    store = TimelineStore.from_trace(*_load_traces([args.trace_file]))
    try:
        story = store.why(args.job_id, at=args.at)
    except KeyError:
        known = sorted(store.jobs)
        hint = (f" (trace covers jobs {known[0]}..{known[-1]})"
                if known else "")
        raise _Refused(f"job {args.job_id} does not appear in this "
                       f"trace{hint}")
    print(render_why(args.job_id, story))
    return 0


def cmd_inspect(args) -> int:
    """Summarize an exported event trace, or diff two of them."""
    from repro.obs.inspect import (
        diff_traces,
        render_diff,
        render_summary,
        summarize,
    )

    files = args.trace_file
    if args.diff and len(files) != 2:
        raise _Refused("--diff compares exactly two traces")
    if not args.diff and len(files) != 1:
        raise _Refused("inspect takes one trace (use --diff to compare two)")
    traces = _load_traces(files)
    if args.diff:
        diff = diff_traces(*traces)
        print(render_diff(diff, *files))
        return 0 if diff.identical else 1
    print(render_summary(summarize(traces[0]), top=args.top))
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
        raise _Refused(f"unknown table {args.table!r}; choose from "
                       f"{sorted(tables)}")
    for key, value in data.items():
        print(f"  {key}: {value}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
#: Every option, declared once; a subcommand names the ones it takes, so
#: a flag several subcommands share has one default, type, choices and
#: help.  ``--out``, ``--at`` and ``check --seed`` mean something
#: different per subcommand and are declared where they are used.
_OPTIONS = {
    # the generated setup
    "--jobs": dict(type=int, default=600, help="number of jobs to generate"),
    "--days": dict(type=float, default=2.0, help="trace span in days"),
    "--training-servers": dict(type=int, default=24),
    "--inference-servers": dict(type=int, default=30),
    "--seed": dict(type=int, default=0),
    "--load": dict(type=float, default=1.0,
                   help="offered load relative to cluster capacity"),
    "--log-level": dict(
        default=None, choices=["debug", "info", "warning", "error"],
        help="enable library logging at this level (silent by default)"),
    # the simulation
    "--scheme": dict(default="lyra", choices=sorted(SCHEMES)),
    "--schemes": dict(nargs="+", default=["baseline", "lyra"],
                      choices=sorted(SCHEMES)),
    "--scenario": dict(default="basic", choices=SCENARIOS),
    "--scaling-model": dict(default="linear",
                            choices=["linear", "sublinear20"]),
    "--replay": dict(help="replay a saved workload trace (.json/.csv) "
                          "instead of generating one"),
    "--clusters": dict(
        default=None, metavar="SPEC",
        help="multi-cluster capacity market: 'NxM' (N inference lenders "
             "in staggered time zones x M training regions) or a "
             "market-config JSON file; the setup's hardware is split "
             "across the regions and the resource orchestrator clears "
             "the market each interval ('1x1' reproduces the plain pair "
             "exactly)"),
    # faults
    "--faults": dict(
        default=None, metavar="PLAN",
        help="fault plan: a builtin name (see `repro chaos --list-plans`) "
             "or a YAML/JSON plan file; its process kills are recovered "
             "in-process"),
    "--plan": dict(default="chaos", metavar="PLAN",
                   help="builtin plan name or YAML/JSON plan file "
                        "(default: chaos)"),
    "--list-plans": dict(action="store_true",
                         help="list builtin fault plans and exit"),
    "--node-mtbf": dict(
        type=float, default=None, metavar="SECONDS",
        help="per-node mean time between failures; arms a Poisson "
             "node-failure process (off by default)"),
    "--node-repair-time": dict(
        type=float, default=3600.0, metavar="SECONDS",
        help="how long a failed node stays down before recovering"),
    "--failure-seed": dict(
        type=int, default=None,
        help="RNG seed for fault injection; defaults to the plan's own "
             "seed (or 0 for --node-mtbf)"),
    # durability
    "--checkpoint-dir": dict(
        default=None, metavar="DIR",
        help="durable-state directory (snapshots + WAL); enables "
             "checkpointing (a plan that kills the process otherwise "
             "checkpoints to a temporary directory, removed after)"),
    "--checkpoint-every": dict(
        type=float, default=1800.0, metavar="SECONDS",
        help="simulated seconds between snapshots (default: 1800)"),
    "--crash-at": dict(
        type=float, default=None, metavar="SECONDS",
        help="kill the run at the first matching recovery barrier at/after "
             "this simulated time (exit code 3; recover with `repro "
             "recover`)"),
    "--crash-barrier": dict(
        default="between_events",
        choices=["between_events", "mid_epoch", "post_wal"],
        help="barrier class for --crash-at"),
    # output
    "--json": dict(action="store_true",
                   help="print the result as JSON instead of text"),
    "--explain": dict(
        action="store_true",
        help="record every applied decision plan and print a summary "
             "(with --json, the full plan log under \"plans\")"),
    "--trace": dict(help="export a structured event trace to this path "
                         "(serve: on shutdown)"),
    "--trace-format": dict(
        default="jsonl", choices=["jsonl", "chrome"],
        help="event-trace format: JSON lines, or Chrome trace_event for "
             "about://tracing / Perfetto"),
    "--activities-out": dict(
        default=None, metavar="FILE",
        help="write the finished run's Activity log here, one line per "
             "event, for byte-comparison across runs"),
    # whatif
    "--demand": dict(type=int, default=2,
                     help="on-loan servers the inference side "
                          "hypothetically asks back"),
    # check
    "--policy": dict(action="append", choices=sorted(SCHEMES),
                     metavar="SCHEME",
                     help="scheme to replay on both views (repeatable; "
                          "default: every registered scheme)"),
    "--n": dict(type=int, default=50,
                help="instances per differential check (replay and "
                     "pricing counts scale down from it)"),
    "--skip-replay": dict(action="store_true",
                          help="skip the mini-scenario replays (instance "
                               "sweeps and metamorphic checks only)"),
    "--max-divergences": dict(type=int, default=1,
                              help="stop after this many divergences"),
    "--verbose": dict(action="store_true",
                      help="print per-stage progress lines"),
    # inspect
    "--diff": dict(action="store_true",
                   help="compare two traces: first event-stream divergence "
                        "plus metric deltas (exit 1 when they differ)"),
    "--top": dict(type=int, default=5,
                  help="how many worst-preempted jobs to list"),
    # serve
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=int, default=7463,
                   help="TCP port to listen on (0 picks a free port, "
                        "printed on startup)"),
    "--epoch-interval": dict(
        type=float, default=0.2, metavar="SECONDS",
        help="scheduling-epoch batching window in kernel seconds; "
             "requests landing within one window are planned in one "
             "epoch (wall window = this / --time-scale)"),
    "--time-scale": dict(type=float, default=1.0,
                         help="kernel seconds per wall second; 60 runs a "
                              "day of kernel time in 24 minutes (demos, "
                              "load tests)"),
    "--max-pending": dict(type=int, default=10_000,
                          help="admission control: submits beyond this "
                               "many pending jobs are rejected with "
                               "queue_full"),
    "--state-dir": dict(
        default=None, metavar="DIR",
        help="durable state directory (request journal, kernel snapshots, "
             "plan WAL); restarting on the same directory recovers every "
             "acked job"),
    "--snapshot-every": dict(type=int, default=1, metavar="EPOCHS",
                             help="snapshot the kernel every N >= 1 "
                                  "scheduling epochs (with --state-dir)"),
    "--drain-timeout": dict(
        type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, stop admission and wait up to this long for the "
             "cluster to empty before the final snapshot (0 skips the "
             "drain)"),
}

_SETUP = ("--jobs", "--days", "--training-servers", "--inference-servers",
          "--seed", "--load", "--log-level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lyra (EuroSys '23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *options):
        cmd = sub.add_parser(name, help=help)
        for option in options:
            cmd.add_argument(option, **_OPTIONS[option])
        cmd.set_defaults(func=func)
        return cmd

    command("run", cmd_run, "run one scheme", *_SETUP, "--scheme",
            "--scenario", "--scaling-model", "--json", "--explain",
            "--replay", "--trace", "--trace-format", "--faults",
            "--clusters", "--node-mtbf", "--node-repair-time",
            "--failure-seed", "--checkpoint-dir", "--checkpoint-every",
            "--activities-out", "--crash-at", "--crash-barrier")
    command("recover", cmd_recover,
            "restore a killed run from its checkpoint directory and "
            "finish it", "--json", "--activities-out", "--log-level",
            ).add_argument("directory",
                           help="checkpoint directory of the dead run "
                                "(run --checkpoint-dir)")
    command("chaos", cmd_chaos,
            "run one scheme under a fault plan, report resilience metrics",
            *_SETUP, "--plan", "--list-plans", "--scheme", "--scenario",
            "--scaling-model", "--failure-seed", "--json", "--trace",
            "--trace-format", "--checkpoint-dir", "--checkpoint-every",
            ).add_argument("--out", help="also write the snapshot JSON here")
    command("whatif", cmd_whatif,
            "price a hypothetical reclaim plan mid-run (dry run)",
            *_SETUP, "--scheme", "--scenario", "--demand", "--json",
            ).add_argument("--at", type=float, default=21600.0,
                           metavar="SECONDS",
                           help="simulation time at which to pose the "
                                "what-if (default: 6h in)")
    command("check", cmd_check,
            "conformance-check schedulers against the correctness oracles",
            "--policy", "--n", "--skip-replay", "--max-divergences",
            "--json", "--verbose", "--log-level",
            ).add_argument("--seed", type=int, default=0,
                           help="base seed; different seeds explore "
                                "disjoint instance streams")
    command("compare", cmd_compare, "run several schemes", *_SETUP,
            "--schemes", "--scenario", "--scaling-model", "--json")
    command("trace", cmd_trace, "generate/describe a trace", *_SETUP,
            ).add_argument("--out", help="write the trace (.json/.csv) for "
                                         "run --replay")
    report = command(
        "report", cmd_report,
        "markdown run report from a trace; without a trace, run the "
        "headline schemes and check shapes vs paper", *_SETUP)
    report.add_argument("trace_file", nargs="?", default=None,
                        help="trace written by run --trace; renders the "
                             "deterministic markdown run report")
    report.add_argument("--out", default=None,
                        help="write the markdown report to this path "
                             "instead of stdout")
    why = command("why", cmd_why,
                  "narrate the causal chain behind a job's lifecycle",
                  "--log-level")
    why.add_argument("trace_file", help="trace written by run --trace")
    why.add_argument("job_id", type=int, help="job to explain")
    why.add_argument("--at", type=float, default=None, metavar="SECONDS",
                     help="explain only the state in effect at this "
                          "simulated time")
    command("inspect", cmd_inspect, "summarize an exported event trace",
            "--diff", "--top", "--log-level",
            ).add_argument("trace_file", nargs="+",
                           help="trace written by run --trace (two traces "
                                "with --diff)")
    command("serve", cmd_serve,
            "run the scheduler as a wall-clock daemon (JSONL TCP API)",
            "--scheme", "--training-servers", "--inference-servers",
            "--seed", "--host", "--port", "--epoch-interval",
            "--time-scale", "--max-pending", "--state-dir",
            "--snapshot-every", "--drain-timeout", "--trace", "--log-level")
    command("paper", cmd_paper, "show the paper's numbers").add_argument(
        "table",
        help="table5|table7|table8|table9|table10|headlines|fig1|workload")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    try:
        rc = args.func(args)
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    interrupted = getattr(args, "interrupted", None)
    if interrupted is not None:
        import signal

        signum, now = interrupted
        print(f"interrupted ({signal.Signals(signum).name}) at t={now:,.0f}; "
              f"partial artifacts written", file=sys.stderr)
        return 128 + signum
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
