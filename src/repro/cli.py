"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``      — run one scheme on a generated trace and print metrics
  (``--trace out.jsonl`` additionally exports a structured event trace;
  ``--faults PLAN`` injects a builtin or file-based fault plan, process
  kills included, and adds the resilience snapshot: goodput, lost
  GPU-hours by cause, time-to-recover).
* ``serve``    — run the same scheduling kernel as a wall-clock asyncio
  daemon: jobs arrive over a JSONL TCP API (submit/query/cancel/scale,
  streaming event feed), requests batch into scheduling epochs, and
  ``--state-dir`` adds journal+snapshot+WAL durability so a killed
  daemon restarts without losing an acked job (see docs/SERVING.md).
* ``whatif``   — run a loaning scheme up to a point in time, then price
  a hypothetical reclaim plan (preemptions, lost GPU-hours, per-server
  preemption cost) as a dry run that provably leaves the simulation
  untouched.
* ``check``    — conformance-check the schedulers against the
  correctness oracles (``repro.oracle``): differential sweeps against
  brute-force references, metamorphic properties, and mini-scenario
  replays through every registered scheduler on both views.  Exits
  non-zero on the first divergence, printing a minimized repro script.
* ``compare``  — run several schemes on the same trace, print a table;
  with ``baseline`` and a headline scheme (Lyra, loaning-only,
  scaling-only) on the basic scenario, also check their shapes against
  the paper (exit 1 when a claim does not hold).
* ``trace``    — generate a synthetic trace and describe (or export) it.
* ``inspect``  — compare two exported event traces: the first event
  where they diverge plus the metric deltas (exit 1 when they differ).
* ``why``      — narrate the causal chain behind a job's lifecycle from
  an exported trace: which plan dispatched/preempted it, what triggered
  that epoch, which fault was behind it.
* ``report``   — render an exported trace as the markdown run report;
  all but its last section, the per-phase wall-clock timing, is the
  same for two same-seed runs.
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
from repro.obs.provenance import PROVENANCE_EVENT
from repro.scenarios import (
    SCENARIOS,
    SCHEMES,
    build_sim,
    default_setup,
    wire_scheme,
)
from repro.simulator.metrics import SimulationMetrics, ratio_text, reduction
from repro.traces.io import load_workload, save_workload
from repro.traces.workload import TraceConfig, generate_workload


class _Refused(Exception):
    """A command refuses its arguments: :func:`main` prints the reason to
    stderr and exits 2."""


def _fault_overrides(args) -> dict:
    """SimulationConfig overrides from ``--faults`` (a builtin plan name
    or a YAML/JSON plan file) and ``--failure-seed``, which reseeds it."""
    spec, seed = vars(args).get("faults"), vars(args).get("failure_seed")
    if not spec:
        if seed is not None:
            raise _Refused("--failure-seed reseeds a plan; name one with "
                           "--faults")
        return {}
    from repro.faults.plan import resolve_plan

    try:
        plan = resolve_plan(spec)
    except (ValueError, TypeError, OSError) as exc:
        raise _Refused(f"bad --faults: {exc}")
    return {"fault_plan": plan if seed is None else plan.with_seed(seed)}


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
    one the setup flags describe) under the fault plan ``--faults``
    resolves to, and runs it to ``until`` (default: the end).  A
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
    overrides = _fault_overrides(args)
    if setup is None:
        setup = _make_setup(args)
    specs = None
    if opt("replay"):
        try:
            specs = load_workload(
                args.replay, cluster_gpus=args.training_servers * 8
            ).specs
        except (OSError, ValueError) as exc:
            raise _Refused(f"bad --replay: {exc}")
    plan = overrides.get("fault_plan")
    kills = plan.crashes if plan is not None else ()
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
    # --explain prints the decision ledger, which only a traced run keeps
    obs = Observability.enabled() if opt("trace") or opt("explain") else None

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


def _load_store(path):
    """The one index ``why`` and ``report`` read."""
    from repro.obs.timeline import TimelineStore

    return TimelineStore.from_trace(*_load_traces([path]))


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


def _ledger(sim) -> list:
    """The ``plan.provenance`` records of a traced run, in commit order:
    one per committed non-empty plan."""
    return [e.args for e in sim.tracer.events if e.name == PROVENANCE_EVENT]


def _print_plan_summary(sim) -> None:
    """Summarize the decision ledger of a finished run."""
    plans = _ledger(sim)
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
    """Dump the Activity log, one `Activity.line` per event (what the
    equivalence digest hashes), so `cmp a.log b.log` is the byte-identity
    check.  Written atomically: a kill mid-dump leaves no partial file."""
    with atomic_write(path) as fh:
        for a in sim.activities:
            fh.write(a.line())
    print(f"wrote {len(sim.activities)} activity lines to {path}")


def _print_resilience(snap: dict) -> None:
    """The resilience snapshot of a fault-injected run, in text (its
    durable-state counters are :func:`_print_recovery_summary`'s)."""
    good = snap["goodput"]
    print(f"  goodput  {good['goodput_fraction']:.4f}   "
          f"useful {good['useful_gpu_hours']:,.1f} GPUh   "
          f"wasted {good['wasted_gpu_hours']:,.1f} GPUh")
    lost = snap["lost_gpu_hours_by_cause"]
    if lost:
        print("  lost GPU-hours by cause: "
              + "   ".join(f"{c} {h:,.1f}" for c, h in sorted(lost.items())))
    by_cause = snap["preemptions_by_cause"]
    print(f"  faults   node failures {snap['node_failures']}   "
          f"no-ops {snap['node_failure_noops']}   preemptions "
          + (", ".join(f"{c}={n}" for c, n in sorted(by_cause.items()))
             or "0")
          + f"   audits {snap['audits']}")
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
    resilience = None
    if plan is not None:
        from repro.faults.metrics import resilience_snapshot

        resilience = resilience_snapshot(metrics, plan=plan)
    snapshot = sim.pair.market_snapshot() if args.clusters else None
    if args.json:
        data = _metrics_dict(metrics)
        if resilience is not None:
            data["resilience"] = resilience
        if snapshot is not None:
            data["market"] = snapshot
        if args.explain:
            data["plans"] = _ledger(sim)
        print(json.dumps(data, indent=2,
                         sort_keys="resilience" in data))
    else:
        if resilience is None:
            _print_metrics(args.scheme, metrics)
        else:
            _print_metrics(f"{args.scheme} under plan {plan.name!r} "
                           f"(seed {plan.seed})", metrics)
            _print_resilience(resilience)
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
        records = sim.export_trace(args.trace, format=args.trace_format)
        print(f"wrote {records} trace records to {args.trace} "
              f"({args.trace_format}); summarize with "
              f"`repro report {args.trace}`")
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
            obs=obs,
            orchestrator=orchestrator,
        )
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
            # after a restart the kernel, its trace and phase totals
            # so far included, is the restored one
            records = service.kernel.export_trace(args.trace)
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
    sweeps (greedy reclaim vs an exhaustive job-subset search, the MCKP
    DP vs enumeration, two-phase allocation vs a first-principles
    reference), metamorphic properties (capacity monotonicity,
    permutation invariance, dry-run pricing), and mini-scenario replays
    of every requested scheme on both views.  A divergence prints a
    pointed report with a minimized, runnable repro script and the
    command exits 1.
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
    """Run several schemes on one setup, side by side; in text mode,
    with ``baseline`` and a headline scheme on the paper's setup, also
    check their shapes against the paper (exit 1 if a claim fails)."""
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
            queuing = reduction(base.queuing_summary().mean, metrics.queuing_summary().mean)
            jct = reduction(base.jct_summary().mean, metrics.jct_summary().mean)
            print(f"{name} vs baseline: {ratio_text(queuing, 'x')} queuing, "
                  f"{ratio_text(jct, 'x')} JCT")
    checks = []
    if "baseline" in results \
            and (args.scenario, args.scaling_model) == ("basic", "linear"):
        checks = compare_to_paper(results)
    if checks:
        print(render_report(checks))
    return 0 if all(c.holds for c in checks) else 1


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
    """Render an exported trace as the markdown run report."""
    from repro.obs.report import build_report

    text = build_report(_load_store(args.trace_file))
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_why(args) -> int:
    """Narrate the causal chain behind one job's lifecycle."""
    from repro.obs.timeline import render_why

    store = _load_store(args.trace_file)
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
    """Compare two exported event traces (exit 1 when they differ)."""
    from repro.obs.inspect import diff_traces, render_diff

    files = args.trace_file
    if len(files) != 2:
        raise _Refused("inspect compares exactly two traces; summarize "
                       "one with `repro report TRACE`")
    diff = diff_traces(*_load_traces(files))
    print(render_diff(diff, *files))
    return 0 if diff.identical else 1


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
        help="fault plan: a builtin name (tabled in docs/ROBUSTNESS.md) "
             "or a YAML/JSON plan file; its process kills are recovered "
             "in-process, and the result adds its resilience snapshot"),
    "--failure-seed": dict(
        type=int, default=None,
        help="reseed the --faults plan (default: the plan's own seed)"),
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
        help="trace the run in memory and summarize its decision ledger "
             "(with --json, every plan.provenance record under "
             "\"plans\")"),
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
    "--drain-timeout": dict(
        type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM, stop admission and wait up to this long for the "
             "cluster to empty before the final snapshot (0 skips the "
             "drain)"),
}

_SETUP = ("--jobs", "--days", "--training-servers", "--inference-servers",
          "--seed", "--load", "--log-level")

#: numeric options with a floor, refused below it before a command runs:
#: option -> (floor, whether the floor itself is allowed)
_FLOORS = {
    "--jobs": (1, True),
    "--days": (0, False),
    "--training-servers": (1, True),
    "--inference-servers": (1, True),
    "--seed": (0, True),
    "--load": (0, False),
    "--demand": (1, True),
    "--checkpoint-every": (0, False),
    "--epoch-interval": (0, False),
    "--time-scale": (0, False),
}

#: (command, option) pairs a floor does not bind: a daemon may start
#: with no lender cluster, a generated setup may not
_FLOOR_EXEMPT = {("serve", "--inference-servers")}


def _check_floors(args) -> None:
    for option, (floor, inclusive) in _FLOORS.items():
        if (args.command, option) in _FLOOR_EXEMPT:
            continue
        value = getattr(args, option[2:].replace("-", "_"), None)
        if value is None or value > floor or (inclusive and value == floor):
            continue
        bound = f">= {floor}" if inclusive else f"> {floor}"
        raise _Refused(f"bad {option}: must be {bound}, got {value:g}")


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
            "--clusters", "--failure-seed", "--checkpoint-dir",
            "--checkpoint-every", "--activities-out", "--crash-at",
            "--crash-barrier")
    command("recover", cmd_recover,
            "restore a killed run from its checkpoint directory and "
            "finish it", "--json", "--activities-out", "--log-level",
            ).add_argument("directory",
                           help="checkpoint directory of the dead run "
                                "(run --checkpoint-dir)")
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
    report = command("report", cmd_report,
                     "markdown run report from a trace (wall clock last)",
                     "--log-level")
    report.add_argument("trace_file", help="trace written by run --trace")
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
    command("inspect", cmd_inspect,
            "compare two exported event traces (exit 1 when they differ)",
            "--log-level",
            ).add_argument("trace_file", nargs="+",
                           help="two traces written by run --trace")
    command("serve", cmd_serve,
            "run the scheduler as a wall-clock daemon (JSONL TCP API)",
            "--scheme", "--training-servers", "--inference-servers",
            "--seed", "--host", "--port", "--epoch-interval",
            "--time-scale", "--max-pending", "--state-dir",
            "--drain-timeout", "--trace", "--log-level")
    command("paper", cmd_paper, "show the paper's numbers").add_argument(
        "table",
        help="table5|table7|table8|table9|table10|headlines|fig1|workload")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "log_level", None):
        configure_logging(args.log_level)
    try:
        _check_floors(args)
        rc = args.func(args)
        sys.stdout.flush()
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (`repro why T J | head -1`): end as SIGPIPE
        # would, and let the exit flush write what is left to /dev/null
        import os
        import signal

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
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
