"""Serving-daemon load benchmark: sustained request throughput + latency.

Starts a real :class:`~repro.serve.service.SchedulerService` on a
loopback port and drives it with N concurrent client connections, each
pipelining a submit → query → (usually) cancel loop — the daemon's
whole request path is exercised, including epoch batching of the
submits that survive cancellation into scheduling epochs.  Request
round-trip latency is recorded through the observability metrics
registry (``bench.request_rtt_s``), so the reported percentiles come
from the same histogram machinery the daemon itself exports; the
daemon-side ``serve.submit_to_scheduled_s`` histogram (submit ack to
first worker placement) is captured from ``stats`` as well.

Not a pytest bench: run it directly.

    python benchmarks/bench_serve.py                  # 10 s, acceptance
    python benchmarks/bench_serve.py --quick          # CI smoke, ~2 s
    python benchmarks/bench_serve.py --durable DIR    # with fsynced journal

Acceptance (full mode): sustained throughput >= 1,000 requests/s.  The
``--durable`` mode journals (and fsyncs) every mutation before acking
and is expected to be slower; it reports, but never enforces, the bar.
Results land in ``benchmarks/results/BENCH_serve.json`` (``--out``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.cluster.cluster import (  # noqa: E402
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.core.kernel import SimulationConfig  # noqa: E402
from repro.ioutil import atomic_write  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.schedulers.fifo import FIFOScheduler  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.service import SchedulerService  # noqa: E402

#: acceptance bar, requests per second sustained across all clients
MIN_RPS = 1000.0

#: of every KEEP_EVERY submitted jobs, one is left to actually run;
#: the rest are cancelled after a query, keeping the pending queue
#: bounded while still feeding every epoch real scheduling work
KEEP_EVERY = 5


async def _worker(host, port, stop_at, hist, counts, worker_id):
    client = await ServeClient.connect(host, port)
    loop = asyncio.get_running_loop()
    i = 0
    try:
        while loop.time() < stop_at:
            t0 = loop.time()
            job_id = await client.submit(duration=30.0, max_workers=1)
            hist.observe(loop.time() - t0)
            counts["submit"] += 1

            t0 = loop.time()
            await client.query(job_id)
            hist.observe(loop.time() - t0)
            counts["query"] += 1

            if i % KEEP_EVERY != 0:
                t0 = loop.time()
                await client.cancel(job_id)
                hist.observe(loop.time() - t0)
                counts["cancel"] += 1
            i += 1
    finally:
        await client.close()


async def run_bench(args) -> dict:
    obs = Observability.disabled()  # registry stays live
    pair = ClusterPair(
        make_training_cluster(args.servers),
        make_inference_cluster(args.servers),
    )
    service = SchedulerService(
        pair,
        FIFOScheduler(),
        SimulationConfig(scheduler_interval=args.epoch_interval),
        port=0,
        max_pending=1_000_000,
        time_scale=args.time_scale,
        state_dir=args.durable,
        obs=obs,
    )
    await service.start()
    server = asyncio.ensure_future(service.serve_forever())
    loop = asyncio.get_running_loop()
    hist = obs.registry.histogram("bench.request_rtt_s")
    counts = {"submit": 0, "query": 0, "cancel": 0}

    wall0 = time.perf_counter()
    stop_at = loop.time() + args.duration
    await asyncio.gather(*[
        _worker(service.host, service.port, stop_at, hist, counts, w)
        for w in range(args.clients)
    ])
    elapsed = time.perf_counter() - wall0

    probe = await ServeClient.connect(service.host, service.port)
    stats = await probe.stats()
    await probe.close()
    await service.stop(final_snapshot=False)
    server.cancel()
    try:
        await server
    except asyncio.CancelledError:
        pass

    total = sum(counts.values())
    snap = obs.registry.snapshot()["histograms"]
    return {
        "requests": total,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(total / elapsed, 1),
        "by_op": counts,
        "request_rtt_s": snap["bench.request_rtt_s"],
        "submit_to_scheduled_s": stats["metrics"]["histograms"].get(
            "serve.submit_to_scheduled_s"
        ),
        "daemon": {
            "epochs": stats["epochs"],
            "epochs_skipped": stats["epochs_skipped"],
            "plans_applied": stats["plans_applied"],
            "jobs": stats["jobs"],
            "callback_errors": stats["callback_errors"],
            "wal_appended": stats["wal_appended"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="~2 s smoke run; reports, never enforces")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="measurement window (default 10, quick 2)")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent connections (default 8, quick 4)")
    parser.add_argument("--servers", type=int, default=4,
                        help="training/inference servers in the cluster")
    parser.add_argument("--epoch-interval", type=float, default=0.5,
                        metavar="KERNEL_S",
                        help="scheduling-epoch batching window")
    parser.add_argument("--time-scale", type=float, default=50.0,
                        help="kernel seconds per wall second")
    parser.add_argument("--durable", default=None, metavar="DIR",
                        help="state directory: journal+fsync every "
                             "mutation before acking (slower by design; "
                             "the throughput bar is not enforced)")
    parser.add_argument("--out",
                        default=os.path.join(
                            os.path.dirname(__file__), "results",
                            "BENCH_serve.json"),
                        help="result JSON path")
    args = parser.parse_args(argv)
    if args.duration is None:
        args.duration = 2.0 if args.quick else 10.0
    if args.clients is None:
        args.clients = 4 if args.quick else 8

    results = asyncio.run(run_bench(args))

    enforce = not args.quick and args.durable is None
    passed = results["throughput_rps"] >= MIN_RPS
    payload = {
        "config": {
            "quick": args.quick,
            "duration_s": args.duration,
            "clients": args.clients,
            "servers": args.servers,
            "epoch_interval_s": args.epoch_interval,
            "time_scale": args.time_scale,
            "durable": bool(args.durable),
        },
        "results": results,
        "acceptance": {
            "min_rps": MIN_RPS,
            "enforced": enforce,
            "pass": passed,
        },
    }
    with atomic_write(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    rtt = results["request_rtt_s"]
    print(f"{results['requests']} requests in {results['elapsed_s']}s "
          f"over {args.clients} connection(s): "
          f"{results['throughput_rps']:,.0f} req/s")
    print(f"  rtt      p50 {rtt['p50'] * 1e3:.2f} ms   "
          f"p99 {rtt['p99'] * 1e3:.2f} ms   max {rtt['max'] * 1e3:.2f} ms")
    sched = results["submit_to_scheduled_s"]
    if sched:
        print(f"  sched    p50 {sched['p50'] * 1e3:.1f} ms   "
              f"p99 {sched['p99'] * 1e3:.1f} ms  (submit -> placed, "
              f"{sched['count']} jobs)")
    print(f"  daemon   epochs {results['daemon']['epochs']} "
          f"({results['daemon']['epochs_skipped']} skipped)   "
          f"plans {results['daemon']['plans_applied']}   "
          f"jobs {results['daemon']['jobs']}")
    print(f"wrote {args.out}")
    if enforce and not passed:
        print(f"FAIL: {results['throughput_rps']:,.0f} req/s "
              f"< acceptance bar {MIN_RPS:,.0f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
