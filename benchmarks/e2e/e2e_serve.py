"""The ``serve_durable`` workload: a real daemon under an open-loop ladder.

The daemon is ``python -m repro serve ... --state-dir <dir>`` as a child
process (or, traced, ``serve_traced.py`` wrapping the same CLI).  The
load generator is this one process: a single asyncio loop driving two
pipelined request connections plus one ``subscribe`` feed.

Load model — **open loop**.  Submitters are independent users, so
requests are sent on a fixed schedule whether or not earlier ones were
answered (requests on a connection are pipelined, never awaited), a
slow daemon therefore builds a backlog instead of receiving less load,
and every request is timed from the instant it was *due*, not from when
it was sent.  How late the generator itself ran is reported.

The ladder is three fixed rates; the mix is 60 % submit / 25 % query /
15 % cancel, query and cancel target only jobs the client knows are
live (acked, not cancelled, no ``finish`` seen on the feed).  Job
durations shrink as the rate rises so the cluster stays around 70 %
busy at every step and the pending queue does not grow.  After the
ladder the daemon is SIGKILLed and restarted on the same state
directory; every acked, un-cancelled job must be answered by ``query``.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Deque, Dict, List, Optional

from e2e_spans import percentile
from repro.serve import protocol

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

RATES = (100, 200, 400)  # req/s, one ladder step each
#: The latency metrics are read at the 100 req/s step.  On today's code
#: the daemon's knee sits near 200 req/s (every epoch snapshots the whole
#: kernel, which costs O(all jobs ever submitted)), and at a knee
#: queueing multiplies a 10 % change in machine speed into a severalfold
#: change in latency; one step lower the numbers repeat.
ACK_STEP = 0
ACK_LIMIT_MS = 50.0
MIX = (("submit", 0.60), ("query", 0.25), ("cancel", 0.15))
CONNECTIONS = 2
SETUP_BOOTS = 3  # fresh-directory boots whose median is setup_s

TRAINING_SERVERS, INFERENCE_SERVERS = 64, 76
TIME_SCALE, EPOCH_INTERVAL = 60.0, 6.0
#: mean kernel-seconds of work per job at the 200 req/s step; scaled by
#: 200/rate at the other steps (≈70 % of 512 GPUs busy at each)
BASE_DURATION_S = 50.0

BOOT_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 10.0  # without a single reply arriving


def _serve_args(state_dir: Path) -> List[str]:
    return [
        "serve", "--scheme", "lyra",
        "--training-servers", str(TRAINING_SERVERS),
        "--inference-servers", str(INFERENCE_SERVERS),
        "--time-scale", str(TIME_SCALE),
        "--epoch-interval", str(EPOCH_INTERVAL),
        "--state-dir", str(state_dir), "--port", "0",
    ]


class Daemon:
    """One daemon child process; always killed and reaped on ``stop``."""

    def __init__(self, state_dir: Path, spans_out: Optional[Path] = None):
        self.state_dir = state_dir
        self.spans_out = spans_out
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.peak_rss_mb = 0.0

    async def start(self) -> float:
        """Spawn, wait for the first ``ping`` reply; returns the seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if self.spans_out is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"),
                    "--spans-out", str(self.spans_out), "--"]
        t0 = time.perf_counter()
        self.proc = await asyncio.create_subprocess_exec(
            *argv, *_serve_args(self.state_dir), env=env, cwd=str(ROOT),
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.DEVNULL,
        )
        while True:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), BOOT_TIMEOUT_S
            )
            if not line:
                raise RuntimeError("daemon exited before listening")
            if b"listening on" in line:
                self.port = int(line.split(b"listening on")[1].split()[0]
                                .rsplit(b":", 1)[1])
                break
        conn = await Connection.open(self.port)
        try:
            conn.send({"op": "ping"}, due=time.perf_counter(), kind="ping")
            await asyncio.wait_for(conn.read_reply(), BOOT_TIMEOUT_S)
        finally:
            await conn.close()
        return time.perf_counter() - t0

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ") ", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _note_peak_rss(self) -> None:
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_rss_mb = max(
                    self.peak_rss_mb, int(line.split()[1]) / 1024.0
                )

    async def dump_spans(self) -> dict:
        """Ask a traced daemon (SIGUSR1) to write its span summary."""
        self.spans_out.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + REPLY_TIMEOUT_S
        while not self.spans_out.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced daemon did not dump its spans")
            await asyncio.sleep(0.02)
        return json.loads(self.spans_out.read_text())

    async def stop(self) -> None:
        """SIGKILL (the crash under test, and the cleanup) and reap."""
        if self.proc is None:
            return
        self._note_peak_rss()
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()


class Connection:
    """One pipelined request connection: send on schedule, read in order."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.inflight: Deque[dict] = collections.deque()

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    def send(self, request: dict, due: float, kind: str, **meta) -> None:
        self.inflight.append({"due": due, "kind": kind, **meta})
        self.writer.write(protocol.encode(request))

    async def read_reply(self):
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return self.inflight.popleft(), protocol.decode_line(line), \
            time.perf_counter()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _job_spec(rng: random.Random, rate: int) -> dict:
    workers = rng.randint(1, 8)
    duration = BASE_DURATION_S * 200.0 / rate * rng.uniform(0.5, 1.5)
    spec = {"duration": duration, "max_workers": workers}
    if workers >= 2 and rng.random() < 0.20:
        spec.update(elastic=True, min_workers=workers // 2)
    return spec


def make_schedule(seed: int, step_seconds: float) -> List[dict]:
    """The whole ladder, from the seed: offsets, ops and job specs."""
    rng = random.Random(seed)
    ops, weights = zip(*MIX)
    schedule, offset = [], 0.0
    for step, rate in enumerate(RATES):
        for i in range(int(rate * step_seconds)):
            op = rng.choices(ops, weights)[0]
            schedule.append({
                "step": step, "offset": offset + i / rate, "op": op,
                "spec": _job_spec(rng, rate) if op == "submit" else None,
                "pick": rng.random(),
            })
        offset += step_seconds
    return schedule


class Ladder:
    """Runs one schedule against one daemon and keeps what it saw."""

    def __init__(self, port: int, schedule: List[dict], step_seconds: float):
        self.port, self.schedule = port, schedule
        self.step_seconds = step_seconds
        steps = range(len(RATES))
        self.latency_s = {s: [] for s in steps}
        self.sent = {s: 0 for s in steps}
        self.failed = {s: 0 for s in steps}
        self.inflight_at = {s: [] for s in steps}  # (offset in step, count)
        self.late_s: List[float] = []
        self.submit_due: Dict[int, float] = {}
        self.submit_step: Dict[int, int] = {}
        self.start_seen: Dict[int, float] = {}
        self.live: List[int] = []  # acked, not cancelled, not finished
        self.gone = set()  # cancel requested, or finished
        self.cancel_requested = set()
        self.cancel_raced = 0  # cancels answered "already finished"
        self.lost = 0  # requests never answered
        self.errors: List[str] = []  # first few refusals, for the report

    def _pick_live(self, pick: float) -> Optional[int]:
        while self.live:
            i = int(pick * len(self.live))
            job_id = self.live[i]
            if job_id not in self.gone:
                return job_id
            self.live[i] = self.live[-1]  # lazily drop dead entries
            self.live.pop()
        return None

    async def _feed(self, ready: asyncio.Event) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(protocol.encode({"op": "subscribe"}))
            await reader.readline()  # the subscribe ack
            ready.set()
            while True:
                line = await reader.readline()
                if not line:
                    return
                now = time.perf_counter()
                event = protocol.decode_line(line)
                if event.get("kind") == "start":
                    self.start_seen.setdefault(event["job_id"], now)
                elif event.get("kind") == "finish":
                    self.gone.add(event["job_id"])
        finally:
            writer.close()

    async def _replies(self, conn: Connection) -> None:
        while True:
            meta, reply, now = await conn.read_reply()
            step = meta["step"]
            self.latency_s[step].append(now - meta["due"])
            if not reply.get("ok"):
                self.failed[step] += 1
                if len(self.errors) < 5:
                    self.errors.append(
                        f"{meta['kind']}: {reply.get('error')}: "
                        f"{reply.get('message')}"
                    )
            elif meta["kind"] == "submit":
                self.submit_due[reply["job_id"]] = meta["due"]
                self.submit_step[reply["job_id"]] = step
                self.live.append(reply["job_id"])
            elif meta["kind"] == "cancel" and not reply.get("cancelled"):
                self.cancel_raced += 1

    async def run(self) -> None:
        conns = [await Connection.open(self.port) for _ in range(CONNECTIONS)]
        ready = asyncio.Event()
        feed = asyncio.ensure_future(self._feed(ready))
        readers = [asyncio.ensure_future(self._replies(c)) for c in conns]
        try:
            await asyncio.wait_for(ready.wait(), REPLY_TIMEOUT_S)
            t0 = time.perf_counter() + 0.05
            for i, item in enumerate(self.schedule):
                due = t0 + item["offset"]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.late_s.append(max(0.0, time.perf_counter() - due))
                step, op = item["step"], item["op"]
                request, meta = {"op": op}, {}
                if op == "submit":
                    request["spec"] = item["spec"]
                else:
                    job_id = self._pick_live(item["pick"])
                    if job_id is None:
                        op = request["op"] = "query"  # nothing live yet
                    else:
                        request["job_id"] = meta["job_id"] = job_id
                        if op == "cancel":
                            # the daemon forgets a cancelled job, and
                            # requests are pipelined: stop targeting it
                            # now, not when the ack arrives
                            self.gone.add(job_id)
                            self.cancel_requested.add(job_id)
                # a job's requests share one connection, as one user's
                # would: replies on a connection come in order, so a
                # query sent before a cancel is also answered before it
                lane = meta.get("job_id", i) % CONNECTIONS
                conns[lane].send(request, due=due, kind=op, step=step, **meta)
                self.sent[step] += 1
                self.inflight_at[step].append((
                    item["offset"] - step * self.step_seconds,
                    sum(len(c.inflight) for c in conns),
                ))
            # a saturated daemon drains its backlog after the last
            # send: wait while replies keep coming, give up when they stop
            waiting = sum(len(c.inflight) for c in conns)
            deadline = time.perf_counter() + REPLY_TIMEOUT_S
            while waiting and not any(r.done() for r in readers):
                await asyncio.sleep(0.005)
                left = sum(len(c.inflight) for c in conns)
                if left < waiting:
                    waiting = left
                    deadline = time.perf_counter() + REPLY_TIMEOUT_S
                elif time.perf_counter() > deadline:
                    break
            for conn in conns:
                for meta in conn.inflight:
                    self.lost += 1
                    self.failed[meta["step"]] += 1
        finally:
            for task in (feed, *readers):
                task.cancel()
            await asyncio.gather(feed, *readers, return_exceptions=True)
            for conn in conns:
                await conn.close()

    # ------------------------------------------------------------------
    def step_stats(self, step: int) -> dict:
        lat_ms = [1e3 * v for v in self.latency_s[step]]
        span = self.step_seconds

        def backlog(lo: float, hi: float) -> float:
            window = [n for off, n in self.inflight_at[step]
                      if lo * span <= off < hi * span]
            return statistics.fmean(window) if window else 0.0

        mid, end = backlog(0.25, 0.75), backlog(0.75, 1.00)
        p95 = percentile(lat_ms, 95)
        return {
            "rate_rps": RATES[step],
            "sent": self.sent[step],
            "replied": len(lat_ms),
            "failed": self.failed[step],
            "ack_p50_ms": percentile(lat_ms, 50),
            "ack_p95_ms": p95,
            "backlog_mid": mid,
            "backlog_end": end,
            # a saturated daemon's backlog grows linearly (last quarter
            # ≈ 1.75x the middle half); a healthy one flickers between 1
            # and 3 in flight, hence the slack
            "ok": (self.failed[step] == 0 and p95 <= ACK_LIMIT_MS
                   and end <= 1.25 * mid + 1.0),
        }

    def submit_to_start_ms(self, step: int) -> List[float]:
        """Submit due -> ``start`` on the feed, for one step's jobs.

        A job whose event the feed dropped (or that never started: it
        was cancelled first) has no sample; it is not timed as zero.
        """
        return [
            1e3 * (seen - self.submit_due[job_id])
            for job_id, seen in self.start_seen.items()
            if self.submit_step.get(job_id) == step
        ]

    def must_survive(self) -> List[int]:
        """Acked jobs the client never asked to cancel.

        A cancel that loses the race with the job's completion is
        answered ``cancelled: false`` but still journaled, and recovery
        replays it against a snapshot in which the job may be running
        again — so whether such a job outlives a restart is undefined
        in the program today.  They are left out here and counted in
        ``cancel_raced``.
        """
        return [j for j in self.submit_due if j not in self.cancel_requested]


async def _verify_recovered(port: int, job_ids: List[int]):
    """Query each job on the restarted daemon.

    Returns ``(ids the daemon no longer knows, journaled requests it
    replayed on the way up)``.
    """
    conn = await Connection.open(port)
    missing: List[int] = []
    try:
        for job_id in job_ids:
            conn.send({"op": "query", "job_id": job_id},
                      due=time.perf_counter(), kind="query")
        for job_id in job_ids:
            _, reply, _ = await asyncio.wait_for(
                conn.read_reply(), REPLY_TIMEOUT_S
            )
            if not reply.get("ok"):
                missing.append(job_id)
        conn.send({"op": "stats"}, due=time.perf_counter(), kind="stats")
        _, stats, _ = await asyncio.wait_for(conn.read_reply(),
                                             REPLY_TIMEOUT_S)
    finally:
        await conn.close()
    return missing, stats.get("replayed_requests", 0)


async def _one_ladder(
    work: Path, seed: int, step_seconds: float, traced: bool,
    restart: bool,
) -> dict:
    """Boot, run the ladder, optionally SIGKILL + restart + verify."""
    state = work / f"state-{'traced' if traced else 'plain'}"
    spans_out = work / "spans.json" if traced else None
    daemon = Daemon(state, spans_out)
    restarted = Daemon(state, spans_out)
    out: dict = {}
    try:
        out["boot_s"] = await daemon.start()
        ladder = Ladder(daemon.port, make_schedule(seed, step_seconds),
                        step_seconds)
        cpu0 = daemon.cpu_s()
        await ladder.run()
        out["cpu_s"] = daemon.cpu_s() - cpu0
        if traced:
            out["summary"] = await daemon.dump_spans()
        await daemon.stop()  # SIGKILL: the crash
        out["ladder"] = ladder
        if restart:
            out["restart_s"] = await restarted.start()
            out["missing"], out["replayed"] = await _verify_recovered(
                restarted.port, ladder.must_survive()
            )
    finally:
        await daemon.stop()
        await restarted.stop()
    out["peak_rss_mb"] = max(daemon.peak_rss_mb, restarted.peak_rss_mb)
    return out


async def _run(
    seed: int, seconds: float, traced: bool, work: Path, setup_boots: int,
) -> dict:
    boots = []
    for i in range(setup_boots):
        fresh = Daemon(work / f"boot-{i}")
        try:
            boots.append(await fresh.start())
        finally:
            await fresh.stop()

    if traced:
        # half the window untraced (the overhead reference), half traced
        step_seconds = seconds / (2 * len(RATES))
        plain = await _one_ladder(work, seed, step_seconds, traced=False,
                                  restart=False)
        main = await _one_ladder(work, seed, step_seconds, traced=True,
                                 restart=True)
        per_request = [
            run["cpu_s"] / max(1, sum(run["ladder"].sent.values()))
            for run in (plain, main)
        ]
        overhead = per_request[1] / per_request[0] - 1.0
        boots.append(plain["boot_s"])
    else:
        step_seconds = seconds / len(RATES)
        main = await _one_ladder(work, seed, step_seconds, traced=False,
                                 restart=True)
        overhead = None
        boots.append(main["boot_s"])

    ladder: Ladder = main["ladder"]
    steps = [ladder.step_stats(s) for s in range(len(RATES))]
    starts = ladder.submit_to_start_ms(ACK_STEP)
    attempted = sum(s["sent"] for s in steps) + len(ladder.must_survive())
    failed = sum(s["failed"] for s in steps) + len(main["missing"])
    ok_rates = [s["rate_rps"] for s in steps if s["ok"]]
    problems = []
    if failed:
        problems.append(
            f"{failed} request(s) failed, unanswered or lost in recovery"
        )
        problems.extend(ladder.errors)
        if ladder.lost:
            problems.append(f"{ladder.lost} request(s) never answered")
        if main["missing"]:
            problems.append(
                f"acked jobs unknown after restart: {main['missing'][:10]}"
            )
    result = {
        "setup_s": statistics.median(boots),
        "setup_samples": len(boots),
        "cpu_s": main["cpu_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "steps": steps,
        "ack_p50_ms": steps[ACK_STEP]["ack_p50_ms"],
        "ack_p95_ms": steps[ACK_STEP]["ack_p95_ms"],
        "ack_samples": steps[ACK_STEP]["replied"],
        "submit_to_start_p50_ms": percentile(starts, 50),
        "submit_to_start_p95_ms": percentile(starts, 95),
        "submit_to_start_samples": len(starts),
        "max_rate_ok_rps": max(ok_rates) if ok_rates else 0,
        "restart_s": main["restart_s"],
        "recovered_jobs_checked": len(ladder.must_survive()),
        "cancel_raced": ladder.cancel_raced,
        "restart_replayed": main["replayed"],
        "generator_late_p99_ms": 1e3 * percentile(ladder.late_s, 99),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if traced:
        result["summary"] = main["summary"]
        result["trace_overhead_share"] = overhead
    return result


def run_workload(
    seed: int, seconds: float, traced: bool, setup_boots: int = SETUP_BOOTS,
) -> dict:
    """The whole workload; state lives (briefly) inside the checkout."""
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="serve-", dir=scratch))
    try:
        return asyncio.run(_run(seed, seconds, traced, work, setup_boots))
    finally:
        shutil.rmtree(work, ignore_errors=True)
