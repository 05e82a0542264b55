"""The scheduler daemon: an asyncio front-end over the kernel.

One :class:`SchedulerService` hosts one
:class:`~repro.core.kernel.SchedulerKernel` on a
:class:`~repro.serve.driver.WallClockDriver` and serves the JSONL TCP
API (:mod:`repro.serve.protocol`).  Design points:

* **Epoch batching** — submits do not schedule individually; every
  state-changing request calls the kernel's ``trigger_schedule``, which
  coalesces all triggers landing within ``config.scheduler_interval``
  into one scheduling epoch.  Under a burst, one epoch plans the whole
  batch — the same batching the paper's scheduler applies to arrival
  storms.
* **Admission control** — a submit that would push the pending queue
  past ``max_pending`` is rejected with ``queue_full`` *before* any
  state changes (and before journaling), so an overloaded daemon sheds
  load at the door instead of collapsing; rejections are counted in
  ``serve.rejected``.
* **Event feed** — ``subscribe`` turns a connection into a stream of
  kernel activities.  Fan-out is through bounded per-subscriber queues;
  a slow subscriber loses oldest events (counted, never blocking the
  scheduling path).
* **Durability** — with a state directory, every acked mutation is
  journaled before the ack, the plan executor writes a per-generation
  WAL, and the kernel snapshots at the end of an epoch once the two
  logs have grown by the newest snapshot's size
  (:mod:`repro.serve.state`).  A daemon restarted on the same directory
  recovers every acked job.
* **Graceful drain** — ``drain`` (or SIGTERM via the CLI) stops
  admission and resolves once the queue and the cluster are empty.

The service is single-loop: request handlers and kernel timers
interleave on one asyncio loop, so kernel state needs no locking —
exactly the simulator's single-threaded discipline, with the event loop
as the engine.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.cluster.cluster import ClusterPair
from repro.cluster.job import JobStatus, spec_from_record, spec_record
from repro.core.actions import EpochPlan, PlanRejected, ScaleIn
from repro.core.kernel import SchedulerKernel, SimulationConfig
from repro.obs import Observability
from repro.obs.log import get_logger
from repro.schedulers.base import SchedulerPolicy
from repro.serve import protocol
from repro.serve.driver import WallClockDriver
from repro.serve.state import ServeState
from repro.simulator.events import EventKind

logger = get_logger("serve")

#: per-subscriber event buffer; beyond this, oldest events are dropped
SUBSCRIBER_QUEUE = 4096


class SchedulerService:
    """One daemon instance: kernel + driver + TCP API + durability."""

    def __init__(
        self,
        pair: ClusterPair,
        policy,
        config: Optional[SimulationConfig] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_pending: int = 10_000,
        time_scale: float = 1.0,
        state_dir=None,
        obs: Optional[Observability] = None,
        orchestrator=None,
    ):
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.obs = obs if obs is not None else Observability.disabled()
        self._config = config if config is not None else SimulationConfig()
        self._pair = pair
        self._policy = policy
        self._orchestrator = orchestrator
        self._time_scale = time_scale
        self.state = ServeState(state_dir) if state_dir is not None else None

        self.kernel: Optional[SchedulerKernel] = None
        self.driver: Optional[WallClockDriver] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._next_job_id = 0
        #: wall-clock submit instants, for submit→scheduled latency
        self._submit_walls: Dict[int, float] = {}
        self._subscribers: List[asyncio.Queue] = []
        self.draining = False
        self._drained = asyncio.Event()
        #: set by the ``shutdown`` op; the CLI run loop awaits it
        self.shutdown_requested = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epochs = 0
        self.recovered_jobs = 0
        self.replayed_requests = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build (or recover) the kernel and start accepting requests."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        restored = self.state.load_kernel() if self.state else None
        #: journaled requests up to this sequence are already in the kernel
        covered_seq = 0
        if restored is not None:
            kernel, covered_seq = restored
            self.kernel = kernel
            self.driver = kernel.driver
            # one bundle per daemon across restarts: cumulative counters
            # and the trace so far are state, and came back with the kernel
            self.obs = kernel.obs
            # this process's time_scale wins over the snapshot's
            self.driver.time_scale = self._time_scale
            self.recovered_jobs = len(kernel.pending) + len(kernel.running)
        else:
            self.driver = WallClockDriver(time_scale=self._time_scale)
            self.kernel = SchedulerKernel(
                [],
                self._pair,
                self._policy,
                orchestrator=self._orchestrator,
                config=self._config,
                obs=self.obs,
                driver=self.driver,
            )
        self.driver.on_timer = self._on_timer
        self.driver.on_epoch_finished = self._on_epoch_finished
        # a restored driver arms again what was armed at the snapshot
        self.driver.bind(loop)
        if restored is None and self._orchestrator is not None:
            # once per state directory: the cadence re-arms itself
            # (:meth:`_on_timer`) and a restored armed set holds it
            self.driver.schedule_after(
                self.kernel.config.orchestrator_interval, ("orch",)
            )
        self.kernel.activity_sink = self._on_activity
        if self.state is not None:
            self.kernel.executor.wal = self.state.wal
            # built or restored, the journal then rebuilds whatever the
            # kernel does not cover — everything, when no snapshot was
            # readable
            self._replay_requests(covered_seq)
            logger.info(
                "kernel at t=%.1f: %d pending, %d running, %d recovered "
                "from a snapshot, %d journaled requests replayed",
                self.kernel.now, len(self.kernel.pending),
                len(self.kernel.running), self.recovered_jobs,
                self.replayed_requests,
            )
        # past every id ever journaled or restored, not just the live ones
        journaled = self.state.journal.max_job_id if self.state else -1
        self._next_job_id = max([journaled, *self.kernel.jobs]) + 1
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on %s:%d", self.host, self.port)

    def _apply(self, entry: dict):
        """Turn one journaled entry into its state change.

        The only code that does: a live op validates, journals and calls
        this; restart replay is a loop over it.  What is journaled is
        therefore exactly what replays.
        """
        op = entry.get("op")
        if op == "submit":
            spec = spec_from_record(entry["spec"])
            if spec.job_id not in self.kernel.jobs:
                self.kernel.admit_job(self.kernel.register_job(spec))
            return None
        if op == "cancel":
            return self.kernel.cancel_job(entry["job_id"])
        if op == "scale":
            return self._apply_scale(entry["job_id"], entry["workers"])
        raise ValueError(f"no journaled op {op!r}")

    def _replay_requests(self, from_seq: int) -> None:
        """Re-apply journaled requests the kernel does not cover."""
        for entry in self.state.journal.entries_after(from_seq):
            try:
                self._apply(entry)
            except Exception:
                # a request that was applicable pre-kill may no longer
                # be (job finished in the snapshot, say); replay is
                # best-effort per entry, never fatal to recovery
                logger.exception("replaying journal entry %s failed", entry)
            self.replayed_requests += 1

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, final_snapshot: bool = True) -> None:
        """Graceful shutdown: stop accepting, snapshot, close feeds."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.state is not None and final_snapshot and self.kernel is not None:
            self.state.snapshot(self.kernel)
        for queue in list(self._subscribers):
            queue.put_nowait(None)  # sentinel: stream over
        if self.state is not None:
            self.state.close()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission; resolve once no pending or running work
        remains.  Returns False on timeout (daemon keeps draining)."""
        self.draining = True
        self._maybe_mark_drained()
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    # ------------------------------------------------------------------
    # kernel hooks
    # ------------------------------------------------------------------
    def _on_epoch_finished(self) -> None:
        self._epochs += 1
        if self.state is not None:
            self.state.epoch_finished(self.kernel)
        self._maybe_mark_drained()

    def _maybe_mark_drained(self) -> None:
        if (
            self.draining
            and not self.kernel.pending
            and not self.kernel.running
        ):
            self._drained.set()

    def _on_activity(self, activity, trace_args) -> None:
        """Kernel activity sink: latency accounting + subscriber fan-out."""
        if activity.kind is EventKind.START:
            wall = self._submit_walls.pop(activity.job_id, None)
            if wall is not None:
                self.obs.registry.histogram(
                    "serve.submit_to_scheduled_s"
                ).observe(self._loop.time() - wall)
        if activity.kind is EventKind.FINISH:
            self._maybe_mark_drained()
        if not self._subscribers:
            return
        event = {
            "ts": activity.time,
            "kind": activity.kind.value,
            "job_id": activity.job_id,
            "detail": activity.detail,
        }
        if trace_args:
            event.update(trace_args)
        for queue in self._subscribers:
            if queue.full():
                try:
                    queue.get_nowait()  # drop oldest, never block
                except asyncio.QueueEmpty:
                    pass
                self.obs.registry.counter("serve.events_dropped").inc()
            queue.put_nowait(event)

    def _on_timer(self, tag: tuple) -> None:
        """Driver hook: a timer is due.  The orchestrator cadence is the
        daemon's own; every other tag is one the kernel armed."""
        if tag[0] == "orch":
            try:
                self.kernel.run_orchestrator_epoch()
            finally:
                # the cadence is armed once per daemon, restarts
                # included: a failed tick must not be the last one
                self.driver.schedule_after(
                    self.kernel.config.orchestrator_interval, ("orch",)
                )
        else:
            self.kernel.dispatch(tag)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    ConnectionResetError,
                    asyncio.IncompleteReadError,
                    asyncio.CancelledError,
                ):
                    break
                if not line:
                    break
                if len(line) > protocol.MAX_LINE_BYTES:
                    writer.write(protocol.encode(
                        protocol.err(None, "frame_too_large")
                    ))
                    break
                try:
                    request = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.encode(
                        protocol.err(None, "bad_request", str(exc))
                    ))
                    await writer.drain()
                    continue
                request_id = request.get("id")
                op = request.get("op")
                if op == "subscribe":
                    await self._stream_events(request_id, writer)
                    break
                if op == "drain":
                    done = await self.drain(request.get("timeout"))
                    response = protocol.ok(
                        request_id, drained=done, draining=True
                    )
                elif op == "shutdown":
                    self.shutdown_requested.set()
                    response = protocol.ok(request_id, shutting_down=True)
                else:
                    response = self._dispatch(op, request_id, request)
                writer.write(protocol.encode(response))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _dispatch(self, op, request_id, request) -> dict:
        self.obs.registry.counter("serve.requests", op=str(op)).inc()
        try:
            if op == "ping":
                return protocol.ok(
                    request_id, now=self.kernel.now, draining=self.draining
                )
            if op == "submit":
                return self._op_submit(request_id, request)
            if op == "query":
                return self._op_query(request_id, request)
            if op == "cancel":
                return self._op_cancel(request_id, request)
            if op == "scale":
                return self._op_scale(request_id, request)
            if op == "stats":
                return self._op_stats(request_id)
            return protocol.err(request_id, "unknown_op", f"no op {op!r}")
        except protocol.ProtocolError as exc:
            return protocol.err(request_id, "bad_request", str(exc))
        except Exception as exc:  # one bad request must not kill the daemon
            logger.exception("op %r failed", op)
            self.obs.registry.counter("serve.op_errors", op=str(op)).inc()
            return protocol.err(request_id, "internal", str(exc))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def _op_submit(self, request_id, request) -> dict:
        if self.draining:
            return protocol.err(request_id, "draining")
        if len(self.kernel.pending) >= self.max_pending:
            self.obs.registry.counter("serve.rejected").inc()
            return protocol.err(
                request_id, "queue_full",
                f"pending queue at max_pending={self.max_pending}",
            )
        fields = request.get("spec")
        if not isinstance(fields, dict):
            return protocol.err(request_id, "bad_request", "missing 'spec'")
        job_id = self._next_job_id
        spec = protocol.spec_from_request(fields, job_id, self.kernel.now)
        self._next_job_id += 1
        entry = {"op": "submit", "spec": spec_record(spec)}
        if self.state is not None:
            self.state.journal.append(**entry)
        self._apply(entry)
        self._submit_walls[job_id] = self._loop.time()
        return protocol.ok(request_id, job_id=job_id, submit_time=spec.submit_time)

    def _op_query(self, request_id, request) -> dict:
        job_id = request.get("job_id")
        if job_id is not None and type(job_id) is not int:
            return protocol.err(request_id, "bad_request", "job_id must be an int")
        if job_id is None:
            counts = {
                "pending": len(self.kernel.pending),
                "running": len(self.kernel.running),
                "finished": sum(
                    1 for j in self.kernel.jobs.values()
                    if j.status is JobStatus.FINISHED
                ),
                "epochs": self._epochs,
                "plans_applied": self.kernel.executor.plans_applied,
                "now": self.kernel.now,
                "draining": self.draining,
            }
            return protocol.ok(request_id, **counts)
        job = self.kernel.jobs.get(job_id)
        if job is None:
            return protocol.err(request_id, "unknown_job", f"job {job_id}")
        return protocol.ok(
            request_id,
            job_id=job_id,
            status=job.status.name.lower(),
            workers=job.total_workers,
            remaining_work=job.remaining_work,
            submit_time=job.spec.submit_time,
            start_time=job.first_start_time,
            finish_time=job.finish_time,
        )

    def _op_cancel(self, request_id, request) -> dict:
        job_id = request.get("job_id")
        if type(job_id) is not int:
            return protocol.err(request_id, "bad_request", "cancel needs an int job_id")
        job = self.kernel.jobs.get(job_id)
        if job is None or job.status is JobStatus.FINISHED:
            # Nothing to make durable.  Journaling a cancel that lost the
            # race with its job's completion would replay it after a
            # kill against an older snapshot where the job still runs —
            # and remove a job the client was told had finished.
            return protocol.ok(request_id, job_id=job_id, cancelled=False)
        entry = {"op": "cancel", "job_id": job_id}
        if self.state is not None:
            self.state.journal.append(**entry)
        cancelled = self._apply(entry)
        self._submit_walls.pop(job_id, None)
        self._maybe_mark_drained()
        return protocol.ok(request_id, job_id=job_id, cancelled=cancelled)

    def _op_scale(self, request_id, request) -> dict:
        job_id = request.get("job_id")
        workers = request.get("workers")
        if type(job_id) is not int or type(workers) is not int:
            return protocol.err(
                request_id, "bad_request", "scale needs int job_id and workers"
            )
        entry = {"op": "scale", "job_id": job_id, "workers": workers}
        try:
            result = self._apply(entry)
        except KeyError:
            return protocol.err(request_id, "unknown_job", f"job {job_id}")
        except (ValueError, PlanRejected) as exc:
            return protocol.err(request_id, "bad_scale", str(exc))
        # Only a committed scale-in is made durable (fsynced before this
        # ack): a refused, no-op or growth-only request changed nothing
        # and would be replayed, and fail again, on every restart.
        if result["applied"] == "scale_in" and self.state is not None:
            self.state.journal.append(**entry)
        return protocol.ok(request_id, job_id=job_id, **result)

    def _apply_scale(self, job_id: int, workers: int) -> dict:
        """Scale a running elastic job toward ``workers``.

        Shrinking is a one-action plan — which flexible workers leave
        is the schedulers' own rule, ``choose_flex_removals`` — that the
        kernel's executor validates (running job, workers it holds,
        never below the base demand), journals in the plan WAL and
        commits; growing is a *request* — the next epoch's policy
        decides, exactly as it does for every other elastic job.
        """
        job = self.kernel.jobs[job_id]
        current = job.total_workers
        if workers < current:
            removals = SchedulerPolicy.choose_flex_removals(
                self.kernel, job, current - workers
            )
            shed = sum(removals.values())
            if shed < current - workers:
                raise ValueError(
                    f"job holds {shed} flexible workers, cannot shed "
                    f"{current - workers}"
                )
            self.kernel.executor.apply(EpochPlan(
                now=self.kernel.now,
                policy="serve:scale",
                actions=(ScaleIn(
                    job_id=job_id, removals=tuple(removals.items()),
                    staged=False,
                ),),
            ))
            return {"workers": job.total_workers, "applied": "scale_in"}
        if job_id not in self.kernel.running or not job.elastic:
            raise ValueError("job is not a running elastic job")
        if workers > current:
            # growth is the policy's call: record the wish, run an epoch
            self.kernel.trigger_schedule()
            return {"workers": current, "applied": "requested"}
        return {"workers": current, "applied": "noop"}

    def _op_stats(self, request_id) -> dict:
        snap = self.obs.registry.snapshot()
        state = self.state
        return protocol.ok(
            request_id,
            now=self.kernel.now,
            epochs=self._epochs,
            epochs_skipped=self.kernel._epochs_skipped,
            plans_applied=self.kernel.executor.plans_applied,
            pending=len(self.kernel.pending),
            running=len(self.kernel.running),
            jobs=len(self.kernel.jobs),
            draining=self.draining,
            timers_armed=self.driver.timers_armed,
            callback_errors=self.driver.callback_errors,
            recovered_jobs=self.recovered_jobs,
            replayed_requests=self.replayed_requests,
            snapshots_written=state.snapshots_written if state else 0,
            last_snapshot_bytes=state.snapshot_bytes if state else 0,
            logged_bytes_since_snapshot=(
                state.logged_since_snapshot if state else 0
            ),
            snapshot_kernel_time=state.snapshot_kernel_time if state else None,
            wal_appended=state.wal.appended if state else 0,
            metrics=snap,
        )

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------
    async def _stream_events(self, request_id, writer) -> None:
        queue: asyncio.Queue = asyncio.Queue(maxsize=SUBSCRIBER_QUEUE)
        self._subscribers.append(queue)
        writer.write(protocol.encode(protocol.ok(request_id, subscribed=True)))
        try:
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:  # shutdown sentinel
                    break
                writer.write(protocol.encode(event))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._subscribers.remove(queue)
