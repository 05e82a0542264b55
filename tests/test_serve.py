"""Tests for the serving daemon: protocol, wall-clock driver, service.

The service tests run a real :class:`SchedulerService` on an ephemeral
port inside ``asyncio.run`` (the suite has no async test plugin), with
``time_scale`` cranked up so kernel-time jobs finish in wall
milliseconds.  The durability test follows the daemon's actual crash
story: hard-abandon a service mid-flight (no final snapshot), restart
on the same state directory, and require every acked job back.
"""

import asyncio
import contextlib
import json
import pickle
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.core.kernel import SimulationConfig
from repro.obs import Observability
from repro.scenarios import SCHEMES, wire_scheme
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError
from repro.serve.driver import WallClockDriver
from repro.serve.service import SchedulerService


def _pair():
    return ClusterPair(
        make_training_cluster(2), make_inference_cluster(2)
    )


def _service(**kw):
    interval = kw.pop("interval", 1.0)
    policy = kw.pop("policy", FIFOScheduler)
    scheme = kw.pop("scheme", None)
    kw.setdefault("time_scale", 500.0)
    if scheme is None:
        policy, config = policy(), SimulationConfig(scheduler_interval=interval)
    else:
        # the way ``repro serve --scheme`` builds its kernel
        policy, config, kw["orchestrator"] = wire_scheme(
            scheme,
            sim_overrides={
                "scheduler_interval": interval,
                "orchestrator_interval": 5.0,
            },
        )
    return SchedulerService(_pair(), policy, config, port=0, **kw)


def run_with_service(body, **service_kw):
    """Start a daemon, run ``body(service, client)``, tear down."""

    async def main():
        service = _service(**service_kw)
        await service.start()
        server = asyncio.ensure_future(service.serve_forever())
        client = await ServeClient.connect(service.host, service.port)
        try:
            return await body(service, client)
        finally:
            await client.close()
            await service.stop()
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

    return asyncio.run(main())


async def _crash(service, server, client):
    """The hard kill: no drain, no stop(), no final snapshot."""
    await client.close()
    server.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await server
    service._server.close()
    service.state.close()


@contextlib.asynccontextmanager
async def daemon_life(state_dir, *, crash=False, **service_kw):
    """One daemon generation on ``state_dir``, yielding ``(service,
    client)``; ends in a graceful stop, or — ``crash`` — a hard kill."""
    service = _service(state_dir=state_dir, interval=1.0, **service_kw)
    await service.start()
    server = asyncio.ensure_future(service.serve_forever())
    client = await ServeClient.connect(service.host, service.port)
    try:
        yield service, client
    finally:
        if crash:
            await _crash(service, server, client)
        else:
            await client.close()
            await service.stop()
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server


async def _poll(condition, what, timeout=10.0):
    """Await ``condition()`` (an async predicate) turning truthy."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        value = await condition()
        if value:
            return value
        await asyncio.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


async def killed_daemon(state_dir):
    """One daemon life that ends in a hard kill: five acked submits, the
    third cancelled once running, at least two epoch snapshots on disk.
    Returns the acked job ids (shared with tests/test_durable_state.py)."""
    service = _service(state_dir=state_dir, interval=1.0)
    await service.start()
    server = asyncio.ensure_future(service.serve_forever())
    client = await ServeClient.connect(service.host, service.port)
    acked = [
        await client.submit(duration=5_000.0, max_workers=1, min_workers=1)
        for _ in range(5)
    ]
    await _wait_status(client, acked[0], "running")
    assert await client.cancel(acked[2]) is True
    for _ in range(500):
        if (await client.stats())["snapshots_written"] >= 2:
            break
        await asyncio.sleep(0.01)
    else:
        raise AssertionError("daemon never wrote a second snapshot")
    await _crash(service, server, client)
    return acked


async def _wait_status(client, job_id, status, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        info = await client.query(job_id)
        if info["status"] == status:
            return info
        await asyncio.sleep(0.01)
    raise AssertionError(f"job {job_id} never reached {status!r}")


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        frame = protocol.encode({"op": "ping", "id": 7})
        assert frame.endswith(b"\n")
        assert protocol.decode_line(frame) == {"op": "ping", "id": 7}

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[1,2,3]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"not json\n")

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(protocol.ProtocolError, match="unknown"):
            protocol.spec_from_request(
                {"duration": 10, "max_workers": 1, "job_id": 5}, 0, 0.0
            )

    def test_spec_requires_duration_and_workers(self):
        with pytest.raises(protocol.ProtocolError, match="requires"):
            protocol.spec_from_request({"duration": 10}, 0, 0.0)

    def test_spec_dict_roundtrip(self):
        spec = protocol.spec_from_request(
            {"duration": 10, "max_workers": 2, "elastic": True}, 3, 1.5
        )
        clone = protocol.spec_from_dict(protocol.spec_to_dict(spec))
        assert clone == spec


# ----------------------------------------------------------------------
# wall-clock driver
# ----------------------------------------------------------------------
class TestWallClockDriver:
    def test_unbound_now_is_start_at(self):
        driver = WallClockDriver(start_at=42.0)
        assert driver.now == 42.0

    def test_schedule_before_bind_raises(self):
        with pytest.raises(RuntimeError, match="bind"):
            WallClockDriver().schedule(1.0, ("tick",))

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            WallClockDriver(time_scale=0.0)

    def test_time_scale_maps_kernel_to_wall(self):
        async def main():
            driver = WallClockDriver(time_scale=100.0, start_at=7.0)
            driver.bind(asyncio.get_running_loop())
            t0 = driver.now
            await asyncio.sleep(0.05)
            elapsed = driver.now - t0
            assert 2.0 < elapsed < 60.0  # ~5 kernel-s, generous bounds
            assert driver.now >= 7.0

        asyncio.run(main())

    def test_callback_errors_are_swallowed(self):
        async def main():
            driver = WallClockDriver(time_scale=1000.0)
            driver.bind(asyncio.get_running_loop())

            def boom(tag):
                raise RuntimeError(f"kernel bug firing {tag!r}")

            driver.on_timer = boom
            driver.schedule_after(0.0, ("tick",))
            await asyncio.sleep(0.05)
            assert driver.callback_errors == 1
            assert driver.timers_armed == 1

        asyncio.run(main())

    def test_pickle_carries_kernel_time_not_loop(self):
        async def main():
            driver = WallClockDriver(time_scale=50.0, start_at=10.0)
            driver.bind(asyncio.get_running_loop())
            await asyncio.sleep(0.02)
            frozen = pickle.loads(pickle.dumps(driver))
            assert frozen.time_scale == 50.0
            # restored time resumes from (roughly) the pickling instant
            assert frozen.now >= 10.0
            assert abs(frozen.now - driver.now) < 60.0
            # ... and the loop stayed behind: nothing arms before bind()
            with pytest.raises(RuntimeError, match="before bind"):
                frozen.schedule(frozen.now, ("tick",))

        asyncio.run(main())


class _HandLoop:
    """The two loop members the driver uses, cranked by the test."""

    def __init__(self):
        self.clock = 0.0
        self.calls = []

    def time(self):
        return self.clock

    def call_later(self, delay, callback, *args):
        self.calls.append((self.clock + delay, callback, args))

    def fire(self, index):
        """Run one outstanding call (any order: a late timer is legal)."""
        due, callback, args = self.calls.pop(index % len(self.calls))
        self.clock = max(self.clock, due)
        callback(*args)


ORCH_EVERY = 30.0

_DRIVER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("arm"), st.floats(min_value=0.0, max_value=90.0)),
        st.tuples(st.just("fire"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("restart"), st.just(0)),
        # the per-epoch snapshot: taken inside a firing timer's handler
        st.tuples(
            st.just("fire_snapshotting_then_restart"),
            st.integers(min_value=0, max_value=50),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_DRIVER_OPS)
def test_property_the_armed_set_is_the_models(ops):
    """Arm / fire / pickle / bind in any order against a list model: a
    fired tag never comes back, an unfired one always does, at its own
    instant — and a cadence that re-arms itself when it fires (the
    service's ``("orch",)``, armed once on the fresh driver) is armed
    exactly once across any number of restarts."""
    model = []  # [(when, tag)], unfired
    fired = []
    state = {"snapshot_in_handler": False, "snapshot": None, "serial": 0}

    def arm(delay, tag):
        model.append((driver.now + delay, tag))
        driver.schedule_after(delay, tag)

    def on_timer(tag):
        fired.append(tag)
        [entry] = [e for e in model if e[1] == tag]
        model.remove(entry)
        assert driver.now >= entry[0] - 1e-6  # never before its instant
        if tag == ("orch",):
            arm(ORCH_EVERY, tag)
        elif state["snapshot_in_handler"]:
            state["snapshot"] = pickle.dumps(driver)

    def boot(blob=None):
        """A process start: a fresh driver, or one restored from
        ``blob``, bound to a fresh loop."""
        fresh = pickle.loads(blob) if blob else WallClockDriver(2.0)
        fresh.on_timer = on_timer
        loop = _HandLoop()
        fresh.bind(loop)
        # every unfired timer is armed again, as far off as it was
        assert sorted(due for due, _, _ in loop.calls) == pytest.approx(
            sorted(max(0.0, when - fresh.now) / 2.0 for when, _ in model)
        )
        return fresh, loop

    driver, loop = boot()
    arm(ORCH_EVERY, ("orch",))
    for op, arg in ops:
        if op == "arm":
            state["serial"] += 1
            arm(arg, ("t", state["serial"]))
        elif op == "fire":
            loop.fire(arg)
        elif op == "restart":
            driver, loop = boot(pickle.dumps(driver))
        else:
            state["snapshot"] = None
            state["snapshot_in_handler"] = True
            loop.fire(arg)
            state["snapshot_in_handler"] = False
            driver, loop = boot(state["snapshot"] or pickle.dumps(driver))
        assert len(loop.calls) == len(model)
        assert [tag for _, tag in model].count(("orch",)) == 1
    # drain: everything still armed fires, once, nothing else does
    expected = sorted(tag for _, tag in model if tag != ("orch",))
    fired.clear()
    while any(tag != ("orch",) for _, tag in model):
        loop.fire(0)
    assert sorted(tag for tag in fired if tag != ("orch",)) == expected


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class TestServiceLifecycle:
    def test_submit_runs_to_completion(self):
        async def body(service, client):
            assert (await client.ping())["draining"] is False
            job_id = await client.submit(
                duration=20.0, max_workers=1, min_workers=1
            )
            info = await _wait_status(client, job_id, "finished")
            assert info["start_time"] is not None
            assert info["finish_time"] > info["submit_time"]
            summary = await client.query()
            assert summary["finished"] == 1
            assert summary["pending"] == 0

        run_with_service(body)

    def test_burst_batches_into_few_epochs(self):
        async def body(service, client):
            for _ in range(10):
                await client.submit(duration=30.0, max_workers=1)
            for job_id in range(10):
                await _wait_status(client, job_id, "finished")
            stats = await client.stats()
            # one admission epoch would be ideal; allow a little skew
            # between the burst and the first tick, but nothing like
            # one epoch per request
            assert stats["epochs"] < 10
            assert stats["plans_applied"] <= stats["epochs"]

        run_with_service(body, interval=2.0)

    def test_unknown_op_and_unknown_job(self):
        async def body(service, client):
            with pytest.raises(ServeError) as exc:
                await client.request("frobnicate")
            assert exc.value.code == "unknown_op"
            with pytest.raises(ServeError) as exc:
                await client.query(999)
            assert exc.value.code == "unknown_job"
            with pytest.raises(ServeError) as exc:
                await client.submit(duration=10.0, max_workers=1,
                                    job_id=5)
            assert exc.value.code == "bad_request"

        run_with_service(body)

    def test_admission_control_sheds_load(self):
        async def body(service, client):
            # base demand 16 GPUs fills both servers; everything behind
            # it queues
            await client.submit(duration=10_000.0, max_workers=16,
                                min_workers=16)
            accepted, rejected = 0, 0
            for _ in range(8):
                try:
                    await client.submit(duration=100.0, max_workers=1)
                    accepted += 1
                except ServeError as exc:
                    assert exc.code == "queue_full"
                    rejected += 1
            assert rejected > 0
            stats = await client.stats()
            assert stats["pending"] <= 3 + 1  # max_pending, + in-flight

        run_with_service(body, max_pending=3, interval=0.5)

    def test_cancel_pending_and_running(self):
        async def body(service, client):
            blocker = await client.submit(
                duration=10_000.0, max_workers=16, min_workers=16
            )
            await _wait_status(client, blocker, "running")
            queued = await client.submit(duration=100.0, max_workers=1)
            assert await client.cancel(queued) is True
            assert await client.cancel(queued) is False  # idempotent
            assert await client.cancel(blocker) is True
            with pytest.raises(ServeError):
                await client.query(blocker)  # cancelled jobs are gone

        run_with_service(body)

    def test_scale_running_elastic_job(self):
        async def body(service, client):
            job_id = await client.submit(
                duration=2_000.0, max_workers=4, min_workers=1,
                elastic=True,
            )
            await _wait_status(client, job_id, "running")
            info = await client.query(job_id)
            shrunk = await client.scale(job_id, 1)
            assert shrunk["applied"] in ("scale_in", "noop")
            assert shrunk["workers"] <= info["workers"]
            grown = await client.scale(job_id, 4)
            assert grown["applied"] in ("requested", "noop")
            with pytest.raises(ServeError) as exc:
                await client.scale(job_id, 0)
            assert exc.value.code == "bad_scale"

        run_with_service(body)

    def test_event_stream_delivers_lifecycle(self):
        async def body(service, client):
            subscriber = await ServeClient.connect(
                service.host, service.port
            )
            events = await subscriber.subscribe()
            seen = []

            async def consume():
                async for event in events:
                    seen.append(event)

            task = asyncio.create_task(consume())
            job_id = await client.submit(duration=20.0, max_workers=1)
            await _wait_status(client, job_id, "finished")
            await asyncio.sleep(0.05)
            kinds = {e["kind"] for e in seen}
            assert {"submit", "schedule_epoch", "start", "finish"} <= kinds
            assert any(e["job_id"] == job_id and e["kind"] == "finish"
                       for e in seen)
            task.cancel()
            await subscriber.close()

        run_with_service(body)

    def test_drain_stops_admission_then_resolves(self):
        async def body(service, client):
            await client.submit(duration=30.0, max_workers=1)
            assert await client.drain(timeout=5.0) is True
            with pytest.raises(ServeError) as exc:
                await client.submit(duration=10.0, max_workers=1)
            assert exc.value.code == "draining"
            stats = await client.stats()
            assert stats["running"] == 0 and stats["pending"] == 0

        run_with_service(body)

    def test_latency_histogram_is_recorded(self):
        async def body(service, client):
            job_id = await client.submit(duration=20.0, max_workers=1)
            await _wait_status(client, job_id, "finished")
            stats = await client.stats()
            hists = stats["metrics"]["histograms"]
            latency = hists["serve.submit_to_scheduled_s"]
            assert latency["count"] == 1
            assert latency["p99"] >= 0.0

        run_with_service(body)

    def test_a_scheme_orchestrator_ticks_and_rearms_across_a_restart(
        self, tmp_path
    ):
        """A loaning scheme wired the way the CLI wires it: the daemon's
        own ``("orch",)`` cadence fires, re-arms itself, comes back armed
        exactly once in a restored kernel and keeps ticking — and, with
        no utilization trace to offer against, loans nothing."""
        state_dir = tmp_path / "state"

        def orch_timers(service):
            armed = service.driver._armed.values()
            return sum(tag == ("orch",) for _when, tag in armed)

        async def life(crash):
            async with daemon_life(
                state_dir, crash=crash, scheme="lyra_loaning"
            ) as (service, client):
                assert service.kernel.orchestrator is not None
                before = (await client.stats())["plans_applied"]

                async def ticked_twice():
                    stats = await client.stats()
                    return stats["plans_applied"] >= before + 2

                # nothing is submitted: only orchestrator ticks plan
                await _poll(ticked_twice, "two orchestrator ticks")
                assert orch_timers(service) == 1
                assert service.kernel.pair.loaned_count == 0
                if crash:
                    # a running job's epoch leaves the snapshot to restore
                    job_id = await client.submit(
                        duration=50_000.0, max_workers=1, min_workers=1
                    )
                    await _wait_status(client, job_id, "running")
                return service.recovered_jobs, before

        assert asyncio.run(life(crash=True))[0] == 0
        recovered, carried = asyncio.run(life(crash=False))
        # restored, not rebuilt: the job and the plan count came back
        assert recovered == 1 and carried >= 2


class TestServeDurability:
    def test_kill_and_restart_loses_no_acked_job(self, tmp_path):
        """Hard-kill equivalence: acked work survives without the final
        snapshot — some jobs from the last epoch snapshot, the rest
        replayed from the request journal."""
        state_dir = tmp_path / "state"

        async def first_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            acked = []
            for i in range(6):
                acked.append(await client.submit(
                    duration=5_000.0, max_workers=1, min_workers=1
                ))
                if i == 3:
                    # let an epoch (and its snapshot) happen mid-burst
                    await _wait_status(client, acked[0], "running")
            stats = await client.stats()
            assert stats["snapshots_written"] >= 1
            await client.close()
            # the crash: no drain, no stop(), no final snapshot
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server
            service._server.close()
            service.state.journal.close()
            return acked

        acked = asyncio.run(first_life())

        async def second_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            try:
                assert service.recovered_jobs + service.replayed_requests \
                    >= len(acked)
                summary = await client.query()
                alive = (summary["pending"] + summary["running"]
                         + summary["finished"])
                assert alive == len(acked)
                for job_id in acked:
                    info = await client.query(job_id)
                    assert info["status"] in (
                        "pending", "running", "finished"
                    )
                stats = await client.stats()
                assert stats["recovered_jobs"] > 0
            finally:
                await client.close()
                await service.stop()
                server.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await server

        asyncio.run(second_life())

    def test_restart_does_not_duplicate_snapshotted_jobs(self, tmp_path):
        state_dir = tmp_path / "state"

        async def first_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            job_id = await client.submit(
                duration=5_000.0, max_workers=1, min_workers=1
            )
            await _wait_status(client, job_id, "running")
            await client.close()
            await service.stop()  # graceful: final snapshot
            server.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await server

        asyncio.run(first_life())

        async def second_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            try:
                # the journal entry is also covered by the snapshot; the
                # replay guard must not double-register the job
                assert len(service.kernel.jobs) == 1
                assert service.kernel.metrics.submissions == 1
            finally:
                await service.stop(final_snapshot=False)

        asyncio.run(second_life())

    def test_cancel_that_lost_the_race_is_not_journaled(self, tmp_path):
        """A cancel answered ``cancelled: false`` (the job had already
        finished) must not be made durable: replayed after a kill onto
        older state where the job still exists, it would remove a job
        the client was told had finished."""
        state_dir = tmp_path / "state"

        async def first_life():
            # epochs at least 10,000 kernel-seconds apart: the only
            # snapshot is the first epoch's, where ``done`` still runs
            service = _service(state_dir=state_dir, interval=10_000.0)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            done = await client.submit(duration=20.0, max_workers=1)
            victim = await client.submit(duration=50_000.0, max_workers=1)
            await _wait_status(client, done, "finished")
            assert (await client.stats())["snapshots_written"] == 1
            assert await client.cancel(done) is False
            assert await client.cancel(999) is False
            # a cancel that takes effect is still journaled
            assert await client.cancel(victim) is True
            await client.close()
            server.cancel()  # the crash: no stop(), no final snapshot
            with contextlib.suppress(asyncio.CancelledError):
                await server
            service._server.close()
            ops = [
                (e["op"], e.get("job_id"))
                for e in service.state.journal.entries_after(0)
            ]
            service.state.journal.close()
            return done, victim, ops

        done, victim, ops = asyncio.run(first_life())

        async def second_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            try:
                assert done in service.kernel.jobs
                assert victim not in service.kernel.jobs
            finally:
                await service.stop(final_snapshot=False)

        asyncio.run(second_life())
        assert ops == [("submit", None), ("submit", None), ("cancel", victim)]

    def test_restart_without_a_snapshot_replays_the_journal(self, tmp_path):
        """With every snapshot deleted or torn, the request journal alone
        rebuilds the world: each acked, un-cancelled job is back, the
        cancelled one is not, and new ids do not collide with old."""
        state_dir = tmp_path / "state"
        acked = asyncio.run(killed_daemon(state_dir))
        snapshots = sorted(state_dir.glob("snapshot-*.ckpt"))
        assert snapshots
        snapshots[-1].write_bytes(snapshots[-1].read_bytes()[:40])  # torn
        for path in snapshots[:-1]:
            path.unlink()

        async def second_life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            try:
                assert service.recovered_jobs == 0  # nothing from a snapshot
                assert service.replayed_requests == len(acked) + 1
                for job_id in acked:
                    if job_id == acked[2]:
                        with pytest.raises(ServeError) as exc:
                            await client.query(job_id)
                        assert exc.value.code == "unknown_job"
                    else:
                        info = await client.query(job_id)
                        assert info["status"] in ("pending", "running")
                fresh = await client.submit(duration=10.0, max_workers=1)
                assert fresh == max(acked) + 1
            finally:
                await client.close()
                await service.stop()
                server.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await server

        asyncio.run(second_life())

    def test_cancelled_job_id_is_not_reissued_after_a_restart(self, tmp_path):
        """Submit 0,1,2, cancel the newest, stop cleanly, restart: the
        next submit must not be acked as job 2 again — a client still
        holding the old id would query or cancel someone else's job."""
        state_dir = tmp_path / "state"

        async def first_life(service, client):
            acked = [
                await client.submit(duration=5_000.0, max_workers=1)
                for _ in range(3)
            ]
            assert await client.cancel(acked[-1]) is True
            return acked

        acked = run_with_service(first_life, state_dir=state_dir)

        async def second_life(service, client):
            assert set(service.kernel.jobs) == set(acked[:-1])
            return await client.submit(duration=10.0, max_workers=1)

        fresh = run_with_service(second_life, state_dir=state_dir)
        assert fresh not in acked
        assert fresh == max(acked) + 1

    def test_rejected_scale_is_not_journaled(self, tmp_path):
        """Only a scale-in that commits is made durable: refused, no-op
        and growth-only requests change nothing, so journaling them
        would only replay (and fail) them on every restart."""

        async def body(service, client):
            job_id = await client.submit(
                duration=50_000.0, max_workers=4, min_workers=1,
                elastic=True,
            )
            await _wait_status(client, job_id, "running")
            workers = (await client.query(job_id))["workers"]
            assert workers > 1
            journal = service.state.journal
            seq = journal.seq
            for target, code in ((0, "bad_scale"), (-3, "bad_scale")):
                with pytest.raises(ServeError) as exc:
                    await client.scale(job_id, target)
                assert exc.value.code == code
            with pytest.raises(ServeError) as exc:
                await client.scale(999, 1)
            assert exc.value.code == "unknown_job"
            assert (await client.scale(job_id, workers))["applied"] == "noop"
            grown = await client.scale(job_id, workers + 1)
            assert grown["applied"] == "requested"
            assert journal.seq == seq
            assert service.kernel.executor.plans_rejected == 0
            shrunk = await client.scale(job_id, 1)
            assert (shrunk["applied"], shrunk["workers"]) == ("scale_in", 1)
            assert journal.seq == seq + 1
            assert journal.entries_after(seq) == [
                {"seq": seq + 1, "op": "scale", "job_id": job_id,
                 "workers": 1}
            ]

        run_with_service(
            body, policy=LyraScheduler, state_dir=tmp_path / "state",
            interval=10_000.0,
        )

    def test_scale_in_is_a_plan_and_survives_a_kill(self, tmp_path):
        """The ``scale`` op commits through the kernel's executor — one
        more applied plan, one more WAL entry, one ``plan.provenance``
        ledger record under policy ``serve:scale`` — and a
        kill right after the ack loses nothing: the snapshot predates
        the shrink, the journal replays it."""
        state_dir = tmp_path / "state"
        obs = Observability.enabled()

        async def first_life():
            # one epoch only (the next is 10,000 kernel-seconds away), so
            # the snapshot on disk holds the job at full size
            service = _service(policy=LyraScheduler, state_dir=state_dir,
                               interval=10_000.0, obs=obs)
            await service.start()
            server = asyncio.ensure_future(service.serve_forever())
            client = await ServeClient.connect(service.host, service.port)
            job_id = await client.submit(
                duration=50_000.0, max_workers=4, min_workers=1,
                elastic=True,
            )
            await _wait_status(client, job_id, "running")
            before = await client.stats()
            assert (await client.query(job_id))["workers"] == 4
            shrunk = await client.scale(job_id, 2)
            assert (shrunk["applied"], shrunk["workers"]) == ("scale_in", 2)
            after = await client.stats()
            assert after["plans_applied"] == before["plans_applied"] + 1
            assert after["wal_appended"] == before["wal_appended"] + 1
            assert after["snapshots_written"] == before["snapshots_written"]
            await _crash(service, server, client)
            return job_id

        job_id = asyncio.run(first_life())
        plans = [e for e in obs.tracer.events
                 if e.name == "plan.provenance"
                 and e.args["policy"] == "serve:scale"]
        assert len(plans) == 1
        assert plans[0].args["pricing"]["by_kind"] == {"scale_in": 1}

        async def second_life():
            service = _service(policy=LyraScheduler, state_dir=state_dir,
                               interval=10_000.0)
            await service.start()
            try:
                job = service.kernel.jobs[job_id]
                assert job_id in service.kernel.running
                assert job.total_workers == 2
                assert service.replayed_requests >= 1
                # the replayed shrink is a journaled plan of this life
                assert service.state.wal.appended == 1
                service.kernel.rm.verify_books()
            finally:
                await service.stop(final_snapshot=False)

        asyncio.run(second_life())

    def test_wal_segments_per_generation(self, tmp_path):
        state_dir = tmp_path / "state"

        async def life():
            service = _service(state_dir=state_dir, interval=1.0)
            await service.start()
            client = None
            server = asyncio.ensure_future(service.serve_forever())
            try:
                client = await ServeClient.connect(
                    service.host, service.port
                )
                job_id = await client.submit(
                    duration=20.0, max_workers=1
                )
                await _wait_status(client, job_id, "finished")
            finally:
                if client is not None:
                    await client.close()
                await service.stop()
                server.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await server

        asyncio.run(life())
        asyncio.run(life())
        segments = sorted(p.name for p in state_dir.glob("wal-gen*.jsonl"))
        assert segments == ["wal-gen0.jsonl", "wal-gen1.jsonl"]

    def test_restart_finishes_a_running_job_on_time(self, tmp_path):
        """The restored timer *is* the armed one: a job 600 s into a
        1,000 s run when the newest snapshot was taken finishes 1,000 s
        after it started, with its completion epoch untouched — not
        1,000 s after the restart (its ``eta()`` is as of its last
        progress update, which is the start)."""
        state_dir = tmp_path / "state"

        async def first_life():
            async with daemon_life(state_dir, crash=True) as (service, client):
                long_job = await client.submit(
                    duration=1_000.0, max_workers=1, min_workers=1
                )
                await _wait_status(client, long_job, "running")

                async def past_600():
                    return (await client.stats())["now"] >= 600.0

                await _poll(past_600, "kernel time 600")
                written = (await client.stats())["snapshots_written"]
                # any request that runs an epoch: its snapshot is the
                # one the restart loads
                await client.submit(duration=10.0, max_workers=1)

                async def snapshotted():
                    stats = await client.stats()
                    return stats["snapshots_written"] > written

                await _poll(snapshotted, "the epoch's snapshot")
                job = service.kernel.jobs[long_job]
                return long_job, job.first_start_time, job.completion_epoch

        long_job, started, epoch = asyncio.run(first_life())

        async def second_life():
            async with daemon_life(state_dir) as (service, client):
                assert service.kernel.now >= 600.0
                job = service.kernel.jobs[long_job]
                assert job.completion_epoch == epoch
                info = await _wait_status(client, long_job, "finished")
                assert job.completion_epoch == epoch
                return info["finish_time"]

        finished = asyncio.run(second_life())
        # on time, give or take a late wall-clock timer (500 kernel
        # seconds = one wall second); re-arming at restart + eta() would
        # land past 1,600
        assert started + 1_000.0 <= finished < started + 1_500.0

    def test_one_observability_bundle_across_a_restart(self, tmp_path):
        """Counters and the trace are state: the restarted daemon
        reports through the bundle that came back with its kernel, not
        through the fresh one its constructor was handed."""
        state_dir = tmp_path / "state"

        async def life():
            async with daemon_life(
                state_dir, obs=Observability.enabled()
            ) as (service, client):
                job_id = await client.submit(
                    duration=5_000.0, max_workers=1, min_workers=1
                )
                await _wait_status(client, job_id, "running")
                return service, job_id, (await client.stats())["metrics"]

        _, _, metrics = asyncio.run(life())
        assert metrics["counters"]["sim.submissions"] == 1
        service, second_job, metrics = asyncio.run(life())
        assert service.obs is service.kernel.obs
        assert metrics["counters"]["sim.submissions"] == 2
        assert metrics["counters"]["serve.requests{op=submit}"] == 2
        trace = tmp_path / "trace.jsonl"
        service.obs.export_trace(str(trace))
        submits = [
            event["job_id"]
            for event in map(json.loads, trace.read_text().splitlines())
            if event.get("name") == "job.submit"
        ]
        assert submits == [second_job - 1, second_job]


@pytest.mark.parametrize("every", [0, -5])
def test_a_snapshot_cadence_below_one_epoch_is_refused(every, tmp_path, capsys):
    """0 or less is an error, not a silent "every epoch": the service
    raises, and ``repro serve`` exits 2 naming the flag."""
    with pytest.raises(ValueError, match=f"at least 1 epoch, got {every}"):
        _service(snapshot_every_epochs=every)
    rc = cli_main(["serve", "--port", "0", "--state-dir", str(tmp_path),
                   "--snapshot-every", str(every)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("bad --snapshot-every: ")


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_cli_serve_starts_every_scheme_it_offers(scheme):
    """``repro serve --scheme X`` for each of the parser's choices boots
    a real daemon process that answers ``ping`` and exits 0 on the
    ``shutdown`` op — the scheme resolved by the function ``run`` uses."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--scheme", scheme,
         "--port", "0", "--time-scale", "50"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(rf"{scheme} listening on [\d.]+:(\d+) ", banner)
        assert match, (banner, proc.stderr.read() if proc.poll() else "")

        async def ping_and_stop():
            client = await ServeClient.connect("127.0.0.1", int(match.group(1)))
            assert (await client.ping())["draining"] is False
            await client.shutdown()
            await client.close()

        asyncio.run(ping_and_stop())
        assert proc.wait(timeout=30) == 0, proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
