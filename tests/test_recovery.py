"""Durable state: checkpoint/WAL crash recovery.

The correctness bar is *kill-anywhere restart equivalence*: a run killed
at any crash barrier (between engine events, mid plan-commit, or right
after the WAL append) and recovered from its checkpoint directory must
produce an Activity log byte-identical to the uninterrupted run — which
is pinned by the golden fixture in ``tests/data/golden_logs.json``, so
no reference run is needed here.

Also covered: the snapshot codec's integrity envelope (magic, schema,
checksum), WAL replay idempotence and divergence detection, atomic
artifact writes under a mid-write kill, RNG-stream preservation across
snapshot round-trips, and the zero-cost guarantee when checkpointing is
off.
"""

import json
import pickle
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.core.orchestrator import ResourceOrchestrator
from repro.faults.crash import (
    BARRIER_BETWEEN_EVENTS,
    BARRIERS,
    CrashInjector,
    CrashPoint,
    SimulatedCrash,
    seeded_crash_schedule,
)
from repro.faults.plan import (
    FaultPlan,
    LaunchFailures,
    PredictorBias,
    PredictorOutage,
    resolve_plan,
)
from repro.ioutil import atomic_write, atomic_write_text
from repro.rm.manager import TransientLaunchError
from repro.recovery import (
    SCHEMA_VERSION,
    PlanWAL,
    RecoveryError,
    RecoveryManager,
    SnapshotCodec,
    SnapshotError,
    WALError,
    capture_payload,
    restore_payload,
)
from repro.simulator.simulation import DAY, Simulation, SimulationConfig
from repro.traces.inference import generate_inference_trace
from repro.traces.workload import TraceConfig, generate_workload
from tests.test_equivalence import GOLDEN_PATH, SCENARIOS, digest, run_scenario

KILL_AT = 30000.0
CHECKPOINT_EVERY = 3000.0


def build_sim(name: str, fault_plan=None) -> Simulation:
    """The golden-suite scenario ``name``, built but not run
    (``fault_plan`` replaces the scenario's own)."""
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
    pair = ClusterPair(make_training_cluster(6), make_inference_cluster(8))
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
    return Simulation(
        specs,
        pair,
        policy_fn(),
        inference_trace=trace,
        orchestrator=ResourceOrchestrator() if orchestrated else None,
        config=config,
    )


def killed_run(name: str, directory) -> Simulation:
    """Scenario ``name`` checkpointed into ``directory`` and killed
    between events at KILL_AT; returns the dead process's simulation."""
    sim = build_sim(name)
    manager = RecoveryManager(
        directory,
        checkpoint_every=CHECKPOINT_EVERY,
        crash=CrashInjector([CrashPoint(KILL_AT, BARRIER_BETWEEN_EVENTS)]),
    )
    manager.attach(sim)
    with pytest.raises(SimulatedCrash):
        sim.run()
    return sim


def armed_tags(sim):
    return [tag for _when, _seq, tag in sim.engine.snapshot_events()]


def paused_at(sim, directory, instants):
    """Run ``sim`` to its end, yielding it paused between events at
    each of ``instants`` (a crash barrier that kills nothing)."""
    RecoveryManager(
        directory,
        checkpoint_every=10 * DAY,
        crash=CrashInjector(
            [CrashPoint(t, BARRIER_BETWEEN_EVENTS) for t in instants]
        ),
    ).attach(sim)
    step = sim.run
    for _ in instants:
        with pytest.raises(SimulatedCrash):
            step()
        step = sim.resume
        yield sim
    step()


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# kill-anywhere restart equivalence
# ----------------------------------------------------------------------
class TestKillAnywhereEquivalence:
    @pytest.mark.parametrize("barrier", BARRIERS)
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_killed_run_recovers_byte_identical(
        self, name, barrier, golden, tmp_path
    ):
        sim = build_sim(name)
        manager = RecoveryManager(
            tmp_path,
            checkpoint_every=CHECKPOINT_EVERY,
            crash=CrashInjector([CrashPoint(KILL_AT, barrier)]),
        )
        manager.attach(sim)
        with pytest.raises(SimulatedCrash) as exc:
            sim.run()
        assert exc.value.barrier == barrier
        assert manager.checkpoints > 0
        # every timer the dead process left armed is one dispatch fires
        assert all(sim.handles(tag) for tag in armed_tags(sim))
        del sim

        recovered = RecoveryManager.recover(tmp_path)
        recovered.resume()

        entry = golden[name]
        assert len(recovered.activities) == entry["events"]
        assert digest(recovered.activities) == entry["sha256"], (
            f"scenario {name!r} killed at {barrier} did not recover to the "
            f"golden activity log"
        )
        # the run actually went through the durable machinery
        assert recovered.recovery is not None
        wal = recovered.recovery.wal
        assert wal.appended + wal.replayed > 0
        assert recovered.executor.plans_applied > 0
        if recovered.view is not None:
            recovered.view.assert_consistent()

    def test_checkpointing_alone_is_invisible(self, golden, tmp_path):
        """A checkpointed-but-uninterrupted run is byte-identical to the
        plain run — snapshotting must not perturb the simulation."""
        sim = build_sim("lyra_loaning")
        manager = RecoveryManager(tmp_path, checkpoint_every=CHECKPOINT_EVERY)
        manager.attach(sim)
        sim.run()
        assert digest(sim.activities) == golden["lyra_loaning"]["sha256"]
        assert manager.checkpoints > 0
        assert list(tmp_path.glob("snapshot-*.ckpt"))
        assert (tmp_path / "wal.jsonl").exists()

    def test_disabled_recovery_allocates_nothing(self, golden):
        """With no checkpoint directory the recovery subsystem must cost
        nothing: no objects wired, behaviour bit-identical to pre-PR."""
        sim = run_scenario("lyra_elastic")
        assert sim.recovery is None
        assert sim.executor.wal is None
        assert sim.executor.crash_probe is None
        assert digest(sim.activities) == golden["lyra_elastic"]["sha256"]

    def test_recover_refuses_non_recovery_directory(self, tmp_path):
        with pytest.raises(RecoveryError):
            RecoveryManager.recover(tmp_path)

    def test_recover_skips_corrupt_newest_snapshot(self, golden, tmp_path):
        """A torn newest snapshot falls back to the previous one; the
        recovered run still reaches the golden log."""
        killed_run("fifo_contention", tmp_path)
        snapshots = sorted(tmp_path.glob("snapshot-*.ckpt"))
        assert len(snapshots) >= 2
        # tear the newest snapshot mid-payload
        data = snapshots[-1].read_bytes()
        snapshots[-1].write_bytes(data[: len(data) // 2])

        recovered = RecoveryManager.recover(tmp_path)
        recovered.resume()
        assert digest(recovered.activities) == (
            golden["fifo_contention"]["sha256"]
        )


# ----------------------------------------------------------------------
# snapshot payload round-trip (state surgery, RNG streams)
# ----------------------------------------------------------------------
def _decoded(blob: bytes) -> dict:
    """The in-memory round trip of captured payload bytes: through the
    codec envelope, exactly as a snapshot file would carry them."""
    return SnapshotCodec.decode(SnapshotCodec.encode(blob))


def _resumed_copy_digest(sim) -> str:
    """``sim`` captured, restored and the copy run to its end."""
    restored = restore_payload(_decoded(capture_payload(sim)))
    assert armed_tags(restored) == armed_tags(sim)
    restored.resume()
    return digest(restored.activities)


class TestSnapshotRoundTrip:
    def test_round_trip_preserves_engine_and_rng_streams(self, tmp_path):
        """capture → restore reproduces the event heap, every seeded RNG
        stream, the activity prefix, and both placement books."""
        sim = killed_run("node_failures", tmp_path)
        restored = restore_payload(_decoded(capture_payload(sim)))

        assert restored is not sim
        restored.rm.verify_books()
        assert restored.rm.jobs is restored.jobs
        assert restored.cluster.used_gpus == sim.cluster.used_gpus > 0
        assert restored.engine.now == sim.engine.now
        assert (
            restored.engine.snapshot_events() == sim.engine.snapshot_events()
        )
        assert restored.activities == sim.activities
        # seeded fault streams must continue exactly where they stopped
        inj, rinj = sim.fault_injector, restored.fault_injector
        assert rinj is not None
        assert rinj._rng_process.getstate() == inj._rng_process.getstate()
        assert rinj._rng_target.getstate() == inj._rng_target.getstate()
        assert rinj._rng_launch.getstate() == inj._rng_launch.getstate()
        assert (
            restored.orchestrator.rng.getstate()
            == sim.orchestrator.rng.getstate()
        )
        # the capture left the live sim rewired, not gutted
        assert sim.recovery is not None
        assert sim.executor.wal is not None

    def test_round_trip_preserves_policy_rng(self, tmp_path):
        sim = killed_run("pollux_seeded", tmp_path)
        restored = restore_payload(_decoded(capture_payload(sim)))
        assert restored.policy.rng.getstate() == sim.policy.rng.getstate()

    def test_capture_strips_durable_machinery_from_payload(self, tmp_path):
        """Snapshots never contain the recovery manager, WAL, or crash
        probe — a restored payload starts clean for re-attachment."""
        sim = killed_run("fifo_contention", tmp_path)
        restored = restore_payload(_decoded(capture_payload(sim)))
        assert restored.recovery is None
        assert restored.executor.wal is None
        assert restored.executor.crash_probe is None
        # ... while the live sim keeps its wiring
        assert sim.recovery is not None
        assert sim.executor.wal is not None

    def test_restore_rejects_incomplete_payload(self):
        with pytest.raises(SnapshotError):
            restore_payload({"request_seq": 3})

    @pytest.mark.parametrize(
        "tag", [("warp_drive", 7), ("fault", "process"), ("fault", "meteor")]
    )
    def test_restore_refuses_a_timer_nobody_handles(self, tag, tmp_path):
        """An unknown head, a fault timer with no injector, an unknown
        fault family: refused when the snapshot loads, not when the
        timer would have fired."""
        name = "node_failures" if tag[1] == "meteor" else "fifo_contention"
        payload = _decoded(capture_payload(killed_run(name, tmp_path)))
        engine = payload["sim"].engine
        engine.schedule(engine.now + 1.0, tag)
        with pytest.raises(SnapshotError, match="unknown event tag"):
            restore_payload(payload)

    @pytest.mark.parametrize(
        "plan, instants, families",
        [
            ("stragglers", (5000.0, 10000.0, 40000.0),
             {"straggler", "straggler_end"}),
            ("chaos", (9000.0, 14000.0, 30000.0),
             {"flash", "outage", "straggler", "straggler_end", "process"}),
            ("rack-outage", (6000.0, 20000.0, 25000.0),
             {"outage", "process"}),
            ("flash-crowd", (6000.0, 20000.0, 45000.0), {"flash"}),
        ],
        ids=["stragglers", "chaos", "rack-outage", "flash-crowd"],
    )
    def test_restored_run_resumes_to_the_uninterrupted_log(
        self, plan, instants, families, tmp_path
    ):
        """A run paused at each instant, captured and restored: the
        restored copy resumes to the same log as the original.  The
        armed sets cover every fault timer family, so the restore path
        of each is the path a live run takes — not a crash-only one."""
        sim = build_sim("lyra_loaning", resolve_plan(plan))
        resumed, seen = [], set()
        for paused in paused_at(sim, tmp_path, instants):
            seen.update(
                tag[1] for tag in armed_tags(paused) if tag[0] == "fault"
            )
            resumed.append(_resumed_copy_digest(paused))
        assert seen == families
        assert resumed == [digest(sim.activities)] * len(instants)
        plain = build_sim("lyra_loaning", resolve_plan(plan))
        plain.run()
        assert digest(plain.activities) == digest(sim.activities)

    @pytest.mark.parametrize("at", [6000.0, 12000.0])
    def test_cancelled_jobs_stale_timer_survives_a_restore(
        self, at, tmp_path
    ):
        """A running job cancelled just before a capture leaves its
        completion timer armed, naming a job the table no longer holds:
        the restored run ignores it exactly as the live one does."""
        sim = build_sim("lyra_loaning")
        for paused in paused_at(sim, tmp_path, [at]):
            victim = max(paused.running)
            assert paused.cancel_job(victim) is True
            assert any(
                tag[:2] == ("completion", victim)
                for tag in armed_tags(paused)
            )
            resumed = _resumed_copy_digest(paused)
        assert resumed == digest(sim.activities)


# ----------------------------------------------------------------------
# the snapshot is the object graph: every hook installed, nothing edited
# ----------------------------------------------------------------------
#: installs all three fault hooks (launch gate, predictor outage,
#: predictor bias) and keeps each active around the capture instant
ALL_HOOKS_PLAN = FaultPlan(
    name="all-hooks",
    seed=11,
    launch_failures=LaunchFailures(probability=0.3),
    predictor_outages=(PredictorOutage(at=20000.0, duration=9000.0),),
    predictor_biases=(PredictorBias(at=0.0, duration=DAY, factor=0.8),),
)
CAPTURE_AT = 25000.0


def _last_seen(history):
    """A stand-in usage predictor (module-level, so it pickles by name)."""
    return history[-1]


@pytest.fixture
def hooked(tmp_path):
    """``lyra_loaning`` under ALL_HOOKS_PLAN, paused between events at
    CAPTURE_AT with every detachable hook attached as well: a recovery
    manager (WAL + crash probe), a conformance probe and an event feed —
    the last two as lambdas, which no pickle could carry."""
    sim = build_sim("lyra_loaning", ALL_HOOKS_PLAN)
    sim.orchestrator.predictor = _last_seen
    sim.policy.conformance_probe = lambda name, kind, payload: None
    sim.activity_sink = lambda activity, trace_args: None
    for paused in paused_at(sim, tmp_path, [CAPTURE_AT]):
        yield paused


def _rng_states(sim):
    injector = sim.fault_injector
    return [
        rng.getstate()
        for rng in (
            injector._rng_process, injector._rng_target,
            injector._rng_launch, sim.orchestrator.rng,
        )
    ]


def _hook_draws(sim):
    """What the three fault hooks answer next (draws the launch RNG)."""
    job = next(iter(sim.running.values()))
    server = sim.cluster.servers[0]
    launches = []
    for _ in range(40):
        try:
            sim.rm.launch_gate(job, server, 1)
            launches.append(True)
        except TransientLaunchError:
            launches.append(False)
    return (
        launches,
        sim.orchestrator.predictor([0.25, 0.5]),
        [sim.orchestrator.predictor_down(t) for t in (0.0, 21000.0, 30000.0)],
    )


class TestSnapshotIsTheObjectGraph:
    def test_capture_never_edits_what_it_saves(self, hooked):
        """Every attribute of the kernel and of each hook owner is the
        very object it was (``is``, not ``==``) after a capture, no RNG
        moved, and any number of captures wrap the predictor once."""
        sim = hooked
        assert sim.recovery is not None and sim.executor.wal is not None
        assert sim.executor.crash_probe is not None
        owners = (
            sim, sim.executor, sim.rm, sim.orchestrator, sim.policy,
            sim.fault_injector,
        )
        phases = sim.obs.phases

        def attributes():
            held = [dict(vars(owner)) for owner in owners]
            held.append({n: getattr(phases, n) for n in phases.__slots__})
            return held

        before, rngs = attributes(), _rng_states(sim)
        for _ in range(50):
            capture_payload(sim)
        for was, now in zip(before, attributes()):
            assert was.keys() == now.keys()
            changed = [n for n in was if was[n] is not now[n]]
            assert changed == []
        assert _rng_states(sim) == rngs
        assert sim.orchestrator.predictor.__self__ is sim.fault_injector
        assert sim.fault_injector._predictor_orig is _last_seen

    def test_round_trip_with_every_hook_installed(self, hooked):
        """Hooks that are run state come back installed and bound to the
        restored injector, drawing what the live ones draw; hooks that
        belong to the process are not in the payload at all."""
        sim = hooked
        restored = restore_payload(_decoded(capture_payload(sim)))
        injector = restored.fault_injector
        assert injector is not sim.fault_injector
        assert injector.sim is restored
        assert restored.rm.launch_gate.__self__ is injector
        assert restored.orchestrator.predictor_down.__self__ is injector
        # wrapped once: a second install() on restore would wrap the wrapper
        assert restored.orchestrator.predictor.__self__ is injector
        assert injector._predictor_orig is _last_seen
        assert restored.engine.dispatch.__self__ is restored
        assert restored.recovery is restored.executor.wal is None
        assert restored.activity_sink is restored.executor.crash_probe is None
        assert restored.policy.conformance_probe is None
        assert _rng_states(restored) == _rng_states(sim)
        live = _hook_draws(sim)
        assert False in live[0] and True in live[0]
        assert live[1] == 0.5 * 0.8 and live[2] == [False, True, False]
        assert _hook_draws(restored) == live

    def test_restored_hooks_carry_the_run_to_the_uninterrupted_log(
        self, hooked
    ):
        plain = build_sim("lyra_loaning", ALL_HOOKS_PLAN)
        plain.orchestrator.predictor = _last_seen
        plain.run()
        counters = plain.obs.registry.snapshot()["counters"]
        assert counters["resilience.launch_failures"] > 0
        assert counters["resilience.predictor_biased_ticks"] > 0
        assert _resumed_copy_digest(hooked) == digest(plain.activities)

    def test_foreign_closure_is_a_typed_error_naming_its_holder(self, hooked):
        hooked.rm.launch_gate = lambda job, server, workers: None
        with pytest.raises(SnapshotError, match=r"sim\.rm\.launch_gate"):
            capture_payload(hooked)

    def test_second_loop_starts_its_own_checkpoint_cadence(self, tmp_path):
        """Two run loops through one manager: the second one's first
        checkpoint is due a full interval after *it* starts, not at
        whatever deadline the first loop left behind."""
        sim = build_sim("fifo_contention")
        manager = RecoveryManager(tmp_path, checkpoint_every=5000.0)
        manager.attach(sim)
        # the run drains long before the cut-off, where its clock ends:
        # the deadline the first loop leaves behind is days in the past
        sim.run(until=10 * DAY)
        taken = manager.checkpoints
        assert taken > 0 and sim.now == 10 * DAY
        sim._deadline = sim.now + 1000.0
        sim.resume()
        assert manager.checkpoints == taken


# ----------------------------------------------------------------------
# snapshot file format
# ----------------------------------------------------------------------
class TestSnapshotCodec:
    DECODED = {"sim": ["nested", {"state": 1.5}], "request_seq": 42}
    #: the codec envelopes bytes; pickling is capture_payload's job
    PAYLOAD = pickle.dumps(DECODED, protocol=4)

    def test_encode_decode_round_trip(self):
        data = SnapshotCodec.encode(self.PAYLOAD)
        assert SnapshotCodec.decode(data) == self.DECODED

    def test_dump_load_round_trip(self, tmp_path):
        path = tmp_path / "snapshot-000001.ckpt"
        size = SnapshotCodec.dump(self.PAYLOAD, path)
        assert path.stat().st_size == size
        assert SnapshotCodec.load(path) == self.DECODED

    def test_rejects_bad_magic(self):
        data = SnapshotCodec.encode(self.PAYLOAD)
        with pytest.raises(SnapshotError, match="magic"):
            SnapshotCodec.decode(b"NOTASNAP" + data)

    def test_rejects_truncation(self):
        data = SnapshotCodec.encode(self.PAYLOAD)
        for cut in (len(data) // 2, len(data) - 1, 12):
            with pytest.raises(SnapshotError):
                SnapshotCodec.decode(data[:cut])

    def test_rejects_corrupt_payload(self):
        data = bytearray(SnapshotCodec.encode(self.PAYLOAD))
        data[-1] ^= 0xFF
        with pytest.raises(SnapshotError, match="checksum"):
            SnapshotCodec.decode(bytes(data))

    def test_rejects_foreign_schema(self):
        from repro.recovery.codec import MAGIC

        data = SnapshotCodec.encode(self.PAYLOAD)
        header_len = int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "big")
        start = len(MAGIC) + 4
        header = json.loads(data[start:start + header_len])
        header["schema"] = SCHEMA_VERSION + 1
        raw = json.dumps(header, sort_keys=True).encode()
        forged = (
            MAGIC + len(raw).to_bytes(4, "big") + raw
            + data[start + header_len:]
        )
        with pytest.raises(SnapshotError, match="schema"):
            SnapshotCodec.decode(forged)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotCodec.load(tmp_path / "nope.ckpt")

    def test_recover_refuses_a_directory_an_older_build_wrote(self, tmp_path):
        """Schema 6: the metrics roster is the kernel's job table.  A
        schema-5 directory (its metrics pickled a job list beside the
        table) is refused by its manifest, before any unpickle."""
        killed_run("fifo_contention", tmp_path)
        manifest = tmp_path / "recovery.json"
        current = manifest.read_text()
        manifest.write_text(current.replace('"schema": 6', '"schema": 5'))
        assert manifest.read_text() != current
        with pytest.raises(
            RecoveryError,
            match=r"schema 5 does not match this build \(schema 6\)",
        ):
            RecoveryManager.recover(tmp_path)


# ----------------------------------------------------------------------
# write-ahead plan journal
# ----------------------------------------------------------------------
class _FakePlan:
    def __init__(self, payload):
        self._payload = payload

    def to_dict(self):
        return dict(self._payload)


def _wal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestPlanWAL:
    def test_replay_is_an_idempotent_noop(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        plan = _FakePlan({"actions": ["launch 3"], "epoch": 7})
        wal = PlanWAL(path)
        assert wal.append(1, plan) == "appended"
        wal.close()

        # a recovered run re-derives plan 1 and re-appends it
        wal2 = PlanWAL(path)
        assert wal2.append(1, plan) == "replayed"
        assert wal2.append(1, plan) == "replayed"
        assert wal2.append(2, _FakePlan({"actions": []})) == "appended"
        wal2.close()

        lines = _wal_lines(path)
        plans = [r for r in lines if r["type"] == "plan"]
        noops = [r for r in lines if r["type"] == "noop"]
        # replay never writes a second plan record (no double-commit) —
        # only audit noops
        assert [r["plan_id"] for r in plans] == [1, 2]
        assert [r["plan_id"] for r in noops] == [1, 1]
        assert all(
            n["digest"] == plans[0]["digest"] for n in noops
        )

        # and the journal re-loads cleanly, noops and all
        wal3 = PlanWAL(path)
        assert wal3.plan_ids == [1, 2]

    def test_divergent_replay_is_a_hard_error(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = PlanWAL(path)
        wal.append(1, _FakePlan({"actions": ["launch 3"]}))
        wal.close()
        wal2 = PlanWAL(path)
        with pytest.raises(WALError, match="diverged"):
            wal2.append(1, _FakePlan({"actions": ["preempt 3"]}))

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = PlanWAL(path)
        wal.append(1, _FakePlan({"actions": []}))
        wal.close()
        with path.open("a") as fh:
            fh.write('{"type": "plan", "plan_id": 2, "act')  # crash mid-write

        wal2 = PlanWAL(path)
        assert wal2.plan_ids == [1]
        # the torn plan was never committed; re-journaling it is fresh
        assert wal2.append(2, _FakePlan({"actions": ["x"]})) == "appended"

    def test_interior_corruption_is_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = PlanWAL(path)
        wal.append(1, _FakePlan({"actions": []}))
        wal.close()
        records = path.read_text()
        path.write_text("garbage not json\n" + records)
        with pytest.raises(WALError, match="corrupt"):
            PlanWAL(path)

    def test_tampered_digest_is_rejected(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = PlanWAL(path)
        wal.append(1, _FakePlan({"actions": ["launch 3"]}))
        wal.close()
        record = _wal_lines(path)[0]
        record["actions"] = ["launch 4"]  # edit without re-digesting
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(WALError, match="digest"):
            PlanWAL(path)


# ----------------------------------------------------------------------
# atomic artifact writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_kill_mid_write_leaves_previous_file(self, tmp_path):
        """A process death mid-write (even via BaseException, like
        SimulatedCrash) leaves the old complete file, never a hybrid."""
        path = tmp_path / "report.json"
        atomic_write_text(path, "old complete contents")
        with pytest.raises(SimulatedCrash):
            with atomic_write(path) as fh:
                fh.write("new partial cont")
                raise SimulatedCrash(BARRIER_BETWEEN_EVENTS, 123.0)
        assert path.read_text() == "old complete contents"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_kill_before_first_version_leaves_nothing(self, tmp_path):
        path = tmp_path / "fresh.json"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("part")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_clean_write_replaces(self, tmp_path):
        path = tmp_path / "report.json"
        atomic_write_text(path, "v1")
        atomic_write_text(path, "v2")
        assert path.read_text() == "v2"
        assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
# process-crash chaos plan family
# ----------------------------------------------------------------------
class TestProcessCrashPlan:
    def test_builtin_plan_carries_a_seeded_schedule(self):
        plan = resolve_plan("process-crash")
        assert plan.crashes == seeded_crash_schedule(seed=0, count=3)
        assert not plan.is_empty()

    def test_with_seed_regenerates_seed_derived_schedules(self):
        plan = resolve_plan("process-crash").with_seed(5)
        assert plan.crashes == seeded_crash_schedule(seed=5, count=3)
        # a hand-written schedule is never silently replaced
        custom = FaultPlan(
            name="custom", seed=0, crashes=(CrashPoint(100.0),)
        ).with_seed(5)
        assert custom.crashes == (CrashPoint(100.0),)

    def test_crash_points_round_trip_through_dict(self):
        plan = resolve_plan("process-crash")
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.crashes == plan.crashes
        assert again.to_dict() == plan.to_dict()

    def test_injector_consumes_points_in_order(self):
        schedule = [
            CrashPoint(100.0, BARRIER_BETWEEN_EVENTS),
            CrashPoint(200.0, BARRIER_BETWEEN_EVENTS),
        ]
        injector = CrashInjector(schedule)
        injector.maybe_fire("mid_epoch", 150.0)  # wrong barrier: no fire
        injector.maybe_fire(BARRIER_BETWEEN_EVENTS, 50.0)  # too early
        with pytest.raises(SimulatedCrash) as exc:
            injector.maybe_fire(BARRIER_BETWEEN_EVENTS, 150.0)
        assert exc.value.at == 150.0
        assert injector.remaining() == (schedule[1],)
        assert injector.fired == [schedule[0]]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
_GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: cheap-but-diverse slice of the golden suite for the randomized
#: kill-point property (the full 11×3 grid runs above)
_PROPERTY_SCENARIOS = (
    "fifo_contention",
    "lyra_elastic",
    "lyra_loaning",
    "node_failures",
)


@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(_PROPERTY_SCENARIOS),
    frac=st.floats(min_value=0.1, max_value=0.9),
    barrier=st.sampled_from(BARRIERS),
)
def test_property_random_kill_recovers_byte_identical(name, frac, barrier):
    """Any scenario killed at any random time/barrier and recovered is
    byte-identical to the uninterrupted run."""
    kill_at = round(frac * 60000.0, 3)
    workdir = Path(tempfile.mkdtemp(prefix="repro-recovery-prop-"))
    try:
        sim = build_sim(name)
        manager = RecoveryManager(
            workdir,
            checkpoint_every=CHECKPOINT_EVERY,
            crash=CrashInjector([CrashPoint(kill_at, barrier)]),
        )
        manager.attach(sim)
        try:
            sim.run()
            # a late kill point whose barrier never recurs: the run just
            # completes, and must still match the golden log
            final = sim
        except SimulatedCrash:
            del sim
            final = RecoveryManager.recover(workdir)
            final.resume()
        assert digest(final.activities) == _GOLDEN[name]["sha256"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10 ** 6), max_value=10 ** 6),
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", max_size=12
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    payload=st.dictionaries(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
                max_size=10),
        _JSON_SCALARS,
        max_size=5,
    ).filter(lambda d: not {"type", "plan_id", "digest"} & d.keys()),
    plan_id=st.integers(min_value=1, max_value=10 ** 6),
)
def test_property_wal_replay_idempotent(payload, plan_id):
    """Re-appending any journaled plan — across any number of reopens —
    writes audit noops only, never a second plan record."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-wal-prop-"))
    try:
        path = workdir / "wal.jsonl"
        plan = _FakePlan(payload)
        wal = PlanWAL(path)
        assert wal.append(plan_id, plan) == "appended"
        wal.close()
        for _ in range(2):
            wal = PlanWAL(path)
            assert wal.append(plan_id, plan) == "replayed"
            wal.close()
        plans = [r for r in _wal_lines(path) if r["type"] == "plan"]
        assert len(plans) == 1
        assert plans[0]["plan_id"] == plan_id
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_payload_pickle_survives_codec_protocol():
    """RNG state round-trips at the codec's pinned pickle protocol."""
    import random

    rng = random.Random("7:process")
    [rng.random() for _ in range(100)]
    clone = pickle.loads(pickle.dumps(rng, protocol=4))
    assert clone.getstate() == rng.getstate()
    assert [clone.random() for _ in range(10)] == (
        [rng.random() for _ in range(10)]
    )
