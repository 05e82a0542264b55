"""Tests for the one durable-state implementation under both drivers.

``repro.recovery`` owns the snapshot directory, the snapshot bytes, the
restore rewiring and the append-only log; the simulator's
``RecoveryManager`` and the daemon's ``ServeState`` are its two clients.
Everything here runs against *both* clients (or both log classes), so a
fix or a regression in the shared code shows on each side.  The
scenario builders are the ones tests/test_recovery.py and
tests/test_serve.py already use.
"""

import asyncio
import json
import pickle
import shutil
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import scenarios
from repro.cli import main
from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import counters
from repro.core.allocation import build_flex_groups
from repro.oracle.refview import ReferenceView
from repro.recovery.codec import (
    PICKLE_PROTOCOL,
    SCHEMA_VERSION,
    SnapshotCodec,
    SnapshotStore,
)
from repro.recovery.manager import RecoveryError, RecoveryManager
from repro.recovery.state import capture_payload, restore_payload
from repro.recovery.wal import PlanWAL, WALError
from repro.serve.state import RequestJournal, ServeState
from tests.test_equivalence import build_scenario
from tests.test_recovery import killed_run
from tests.test_serve import _service, killed_daemon, run_with_service


# ----------------------------------------------------------------------
# the append log, under both record formats
# ----------------------------------------------------------------------
class _Plan:
    def __init__(self, n):
        self.n = n

    def to_dict(self):
        return {"actions": [f"launch {self.n}"]}


#: kind -> (open, append record number n, read back the record numbers)
LOGS = {
    "journal": (
        RequestJournal,
        lambda log, n: log.append("submit", n=n),
        lambda log: [e["n"] for e in log.entries_after(0)],
    ),
    "wal": (
        PlanWAL,
        lambda log, n: log.append(n, _Plan(n)),
        lambda log: log.plan_ids,
    ),
}


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_append_after_a_torn_tail_starts_on_a_fresh_line(kind, tmp_path):
    """A torn tail is cut off the file on open, so the next record is
    not glued onto the fragment and the log reopens a second time."""
    open_log, append, numbers = LOGS[kind]
    path = tmp_path / "log.jsonl"
    log = open_log(path)
    append(log, 1)
    append(log, 2)
    log.close()
    with path.open("ab") as fh:
        fh.write(b'{"seq":3,"op":"sub')  # the process died mid-write

    log = open_log(path)
    assert numbers(log) == [1, 2]
    append(log, 3)
    append(log, 4)
    log.close()

    assert numbers(open_log(path)) == [1, 2, 3, 4]
    for line in path.read_bytes().splitlines():
        json.loads(line)


@pytest.mark.parametrize("kind", sorted(LOGS))
def test_corrupt_interior_line_is_a_typed_error(kind, tmp_path):
    open_log, append, _ = LOGS[kind]
    path = tmp_path / "log.jsonl"
    log = open_log(path)
    append(log, 1)
    log.close()
    path.write_bytes(b"garbage not json\n" + path.read_bytes())
    with pytest.raises(WALError, match=r"log\.jsonl: corrupt .* line 1"):
        open_log(path)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOGS)),
    ops=st.lists(
        st.one_of(
            st.just("append"),
            st.just("reopen"),
            # kill with this fraction of the last record's bytes on disk
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        max_size=12,
    ),
)
def test_property_log_survives_any_cut(kind, ops):
    """Over any sequence of append / kill with the last record cut at
    byte k / reopen, a reopened log holds exactly the completed appends
    and opening never raises."""
    open_log, append, numbers = LOGS[kind]
    workdir = Path(tempfile.mkdtemp(prefix="repro-applog-prop-"))
    try:
        path = workdir / "log.jsonl"
        log = open_log(path)
        completed = []
        for op in ops:
            n = len(completed) + 1
            if op == "append":
                append(log, n)
                completed.append(n)
                continue
            if op != "reopen":
                size = path.stat().st_size if path.exists() else 0
                append(log, n)
                record_bytes = path.stat().st_size - size
                with path.open("r+b") as fh:
                    fh.truncate(size + int(op * record_bytes))
            log.close()
            log = open_log(path)
            assert numbers(log) == completed
        log.close()
        assert numbers(open_log(path)) == completed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_serve_refuses_a_corrupt_journal_with_exit_2(tmp_path, capsys):
    """At the CLI boundary an unreadable requests.jsonl is a one-line
    ``cannot start`` naming file and line, not a JSONDecodeError
    traceback out of SchedulerService.__init__."""
    journal = RequestJournal(tmp_path / "requests.jsonl")
    journal.append("submit", spec={})
    journal.append("submit", spec={})
    journal.close()
    lines = journal.path.read_bytes().split(b"\n")
    lines[0] = lines[0][:10]
    journal.path.write_bytes(b"\n".join(lines))

    rc = main(["serve", "--port", "0", "--state-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot start: ")
    assert "requests.jsonl" in err and "line 1" in err


# ----------------------------------------------------------------------
# the snapshot store, under both clients
# ----------------------------------------------------------------------
async def _restarted(state_dir):
    """A second daemon life on ``state_dir``; (recovered jobs, replayed
    requests, job ids in the kernel)."""
    service = _service(state_dir=state_dir, interval=1.0)
    await service.start()
    try:
        return (
            service.recovered_jobs,
            service.replayed_requests,
            set(service.kernel.jobs),
        )
    finally:
        await service.stop(final_snapshot=False)


@pytest.mark.parametrize(
    "torn",
    ["newest", "all", "newest-schema1", "all-schema1",
     "newest-schema2", "all-schema2", "newest-schema4", "all-schema4"],
)
@pytest.mark.parametrize("client", ["simulator", "daemon"])
def test_store_falls_back_past_torn_snapshots(client, torn, tmp_path):
    """Newest snapshot torn: the previous one is used and the skip is
    reported.  All torn: the simulator cannot recover; the daemon
    rebuilds from its request journal alone.  A snapshot an older build
    wrote (``"schema": 1``, ``2`` or ``4``, intact otherwise) is refused
    the same way."""
    torn, _, old_schema = torn.partition("-")
    if client == "simulator":
        killed_run("fifo_contention", tmp_path)
    else:
        acked = asyncio.run(killed_daemon(tmp_path))
    snapshots = sorted(tmp_path.glob("snapshot-*.ckpt"))
    assert len(snapshots) >= 2
    victims = snapshots[-1:] if torn == "newest" else snapshots
    for path in victims:
        data = path.read_bytes()
        if old_schema:
            # the header is the first thing in the file, as sorted JSON
            damaged = data.replace(
                b'"schema": %d' % SCHEMA_VERSION,
                b'"schema": %d' % int(old_schema[len("schema"):]), 1
            )
            assert damaged != data
        else:
            damaged = data[: len(data) // 2]
        path.write_bytes(damaged)

    payload, used, skipped = SnapshotStore(tmp_path).load_newest()
    assert skipped == victims[::-1]
    if torn == "newest":
        assert used == snapshots[-2]
    else:
        assert payload is None and used is None

    if client == "simulator" and torn == "newest":
        recovered = RecoveryManager.recover(tmp_path)
        assert recovered.engine.now == payload["sim"].engine.now
        # the torn file's number is not reused (older files are pruned,
        # so the count of files on disk is not the newest number)
        assert recovered.recovery.store.seq == int(
            snapshots[-1].stem.split("-", 1)[1]
        )
    elif client == "simulator":
        with pytest.raises(RecoveryError, match="all .* snapshots .* corrupt"):
            RecoveryManager.recover(tmp_path)
    else:
        recovered_jobs, replayed, jobs = asyncio.run(_restarted(tmp_path))
        assert jobs == set(acked) - {acked[2]}  # acked[2] was cancelled
        if torn == "newest":
            assert recovered_jobs > 0
            assert replayed == 6 - payload["request_seq"]
        else:
            assert (recovered_jobs, replayed) == (0, 6)


@pytest.mark.parametrize("client", ["simulator", "daemon"])
def test_opening_a_directory_sweeps_stale_snapshot_temp_files(
    client, tmp_path
):
    """A daemon SIGKILLed mid-snapshot leaves ``<snapshot>.tmp.<pid>``
    behind (atomic_write's cleanup never ran); the next open removes it
    and touches nothing else."""
    stale = tmp_path / "snapshot-000007.ckpt.tmp.12345"
    stale.write_bytes(b"half a snapshot")
    other = tmp_path / "report.json.tmp.12345"
    other.write_bytes(b"not the store's file")
    if client == "simulator":
        RecoveryManager(tmp_path).attach(build_scenario("fifo_contention"))
    else:
        ServeState(tmp_path).close()
    assert not stale.exists()
    assert other.exists()
    assert not list(tmp_path.glob("snapshot-*.ckpt"))


# ----------------------------------------------------------------------
# one snapshot = one serialization
# ----------------------------------------------------------------------
class _PickleSpy:
    def __init__(self, monkeypatch):
        self.dumps = self.loads = 0
        real_dumps, real_loads = pickle.dumps, pickle.loads

        def dumps(*args, **kwargs):
            self.dumps += 1
            return real_dumps(*args, **kwargs)

        def loads(*args, **kwargs):
            self.loads += 1
            return real_loads(*args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps)
        monkeypatch.setattr(pickle, "loads", loads)


def test_checkpoint_serializes_the_kernel_once(tmp_path, monkeypatch):
    sim = killed_run("fifo_contention", tmp_path)
    spy = _PickleSpy(monkeypatch)
    path = sim.recovery.checkpoint(sim)
    assert (spy.dumps, spy.loads) == (1, 0)
    assert SnapshotCodec.load(path)["sim"].engine.now == sim.engine.now


def test_serve_snapshot_serializes_the_kernel_once(tmp_path, monkeypatch):
    async def body(service, client):
        await client.submit(duration=5_000.0, max_workers=1)
        spy = _PickleSpy(monkeypatch)
        path = service.state.snapshot(service.kernel)
        assert (spy.dumps, spy.loads) == (1, 0)
        payload = SnapshotCodec.load(path)
        assert payload["request_seq"] == service.state.journal.seq == 1
        assert payload["generation"] == service.state.generation

    run_with_service(body, state_dir=tmp_path, interval=1.0)


# ----------------------------------------------------------------------
# the snapshot cadence: due once the logs have grown by a snapshot
# ----------------------------------------------------------------------
def _stub_kernel(ballast: int):
    """What a snapshot reads of a kernel, ``ballast`` bytes heavy."""
    return types.SimpleNamespace(
        rm=types.SimpleNamespace(journal=None),
        executor=types.SimpleNamespace(in_flight=False),
        now=float(ballast),
        ballast=b"k" * ballast,
    )


def _logged_on_disk(directory: Path) -> int:
    """Bytes in the request journal and every plan-WAL segment."""
    files = [directory / "requests.jsonl", *directory.glob("wal-gen*.jsonl")]
    return sum(path.stat().st_size for path in files if path.exists())


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("journal"), st.integers(0, 3_000)),
            st.tuples(st.just("wal"), st.integers(0, 40)),
            # an epoch ends on a kernel this heavy
            st.tuples(st.just("epoch"), st.integers(0, 6_000)),
            st.tuples(st.just("restart"), st.just(0)),
        ),
        max_size=30,
    ),
)
def test_property_a_snapshot_is_due_once_the_logs_grew_by_one(ops):
    """Over any sequence of journal appends, WAL appends, epoch ends and
    restarts, an epoch end snapshots iff the journal and WAL bytes on
    disk grew, since the newest snapshot, by at least its file size (0
    before the first; a restart counts from the one it loaded) — so
    every snapshot but the newest is paid for by as many log bytes."""
    workdir = Path(tempfile.mkdtemp(prefix="repro-cadence-prop-"))
    state = ServeState(workdir)
    try:
        last_size, mark, plan_id, sizes = 0, 0, 0, []
        for op, n in ops:
            if op == "journal":
                state.journal.append("submit", pad="j" * n)
            elif op == "wal":
                plan_id += 1
                state.wal.append(plan_id, _Plan(n))
            elif op == "restart":
                state.close()
                state = ServeState(workdir)
                restored = state.load_kernel()
                newest = state.store.paths()[-1:]
                assert (restored is None) == (not newest)
                last_size = newest[0].stat().st_size if newest else 0
                mark = _logged_on_disk(workdir)
            else:
                written = state.snapshots_written
                due = _logged_on_disk(workdir) - mark >= last_size
                state.epoch_finished(_stub_kernel(n))
                assert state.snapshots_written == written + due
                if due:
                    last_size = state.store.paths()[-1].stat().st_size
                    mark = _logged_on_disk(workdir)
                    sizes.append(last_size)
            assert state.snapshot_bytes == last_size
            assert state.logged_since_snapshot == (
                _logged_on_disk(workdir) - mark
            )
        assert sum(sizes[:-1]) <= _logged_on_disk(workdir)
    finally:
        state.close()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# what a snapshot holds: decision state plus the job table
# ----------------------------------------------------------------------
def _drained_lyra_run(num_jobs):
    """A drained, seeded Lyra run at a fixed load on one 6+8-server
    pair.  Usage sampling is off: that time series is the simulator's
    output and grows with simulated time by design."""
    setup = scenarios.default_setup(
        num_jobs=num_jobs, days=num_jobs / 120.0, training_servers=6,
        inference_servers=8, seed=3,
    )
    sim = scenarios.build_sim(
        setup, "lyra", sim_overrides={"sample_interval": 1e12}
    )
    sim.run()
    assert sim.drained
    return sim


def test_snapshot_grows_with_the_job_table_and_little_else():
    """Twice the jobs over twice the time: the pickled kernel may grow
    by the job table's growth and half as much again — not by an entry
    per operation ever run.  The resource manager in particular keeps
    nothing of its own about workers: beside the pair and the job table
    it pickles to the same few bytes after either run."""
    small, large = _drained_lyra_run(60), _drained_lyra_run(120)

    def rm_alone(sim):
        shared = (sim.pair, sim.jobs)
        return len(pickle.dumps(shared + (sim.rm,), PICKLE_PROTOCOL)) - len(
            pickle.dumps(shared, PICKLE_PROTOCOL)
        )

    assert rm_alone(small) == rm_alone(large) < 200

    def table(sim):
        return len(pickle.dumps(sim.jobs, protocol=PICKLE_PROTOCOL))

    table_growth = table(large) - table(small)
    snapshot_growth = len(capture_payload(large)) - len(capture_payload(small))
    assert table_growth > 0
    assert snapshot_growth <= 1.5 * table_growth


#: what a snapshot carries of a job (its values, in this order) and of a
#: kernel: state, not caches — no flex-item cache on the job, no
#: running-elastic index on the kernel
PICKLED_JOB_KEYS = [
    "spec", "status", "remaining_work", "base_placement", "flex_placement",
    "_server_cost", "_onloan_servers", "scaling_model", "first_start_time",
    "finish_time", "last_progress_time", "preemptions", "hetero_penalty",
    "tuning_bonus", "straggler_penalty", "onloan_work", "estimate_error",
    "arrival_hour", "completion_epoch", "preempted_at",
]
PICKLED_KERNEL_KEYS = [
    "_arrivals", "_deadline", "_dropped_triggers", "_engines",
    "_epochs_skipped", "_fail_times", "_heartbeats", "_hour_queued",
    "_hour_submissions", "_last_arrival", "_last_epoch_version",
    "_last_tick", "_open_span", "_pending_triggers", "_scaling",
    "_span_seq", "_tick_pending", "activities", "activity_sink", "cluster",
    "config", "degraded_servers", "driver", "engine", "executor",
    "fault_injector", "inference_trace", "jobs", "metrics", "obs",
    "orchestrator", "pair", "pending", "phase_stats", "policy",
    "profiler", "recovery", "rm", "running", "tracer", "view",
]


def test_a_snapshot_carries_no_derived_state():
    """Mid-run, Lyra has running elastic jobs and priced flex items: a
    snapshot pickles neither the items nor the index.  The restored
    kernel re-derives the index in the running set's order, re-attaches
    the books check, and its jobs reprice on first use."""
    sim = build_scenario("lyra_elastic")
    sim.run(until=50_000.0)
    assert sim.running_elastic
    assert any(job.flex_items for job in sim.jobs.values())
    job = next(iter(sim.running_elastic.values()))
    _, (values,) = job.__reduce__()
    assert values == tuple(getattr(job, name) for name in PICKLED_JOB_KEYS)
    assert sorted(sim.__getstate__()) == PICKLED_KERNEL_KEYS
    clone = pickle.loads(capture_payload(sim))["sim"]
    assert list(clone.running_elastic) == list(sim.running_elastic)
    assert all(job.flex_items is None for job in clone.jobs.values())
    # the occupancy counters are recounted on restore, to the same values
    assert [counters(job) for job in clone.jobs.values()] == [
        counters(job) for job in sim.jobs.values()
    ]
    assert clone.rm.derived_check == clone.verify_derived
    clone.rm.verify_books()


def test_a_restored_view_counts_each_domain_on_small_servers():
    """The view's per-domain GPU totals survive a snapshot on servers
    that do not have the dataclass default of 8 GPUs, loans out: the
    restored view answers like a scan, and the resumed run keeps the
    view consistent after every epoch."""
    sim = build_scenario(
        "lyra_loaning",
        pair_factory=lambda: ClusterPair(
            make_training_cluster(6, 4), make_inference_cluster(8, 4)
        ),
    )
    sim.run(until=50_000.0)
    assert sim.cluster.on_loan_servers
    clone = restore_payload(pickle.loads(capture_payload(sim)))
    reference = ReferenceView(clone.cluster)
    for on_loan in (False, True):
        assert clone.view.domain_gpus(on_loan) == reference.domain_gpus(on_loan)
        assert clone.view.domain_used(on_loan) == reference.domain_used(on_loan)
    finished = clone.epoch_finished

    def audited() -> None:
        clone.view.assert_consistent()
        finished()

    clone.epoch_finished = audited
    clone.resume()


def test_the_books_check_catches_drifted_derived_state():
    """``verify_books`` fails on an index that lost a running elastic
    job and on items that differ from a fresh ``value_fn`` call under
    a key that still matches."""
    sim = build_scenario("lyra_elastic")
    sim.run(until=50_000.0)
    sim.rm.verify_books()
    job_id, job = next(iter(sim.running_elastic.items()))
    del sim.running_elastic[job_id]
    with pytest.raises(RuntimeError, match="running-elastic index"):
        sim.rm.verify_books()
    sim.running_elastic[job_id] = job
    sim.rm.verify_books()
    value_fn = sim.policy.value_fn
    build_flex_groups([job], max_weight=10**6, value_fn=value_fn)
    key, items = job.flex_items
    job.flex_items = (key, [(w, v + 1.0) for w, v in items])
    with pytest.raises(RuntimeError, match="stale flex items"):
        sim.rm.verify_books()
    job.remaining_work *= 0.5  # a moved input: the key misses, no check
    sim.rm.verify_books()
