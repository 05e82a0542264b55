"""Durability for the serving daemon: request journal + kernel snapshots.

The simulator's recovery story (snapshot + plan WAL + deterministic
re-execution of the event heap) does not transfer whole to a daemon:
requests arrive from the outside world and cannot be re-derived.  The
serving layer therefore persists *three* artifacts in the state
directory:

* ``requests.jsonl`` — an append-only, fsynced journal (the
  :class:`~repro.recovery.wal.AppendLog` file format) of every acked
  state-changing request (submit / cancel / scale), written *before*
  the ack leaves the process.  This is the daemon's source of truth for
  work accepted after the newest snapshot.
* ``snapshot-NNNNNN.ckpt`` — the whole kernel, captured by
  :func:`repro.recovery.state.capture_payload` when due (below) and on
  graceful shutdown, stamped with the request sequence it covers and
  kept by a :class:`repro.recovery.codec.SnapshotStore`.
* ``wal-genN.jsonl`` — a :class:`~repro.recovery.wal.PlanWAL` attached
  to the kernel's plan executor, one segment per daemon generation.
  Within a generation the usual write-ahead guarantees hold (every
  committed plan journaled before its first effect, digest-checked,
  replay-as-noop); across a kill, plans whose effects post-date the
  newest snapshot are re-derived by replaying the journaled requests,
  so no acked work — and therefore no committed plan's outcome — is
  lost.  Segments are never rewritten: the full WAL history is the
  audit trail of every plan the daemon ever committed.

A snapshot is due at an epoch's end once the journal and this
generation's WAL segment have grown by the newest snapshot's size since
it was taken (0 before the first).  Snapshot bytes stay within the log
bytes plus one snapshot, and a crash rewinds the kernel by under one
snapshot's worth of log as of the last epoch's end, plus the epoch in
flight; every acked request is still fsynced before its ack.

Restart = load newest readable snapshot (torn snapshots skipped, by the
same store the simulator's recovery manager uses), bind its wall-clock
driver — which arms again the timers that were armed at the snapshot —
at the snapshot's kernel time, then replay journaled requests with
``seq > snapshot.request_seq`` through the normal admission paths.  With
no readable snapshot the kernel starts empty and the whole journal is
replayed.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple

from repro.recovery.codec import SnapshotStore
from repro.recovery.state import capture_payload, restore_payload
from repro.recovery.wal import AppendLog, PlanWAL


class RequestJournal:
    """Append-only fsynced JSONL journal of acked requests."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.log = AppendLog(self.path, separators=(",", ":"))
        entries = self.log.load()
        #: sequence number of the newest journaled request
        self.seq = len(entries)
        #: largest job id ever acked (-1: none): new jobs are numbered past
        #: it, so a since-cancelled job's id is never handed out again
        self.max_job_id = max(
            (e["spec"]["job_id"] for e in entries if "spec" in e), default=-1
        )

    def entries_after(self, seq: int) -> List[dict]:
        """Requests newer than ``seq``, read from disk: startup replay
        is the one reader, so nothing is kept in memory."""
        return self.log.load()[seq:]

    def append(self, op: str, **fields) -> int:
        """Durably record one request; returns its sequence number."""
        self.seq += 1
        self.log.append({"seq": self.seq, "op": op, **fields})
        return self.seq

    def close(self) -> None:
        self.log.close()


class ServeState:
    """The daemon's durable-state manager (all three artifacts)."""

    def __init__(self, directory):
        self.store = SnapshotStore(directory)
        self.directory = self.store.directory
        self.journal = RequestJournal(self.directory / "requests.jsonl")
        self.generation = self._next_generation()
        #: the plan WAL segment for THIS daemon generation; attached to
        #: the kernel's executor by the service
        self.wal = PlanWAL(self.directory / f"wal-gen{self.generation}.jsonl")
        self.snapshots_written = 0
        #: the newest snapshot's file size (0: none yet), the log bytes
        #: written when it was taken, and the kernel time it holds
        self.snapshot_bytes = 0
        self._logged_at_snapshot = 0
        self.snapshot_kernel_time: Optional[float] = None

    def _next_generation(self) -> int:
        gens = [
            int(p.stem.split("wal-gen")[1])
            for p in self.directory.glob("wal-gen*.jsonl")
        ]
        return (max(gens) + 1) if gens else 0

    @property
    def logged_since_snapshot(self) -> int:
        """Journal + WAL bytes appended since the newest snapshot."""
        logged = self.journal.log.bytes_written + self.wal.log.bytes_written
        return logged - self._logged_at_snapshot

    def epoch_finished(self, kernel) -> None:
        """Snapshot if the logs have grown by the newest one's size."""
        if self.logged_since_snapshot >= self.snapshot_bytes:
            self.snapshot(kernel)

    def snapshot(self, kernel) -> Path:
        """Capture the quiescent kernel; prune old snapshots."""
        path, self.snapshot_bytes = self.store.write(
            capture_payload(
                kernel,
                request_seq=self.journal.seq,
                generation=self.generation,
            )
        )
        self._logged_at_snapshot += self.logged_since_snapshot
        self.snapshot_kernel_time = kernel.now
        self.snapshots_written += 1
        return path

    def load_kernel(self) -> Optional[Tuple[object, int]]:
        """Restore the newest readable snapshot.

        Returns ``(kernel, request_seq)`` or None when no usable
        snapshot exists (fresh state dir, or every snapshot torn —
        then the journal alone rebuilds the world from empty).
        """
        payload, path, _ = self.store.load_newest()
        if payload is None:
            return None
        kernel = restore_payload(payload)
        self.snapshot_bytes = path.stat().st_size
        self.snapshot_kernel_time = kernel.now
        return kernel, int(payload.get("request_seq", 0))

    def close(self) -> None:
        self.journal.close()
        self.wal.close()
