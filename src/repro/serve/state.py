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
  :func:`repro.recovery.state.capture_payload` at epoch boundaries and
  on graceful shutdown, stamped with the request sequence it covers and
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

#: snapshots kept in the state directory; older ones are pruned
KEEP_SNAPSHOTS = 3


class RequestJournal:
    """Append-only fsynced JSONL journal of acked requests."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._log = AppendLog(self.path, separators=(",", ":"))
        entries = self._log.load()
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
        return self._log.load()[seq:]

    def append(self, op: str, **fields) -> int:
        """Durably record one request; returns its sequence number."""
        self.seq += 1
        self._log.append({"seq": self.seq, "op": op, **fields})
        return self.seq

    def close(self) -> None:
        self._log.close()


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

    def _next_generation(self) -> int:
        gens = [
            int(p.stem.split("wal-gen")[1])
            for p in self.directory.glob("wal-gen*.jsonl")
        ]
        return (max(gens) + 1) if gens else 0

    def snapshot(self, kernel) -> Path:
        """Capture the kernel post-epoch; prune old snapshots."""
        path, _ = self.store.write(
            capture_payload(
                kernel,
                request_seq=self.journal.seq,
                generation=self.generation,
            )
        )
        self.snapshots_written += 1
        self.store.prune(KEEP_SNAPSHOTS)
        return path

    def load_kernel(self) -> Optional[Tuple[object, int]]:
        """Restore the newest readable snapshot.

        Returns ``(kernel, request_seq)`` or None when no usable
        snapshot exists (fresh state dir, or every snapshot torn —
        then the journal alone rebuilds the world from empty).
        """
        payload, _, _ = self.store.load_newest()
        if payload is None:
            return None
        return restore_payload(payload), int(payload.get("request_seq", 0))

    def close(self) -> None:
        self.journal.close()
        self.wal.close()
