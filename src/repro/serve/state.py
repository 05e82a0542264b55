"""Durability for the serving daemon: request journal + kernel snapshots.

The simulator's recovery story (snapshot + plan WAL + deterministic
re-execution of the event heap) does not transfer whole to a daemon:
requests arrive from the outside world and cannot be re-derived.  The
serving layer therefore persists *three* artifacts in the state
directory:

* ``requests.jsonl`` — an append-only, fsynced journal of every acked
  state-changing request (submit / cancel / scale), written *before*
  the ack leaves the process.  This is the daemon's source of truth for
  work accepted after the newest snapshot.
* ``snapshot-NNNNNN.ckpt`` — the whole kernel, captured through the
  recovery codec (:mod:`repro.recovery.codec`,
  :func:`repro.recovery.state.capture_payload` — unchanged) at epoch
  boundaries and on graceful shutdown, stamped with the request
  sequence it covers.
* ``wal-genN.jsonl`` — a :class:`~repro.recovery.wal.PlanWAL` attached
  to the kernel's plan executor, one segment per daemon generation.
  Within a generation the usual write-ahead guarantees hold (every
  committed plan journaled before its first effect, digest-checked,
  replay-as-noop); across a kill, plans whose effects post-date the
  newest snapshot are re-derived by replaying the journaled requests,
  so no acked work — and therefore no committed plan's outcome — is
  lost.  Segments are never rewritten: the full WAL history is the
  audit trail of every plan the daemon ever committed.

Restart = load newest readable snapshot (torn snapshots skipped, exactly
like :meth:`repro.recovery.manager.RecoveryManager.recover`), rebind a
fresh wall-clock driver at the snapshot's kernel time, re-arm completion
timers for running jobs, then replay journaled requests with
``seq > snapshot.request_seq`` through the normal admission paths.  With
no readable snapshot the kernel starts empty and the whole journal is
replayed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs import get_logger
from repro.recovery.codec import SnapshotCodec, SnapshotError
from repro.recovery.state import capture_payload
from repro.recovery.wal import PlanWAL
from repro.rm.containers import set_container_id_state

logger = get_logger("serve.state")

_SNAP_PREFIX = "snapshot-"
_SNAP_SUFFIX = ".ckpt"


class RequestJournal:
    """Append-only fsynced JSONL journal of acked requests."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None
        self.seq = 0
        self._entries: List[dict] = []
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        raw = self.path.read_bytes().decode("utf-8", errors="replace")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for i, line in enumerate(lines):
            try:
                entry = json.loads(line)
            except ValueError:
                if i == len(lines) - 1:
                    # torn tail: the request it described was never
                    # acked, so dropping it is exactly correct
                    logger.warning(
                        "%s: dropping torn journal tail", self.path
                    )
                    break
                raise
            self._entries.append(entry)
        self.seq = len(self._entries)

    def entries_after(self, seq: int) -> List[dict]:
        return self._entries[seq:]

    def append(self, op: str, **fields) -> int:
        """Durably record one request; returns its sequence number."""
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self.seq += 1
        entry = {"seq": self.seq, "op": op, **fields}
        self._entries.append(entry)
        self._fh.write(
            (json.dumps(entry, separators=(",", ":")) + "\n").encode("utf-8")
        )
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return self.seq

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class ServeState:
    """The daemon's durable-state manager (all three artifacts)."""

    def __init__(self, directory, keep_snapshots: int = 3):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_snapshots = keep_snapshots
        self.journal = RequestJournal(self.directory / "requests.jsonl")
        self.generation = self._next_generation()
        #: the plan WAL segment for THIS daemon generation; attached to
        #: the kernel's executor by the service
        self.wal = PlanWAL(self.directory / f"wal-gen{self.generation}.jsonl")
        self._snap_seq = self._newest_snapshot_seq()
        self.snapshots_written = 0

    # ------------------------------------------------------------------
    def _next_generation(self) -> int:
        gens = [
            int(p.stem.split("wal-gen")[1])
            for p in self.directory.glob("wal-gen*.jsonl")
        ]
        return (max(gens) + 1) if gens else 0

    def _snapshots(self) -> List[Path]:
        return sorted(self.directory.glob(f"{_SNAP_PREFIX}*{_SNAP_SUFFIX}"))

    def _newest_snapshot_seq(self) -> int:
        snaps = self._snapshots()
        if not snaps:
            return 0
        return int(snaps[-1].name[len(_SNAP_PREFIX):-len(_SNAP_SUFFIX)])

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, kernel) -> Path:
        """Capture the kernel post-epoch; prune old snapshots."""
        payload = capture_payload(kernel)
        payload["request_seq"] = self.journal.seq
        payload["generation"] = self.generation
        self._snap_seq += 1
        path = (
            self.directory
            / f"{_SNAP_PREFIX}{self._snap_seq:06d}{_SNAP_SUFFIX}"
        )
        SnapshotCodec.dump(payload, path)
        self.snapshots_written += 1
        for old in self._snapshots()[: -self.keep_snapshots]:
            old.unlink()
        return path

    def load_kernel(self) -> Optional[Tuple[object, int]]:
        """Restore the newest readable snapshot.

        Returns ``(kernel, request_seq)`` or None when no usable
        snapshot exists (fresh state dir, or every snapshot torn —
        then the journal alone rebuilds the world from empty).
        Torn/corrupt snapshots fall back to the previous one, matching
        the simulator's recovery manager.
        """
        for path in reversed(self._snapshots()):
            try:
                payload = SnapshotCodec.load(path)
            except SnapshotError as exc:
                logger.warning("skipping snapshot %s: %s", path.name, exc)
                continue
            kernel = payload["sim"]
            set_container_id_state(payload["container_seq"])
            # serve-side rewiring (the engine-heap rebind the simulator
            # does has no analogue here: wall-clock timers died with the
            # old process and are re-armed by the service)
            kernel._tick_pending = False
            if kernel.obs.phases.tracer is not None:
                kernel.obs.phases.clock = lambda: kernel.now
            return kernel, int(payload.get("request_seq", 0))
        return None

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.journal.close()
        if self.wal is not None:
            self.wal.close()
