"""Snapshot files: versioned, checksummed, atomic, numbered.

A checkpoint directory (simulator) and a state directory (daemon) keep
their snapshots the same way, through one :class:`SnapshotStore`:
``snapshot-NNNNNN.ckpt`` files whose numbers only grow (a torn file's
number is never reused), loaded newest-first past files that fail their
checks.  A snapshot file is::

    MAGIC (10 bytes) | header length (4 bytes, big-endian) |
    header (JSON: schema version, sha256, payload size) |
    payload (pickle protocol 4)

The codec envelopes payload *bytes*: the one ``pickle.dumps`` of a
snapshot happens in :func:`repro.recovery.state.capture_payload`, which
hands its result here.  The checksum covers the payload, so torn or
bit-rotted snapshots are detected at load time and the snapshot store
falls back to the previous one.  The schema version gates pickle
compatibility: a codec refuses payloads written by a different schema
rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.ioutil import atomic_write_bytes
from repro.obs.log import get_logger

logger = get_logger("recovery.codec")

MAGIC = b"REPROSNAP\x00"
#: 2: live-only container ledger (a schema-1 snapshot would restore
#: stopped containers into it, unfiltered), per-job facts on the Job
#: 3: one topology class keeping the contract book on every run,
#: per-lender orchestrator windows (a schema-2 pair has neither)
#: 4: the payload is the object graph alone — hooks in it by reference,
#: armed timers in both drivers, the container-id counter on the RM (a
#: schema-3 kernel comes back with none of them and nothing re-derives)
#: 5: a worker is a count on the server and job books; the resource
#: manager holds the job table and no container ledger (a schema-4 one
#: comes back with the ledger and without the table)
#: 6: the metrics roster is the kernel's job table, not a list beside it
#: (a schema-5 ``SimulationMetrics`` has the list and no table)
#: 7: every reclaim plan carries its preemption costs, traced or not, and
#: the view holds no job table (a schema-6 WAL journaled untraced
#: reclaims without costs, so its digests no longer match a re-derived
#: plan)
#: 8: a market's lender union is ``repro.cluster.cluster.FederatedCluster``
#: and its orchestrator a plain ``ResourceOrchestrator`` (a schema-7 market
#: run pickled both from the ``repro.market`` package, now one module that
#: defines neither)
#: 9: the orchestrator holds no predictor, forecast window or loan-freeze
#: switch, and a fault plan no predictor biases (a schema-8 snapshot
#: pickled all three, and an injector holding the wrapped predictor)
#: 10: a job has no ``scale_ops`` slot and the kernel config no
#: ``preemption_overhead`` field (a schema-9 snapshot pickled both)
#: 11: the kernel config has no plan-recording switch and the kernel no
#: list of recorded plans; a traced run's pending triggers are dicts; the
#: orchestrator and the view hold no headroom or on-loan cost default of
#: their own (a schema-10 snapshot pickled all of them, its triggers as
#: instances of a class this build does not have)
#: 12: a job pickles as its slot values in order, without the flex-item
#: cache; the kernel drops its running-elastic index and the resource
#: manager its derived check, and restore re-derives all three
#: 13: the kernel holds the phase clock (``phase_stats`` and its span
#: counters) and the observability bundle no phase profiler (a schema-12
#: snapshot pickled a profiler of a module this build does not have)
SCHEMA_VERSION = 13

#: pinned pickle protocol: snapshots written on 3.9 load on 3.12
PICKLE_PROTOCOL = 4

SNAPSHOT_GLOB = "snapshot-*.ckpt"


class SnapshotError(RuntimeError):
    """A snapshot file is missing, torn, corrupt, or from another schema."""


class SnapshotCodec:
    """Encodes/decodes snapshot payloads with integrity checking."""

    @staticmethod
    def encode(blob: bytes) -> bytes:
        header = json.dumps(
            {
                "schema": SCHEMA_VERSION,
                "sha256": hashlib.sha256(blob).hexdigest(),
                "payload_bytes": len(blob),
            },
            sort_keys=True,
        ).encode("utf-8")
        return MAGIC + len(header).to_bytes(4, "big") + header + blob

    @staticmethod
    def decode(data: bytes) -> Dict[str, Any]:
        if not data.startswith(MAGIC):
            raise SnapshotError("bad magic: not a repro snapshot")
        offset = len(MAGIC)
        if len(data) < offset + 4:
            raise SnapshotError("truncated snapshot header length")
        header_len = int.from_bytes(data[offset:offset + 4], "big")
        offset += 4
        raw_header = data[offset:offset + header_len]
        if len(raw_header) < header_len:
            raise SnapshotError("truncated snapshot header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as exc:
            raise SnapshotError(f"unreadable snapshot header: {exc}") from exc
        if header.get("schema") != SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema {header.get('schema')!r} does not match "
                f"this codec (schema {SCHEMA_VERSION})"
            )
        blob = data[offset + header_len:]
        if len(blob) != header.get("payload_bytes"):
            raise SnapshotError(
                f"snapshot payload is {len(blob)} bytes, header promised "
                f"{header.get('payload_bytes')}"
            )
        digest = hashlib.sha256(blob).hexdigest()
        if digest != header.get("sha256"):
            raise SnapshotError("snapshot checksum mismatch: payload corrupt")
        try:
            return pickle.loads(blob)
        except Exception as exc:
            # pickle raises no single type (UnpicklingError, ImportError,
            # AttributeError, EOFError, ...): an intact file whose graph
            # this build cannot rebuild is as unusable as a torn one
            raise SnapshotError(f"cannot unpickle snapshot: {exc!r}") from exc

    # ------------------------------------------------------------------
    @classmethod
    def dump(cls, blob: bytes, path: Union[str, Path]) -> int:
        """Atomically write pickled ``blob`` to ``path``; returns byte size."""
        data = cls.encode(blob)
        atomic_write_bytes(path, data)
        return len(data)

    @classmethod
    def load(cls, path: Union[str, Path]) -> Dict[str, Any]:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        return cls.decode(data)


#: snapshots a directory keeps; each write prunes the older ones
KEEP_SNAPSHOTS = 3


class SnapshotStore:
    """Owns the ``snapshot-NNNNNN.ckpt`` files of one directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # atomic_write removes its temp file on an exception, which a
        # SIGKILL mid-snapshot never raises: sweep what such a death left
        for stale in self.directory.glob(SNAPSHOT_GLOB + ".tmp.*"):
            logger.warning("removing stale temp file %s", stale.name)
            stale.unlink()
        paths = self.paths()
        #: number of the newest snapshot on disk, readable or not
        self.seq = int(paths[-1].stem.split("-", 1)[1]) if paths else 0

    def paths(self) -> List[Path]:
        """Every snapshot file, oldest first."""
        return sorted(self.directory.glob(SNAPSHOT_GLOB))

    def write(self, blob: bytes) -> Tuple[Path, int]:
        """Write payload bytes as the next snapshot, then prune to the
        newest :data:`KEEP_SNAPSHOTS`; (path, file size)."""
        self.seq += 1
        path = self.directory / f"snapshot-{self.seq:06d}.ckpt"
        size = SnapshotCodec.dump(blob, path)
        for old in self.paths()[:-KEEP_SNAPSHOTS]:
            old.unlink()
        return path, size

    def load_newest(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[Path], List[Path]]:
        """``(payload, path, skipped)`` of the newest snapshot that passes
        its checks; ``skipped`` lists the newer files passed over, and
        ``payload`` is None when no snapshot in the directory is readable."""
        skipped: List[Path] = []
        for path in reversed(self.paths()):
            try:
                return SnapshotCodec.load(path), path, skipped
            except SnapshotError as exc:
                logger.warning("skipping snapshot %s: %s", path.name, exc)
                skipped.append(path)
        return None, None, skipped
