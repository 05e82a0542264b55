"""Checkpointing run loop and crash recovery.

A :class:`RecoveryManager` owns a checkpoint directory::

    recovery.json          manifest (schema, cadence)
    wal.jsonl              write-ahead plan journal
    snapshot-NNNNNN.ckpt   full-state snapshots (repro.recovery.codec)

Attached to a simulation (``sim.recovery = manager``), it rides the
engine's run loop as its between-events hook and snapshots the full run
state every ``checkpoint_every`` simulated seconds — always *between*
engine events, so checkpointing never perturbs event order and a
checkpointed run stays byte-identical to a plain one.

Recovery (:meth:`RecoveryManager.recover`) loads the newest snapshot
that passes its checksum (falling back past torn ones), attaches a
fresh manager to it, and resumes.  Because the simulator is
deterministic, the window between the snapshot and the crash is simply
re-executed; the WAL verifies that every re-derived plan in that window
matches what the dead process had already journaled (see
:mod:`repro.recovery.wal`).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Union

from repro.faults.crash import BARRIER_BETWEEN_EVENTS, CrashInjector
from repro.ioutil import atomic_write_text
from repro.recovery.codec import SCHEMA_VERSION, SnapshotStore
from repro.recovery.state import capture_payload, restore_payload
from repro.recovery.wal import PlanWAL

MANIFEST_NAME = "recovery.json"
WAL_NAME = "wal.jsonl"


class RecoveryError(RuntimeError):
    """Recovery is impossible: no usable snapshot, or a bad directory."""


class RecoveryManager:
    """Checkpoints a running simulation and restores killed ones."""

    def __init__(
        self,
        directory: Union[str, Path],
        checkpoint_every: float = 600.0,
        crash: Optional[CrashInjector] = None,
    ):
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        self.directory = Path(directory)
        self.checkpoint_every = float(checkpoint_every)
        self.crash = crash
        self.wal: Optional[PlanWAL] = None
        self.store: Optional[SnapshotStore] = None
        self.checkpoints = 0
        self._sim = None
        self._next_checkpoint = 0.0

    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Wire this manager into ``sim`` and make the directory live."""
        self.store = SnapshotStore(self.directory)
        self._sim = sim
        self.wal = PlanWAL(self.directory / WAL_NAME, registry=sim.obs.registry)
        sim.recovery = self
        sim.executor.wal = self.wal
        sim.executor.crash_probe = self.crash
        atomic_write_text(
            self.directory / MANIFEST_NAME,
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "checkpoint_every": self.checkpoint_every,
                },
                sort_keys=True,
            )
            + "\n",
        )

    def arm_crash(self, crash: Optional[CrashInjector]) -> None:
        """(Re-)arm a crash schedule; used by in-process chaos harnesses
        after each recovery to install the surviving kill points."""
        self.crash = self._sim.executor.crash_probe = crash

    # ------------------------------------------------------------------
    def loop_hook(self):
        """The between-events hook for one run loop (``run`` or
        ``resume``, any number per manager): the first checkpoint is due
        ``checkpoint_every`` from where the run stands as the loop
        starts, whatever an earlier loop left."""
        self._next_checkpoint = self._sim.engine.now + self.checkpoint_every
        return self.between_events

    def between_events(self) -> None:
        """The engine's between-events hook: checkpoint when one is due,
        then honor the crash barrier.  Called with the clock at the
        event just fired (before the first one: where the run stands)."""
        sim = self._sim
        now = sim.engine.now
        if now >= self._next_checkpoint:
            self.checkpoint(sim)
            self._next_checkpoint = now + self.checkpoint_every
        if self.crash is not None:
            self.crash.maybe_fire(BARRIER_BETWEEN_EVENTS, now)

    def checkpoint(self, sim) -> Path:
        """Snapshot ``sim`` to the next numbered file; returns its path."""
        path, size = self.store.write(capture_payload(sim))
        self.checkpoints += 1
        registry = sim.obs.registry
        registry.counter("recovery.checkpoints").inc()
        registry.gauge("recovery.snapshot_bytes").set(size)
        # emitted after capture: the snapshot does not contain the trace
        # of its own creation
        sim.trace(
            "recovery.checkpoint", seq=self.store.seq, snapshot_bytes=size
        )
        return path

    # ------------------------------------------------------------------
    @classmethod
    def recover(cls, directory: Union[str, Path]):
        """Restore the newest usable snapshot in ``directory``.

        Returns the restored simulation, with a fresh manager already
        attached as ``sim.recovery`` — call ``sim.resume()`` to continue
        the run.  Snapshots that fail their checksum (a crash can tear
        at any byte) are skipped in favour of the previous one.
        """
        t0 = time.perf_counter()
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise RecoveryError(f"{directory} is not a recovery directory")
        try:
            manifest = json.loads(manifest_path.read_text())
        except ValueError as exc:
            raise RecoveryError(f"unreadable manifest: {exc}") from exc
        if manifest.get("schema") != SCHEMA_VERSION:
            raise RecoveryError(
                f"recovery directory schema {manifest.get('schema')!r} "
                f"does not match this build (schema {SCHEMA_VERSION})"
            )

        payload, used, skipped = SnapshotStore(directory).load_newest()
        if payload is None:
            raise RecoveryError(
                f"all {len(skipped)} snapshots in {directory} are corrupt"
                if skipped
                else f"{directory} has no snapshots; the run died before "
                "its first checkpoint — rerun from the start"
            )

        sim = restore_payload(payload)
        manager = cls(
            directory,
            checkpoint_every=float(
                manifest.get("checkpoint_every", 600.0)
            ),
        )
        manager.attach(sim)

        registry = sim.obs.registry
        registry.counter("recovery.recoveries").inc()
        registry.histogram("recovery.time_to_recover_s").observe(
            time.perf_counter() - t0
        )
        wal_ahead = sum(
            1
            for pid in manager.wal.plan_ids
            if pid > sim.executor.plans_applied
        )
        sim.trace(
            "recovery.resumed",
            snapshot=used.name,
            snapshots_skipped=len(skipped),
            sim_time=sim.engine.now,
            wal_plans_ahead=wal_ahead,
        )
        return sim
