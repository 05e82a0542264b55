"""Write-ahead plan journal.

Every committed :class:`~repro.core.actions.EpochPlan` is appended here
*before* its first action mutates any state, so a crash anywhere during
commit leaves a durable record of intent.  On recovery the simulator
re-derives the same plans deterministically; the journal's job is then
verification, not replay-of-effects:

* a re-derived plan whose ``plan_id`` is already journaled must match
  the stored digest — mismatch means the recovered run diverged and is
  a hard :class:`WALError`;
* a matching re-append is recorded as an explicit ``noop`` entry (the
  audit trail shows the plan was observed twice) and counted in the
  ``recovery.wal_entries_replayed`` metric — it is *not* written as a
  second plan record, so replaying an already-applied plan can never
  double-commit.

The file itself is an :class:`AppendLog` — append-only JSONL, fsynced
per record — shared with the daemon's request journal.  A record is
complete once its newline is on disk.  Bytes after the last newline are
a torn tail: the process died inside the write, so that plan was never
committed / that request never acked; opening the log cuts the tail off
the *file*, so the next append starts on a fresh line.  A complete line
that does not parse is outside interference and a :class:`WALError`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Union

from repro.obs import get_logger

logger = get_logger("recovery.wal")


class WALError(RuntimeError):
    """A durable log is corrupt, or a replayed plan diverged from it."""


class AppendLog:
    """One JSON record per line; ``dumps_kwargs`` fix the byte format."""

    def __init__(self, path: Union[str, Path], **dumps_kwargs):
        self.path = Path(path)
        self._dumps_kwargs = dumps_kwargs
        self._fh = None

    def load(self) -> List[dict]:
        """Every complete record, in file order; truncates a torn tail."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        complete = data.rfind(b"\n") + 1
        if complete < len(data):
            logger.warning("%s: truncating a torn tail", self.path)
            with self.path.open("r+b") as fh:
                fh.truncate(complete)
                os.fsync(fh.fileno())
        records = []
        for number, line in enumerate(data[:complete].split(b"\n")[:-1], 1):
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not a JSON object")
            except ValueError as exc:
                raise WALError(
                    f"{self.path}: corrupt journal entry at line {number}"
                ) from exc
            records.append(record)
        return records

    def append(self, record: dict) -> None:
        """Write one record and make it durable before returning."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("ab")
        line = json.dumps(record, **self._dumps_kwargs) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def plan_digest(record: dict) -> str:
    """Canonical content digest of a journaled plan record.

    Computed over the sorted-keys JSON of the record minus its own
    ``digest`` field, so the digest is stable regardless of field order
    or when it was (re)computed.
    """
    stripped = {k: v for k, v in record.items() if k != "digest"}
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class PlanWAL:
    """Append-only, fsynced journal of committed epoch plans."""

    def __init__(self, path: Union[str, Path], registry=None):
        self.path = Path(path)
        self.registry = registry
        self.appended = 0
        self.replayed = 0
        self._digests: Dict[int, str] = {}
        self._log = AppendLog(self.path, sort_keys=True)
        self._load()

    def _load(self) -> None:
        for i, record in enumerate(self._log.load()):
            kind = record.get("type")
            plan_id = record.get("plan_id")
            if not isinstance(plan_id, int):
                raise WALError(
                    f"{self.path}: line {i + 1} has no integer plan_id"
                )
            if kind == "plan":
                stored = record.get("digest")
                if stored != plan_digest(record):
                    raise WALError(
                        f"{self.path}: plan {plan_id} fails its digest "
                        "check (journal corrupt)"
                    )
                if plan_id in self._digests:
                    raise WALError(
                        f"{self.path}: plan {plan_id} journaled twice"
                    )
                self._digests[plan_id] = stored
            elif kind == "noop":
                known = self._digests.get(plan_id)
                if known is None or known != record.get("digest"):
                    raise WALError(
                        f"{self.path}: noop entry for plan {plan_id} does "
                        "not match a journaled plan"
                    )
            else:
                raise WALError(
                    f"{self.path}: unknown journal entry type {kind!r}"
                )

    # ------------------------------------------------------------------
    @property
    def plan_ids(self) -> List[int]:
        return sorted(self._digests)

    # ------------------------------------------------------------------
    def append(self, plan_id: int, plan) -> str:
        """Journal a plan about to be committed.

        Returns ``"appended"`` for a new plan, ``"replayed"`` when the
        plan was already journaled (recovery re-deriving the window
        between snapshot and crash) — in which case only an audit noop
        is written.  Divergence raises :class:`WALError`.
        """
        record = dict(plan.to_dict())
        record["type"] = "plan"
        record["plan_id"] = plan_id
        digest = plan_digest(record)
        known = self._digests.get(plan_id)
        if known is not None:
            if known != digest:
                raise WALError(
                    f"recovered run diverged: plan {plan_id} digest "
                    f"{digest[:12]} != journaled {known[:12]}"
                )
            self._log.append(
                {"type": "noop", "plan_id": plan_id, "digest": digest}
            )
            self.replayed += 1
            if self.registry is not None:
                self.registry.counter("recovery.wal_entries_replayed").inc()
            return "replayed"
        record["digest"] = digest
        self._log.append(record)
        self._digests[plan_id] = digest
        self.appended += 1
        return "appended"

    def close(self) -> None:
        self._log.close()
