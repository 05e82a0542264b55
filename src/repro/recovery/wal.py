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

The format is append-only JSONL, fsynced per entry.  A torn final line
(the crash landed mid-write) is tolerated and dropped on load; a torn
line anywhere else means outside interference and is an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union


class WALError(RuntimeError):
    """The journal is corrupt, or a replayed plan diverged from it."""


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
        self._fh = None
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        raw = self.path.read_bytes().decode("utf-8", errors="replace")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for i, line in enumerate(lines):
            try:
                record = json.loads(line)
            except ValueError as exc:
                if i == len(lines) - 1:
                    # torn tail from a crash mid-append: drop it; the
                    # plan it described was never committed
                    break
                raise WALError(
                    f"{self.path}: corrupt journal entry at line {i + 1}"
                ) from exc
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

    def last_plan_id(self) -> Optional[int]:
        return max(self._digests) if self._digests else None

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
            self._write({"type": "noop", "plan_id": plan_id, "digest": digest})
            self.replayed += 1
            if self.registry is not None:
                self.registry.counter("recovery.wal_entries_replayed").inc()
            return "replayed"
        record["digest"] = digest
        self._write(record)
        self._digests[plan_id] = digest
        self.appended += 1
        return "appended"

    def _write(self, record: dict) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
