"""Wire protocol for the serving API: line-delimited JSON over TCP.

Every request is one JSON object on one line; every response is one
JSON object on one line.  Requests carry ``op`` (the operation) and an
optional client-chosen ``id`` echoed back in the response, so clients
may pipeline.  Responses always carry ``ok``; failures carry ``error``
(a stable machine-readable code) and ``message`` (human-readable).

The event feed (the ``subscribe`` op) switches the connection into a
one-way stream of event objects — same framing, no further requests.

Job specs travel as plain dicts mirroring
:class:`~repro.cluster.job.JobSpec` fields; ``job_id`` and
``submit_time`` are daemon-assigned on submit and therefore rejected if
a client supplies them.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from repro.cluster.job import JobSpec

#: a request line longer than this is a protocol error, not a DoS vector
MAX_LINE_BYTES = 1 << 20

#: spec fields a submit request may set (everything else is server-side)
SUBMIT_FIELDS = frozenset({
    "duration", "max_workers", "min_workers", "gpus_per_worker",
    "elastic", "fungible", "heterogeneous", "checkpointing",
    "model_family",
})


class ProtocolError(ValueError):
    """The peer sent something that is not a valid protocol message."""


def encode(obj: dict) -> bytes:
    """One protocol frame: compact JSON + newline."""
    return (
        json.dumps(obj, separators=(",", ":"), default=str) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame is not a JSON object")
    return obj


def spec_from_request(
    fields: dict, job_id: int, submit_time: float
) -> JobSpec:
    """Validate a submit payload and mint the daemon-side JobSpec.

    JobSpec's own ``__post_init__`` enforces the numeric invariants
    (positive duration, worker-count ordering); this layer only rejects
    unknown fields so typos fail loudly instead of being ignored.
    """
    unknown = set(fields) - SUBMIT_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown spec fields: {sorted(unknown)}; "
            f"allowed: {sorted(SUBMIT_FIELDS)}"
        )
    if "duration" not in fields or "max_workers" not in fields:
        raise ProtocolError("submit requires 'duration' and 'max_workers'")
    try:
        return JobSpec(job_id=job_id, submit_time=submit_time, **fields)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid spec: {exc}") from exc


def spec_to_dict(spec: JobSpec) -> dict:
    return dataclasses.asdict(spec)


def spec_from_dict(d: dict) -> JobSpec:
    return JobSpec(**d)


def ok(request_id, **fields) -> dict:
    resp = {"ok": True, **fields}
    if request_id is not None:
        resp["id"] = request_id
    return resp


def err(request_id, code: str, message: Optional[str] = None) -> dict:
    resp = {"ok": False, "error": code, "message": message or code}
    if request_id is not None:
        resp["id"] = request_id
    return resp
