"""Wire protocol for the serving API: line-delimited JSON over TCP.

Every request is one JSON object on one line; every response is one
JSON object on one line.  Requests carry ``op`` (the operation) and an
optional client-chosen ``id`` echoed back in the response, so clients
may pipeline.  Responses always carry ``ok``; failures carry ``error``
(a stable machine-readable code) and ``message`` (human-readable).

The event feed (the ``subscribe`` op) switches the connection into a
one-way stream of event objects — same framing, no further requests.

Job specs travel as plain dicts of :class:`~repro.cluster.job.JobSpec`
fields, read by the one spec codec (:func:`~repro.cluster.job.spec_from_record`);
``job_id`` and ``submit_time`` are daemon-assigned on submit and
therefore rejected if a client supplies them.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.cluster.job import RECORD_FIELDS, JobSpec, spec_from_record

#: a request line longer than this is a protocol error, not a DoS vector
MAX_LINE_BYTES = 1 << 20

#: spec fields a submit request may set (everything else is server-side)
SUBMIT_FIELDS = frozenset(RECORD_FIELDS) - {"job_id", "submit_time"}


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


def spec_from_request(fields: dict, job_id: int, submit_time: float) -> JobSpec:
    """Validate a submit payload and mint the daemon-side JobSpec: a field
    outside :data:`SUBMIT_FIELDS` is refused here, the rest by the codec."""
    unknown = set(fields) - SUBMIT_FIELDS
    if unknown:
        raise ProtocolError(f"unknown spec fields: {sorted(unknown)}; "
                            f"allowed: {sorted(SUBMIT_FIELDS)}")
    try:
        return spec_from_record({**fields, "job_id": job_id, "submit_time": submit_time})
    except ValueError as exc:
        raise ProtocolError(f"invalid spec: {exc}") from exc


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
