"""Wire format: newline-delimited JSON frames over TCP.

Peer frames are envelopes ``{sender, kind, payload}`` where kind is
DELTA, SYNC_REQUEST, or SYNC_RESPONSE. A DELTA payload is the canonical
serialization of a delta (a full state is a delta too). A sync request
says how much decided log the requester holds, ``{have}``; the response
carries the responder's state plus only the log suffix past that point,
``{state, from, log}``, where ``log`` holds the entries at indices
``from`` onwards. Client frames are ``{op, key, value?}`` requests
answered by ``{status, value?}`` responses. Duplicated or reordered peer
frames are harmless by construction: merging is idempotent and
commutative, and a receiver adopts only the suffix entries past its own
log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .. import codec

DELTA = "DELTA"
SYNC_REQUEST = "SYNC_REQUEST"
SYNC_RESPONSE = "SYNC_RESPONSE"

KINDS = (DELTA, SYNC_REQUEST, SYNC_RESPONSE)


@dataclass(frozen=True)
class Write:
    """Assign a value to a key."""

    key: str
    value: str


@dataclass(frozen=True)
class Read:
    """Observe the latest value of a key, as of the log position the
    operation lands at."""

    key: str


codec.register(
    Write,
    "put",
    lambda x: {"t": "put", "k": x.key, "v": x.value},
    lambda d: Write(d["k"], d["v"]),
)
codec.register(
    Read,
    "get",
    lambda x: {"t": "get", "k": x.key},
    lambda d: Read(d["k"]),
)


def delta_envelope(sender: str, delta) -> dict:
    return {"sender": sender, "kind": DELTA, "payload": codec.encode(delta)}


def sync_request_envelope(sender: str, have: int) -> dict:
    """Ask a peer for its state and the decided log past entry ``have``."""
    return {"sender": sender, "kind": SYNC_REQUEST, "payload": {"have": have}}


def sync_response_envelope(sender: str, state, decided_ops, start: int) -> dict:
    """Ship ``state`` and the log suffix ``decided_ops[start:]``."""
    return {
        "sender": sender,
        "kind": SYNC_RESPONSE,
        "payload": {
            "state": codec.encode(state),
            "from": start,
            "log": [codec.encode(op) for op in decided_ops[start:]],
        },
    }


def parse_envelope(frame: dict) -> dict:
    if not isinstance(frame, dict) or frame.get("kind") not in KINDS or "sender" not in frame:
        raise ValueError(f"malformed envelope: {frame!r}")
    return frame


def request_frame(op) -> dict:
    if isinstance(op, Write):
        return {"op": "put", "key": op.key, "value": op.value}
    return {"op": "get", "key": op.key}


def parse_request(frame: dict):
    if not isinstance(frame, dict):
        raise ValueError(f"malformed request: {frame!r}")
    kind = frame.get("op")
    if kind == "put":
        return Write(str(frame["key"]), str(frame["value"]))
    if kind == "get":
        return Read(str(frame["key"]))
    raise ValueError(f"malformed request: {frame!r}")


def ok_response(value=None) -> dict:
    if value is None:
        return {"status": "ok"}
    return {"status": "ok", "value": value}


def not_found_response() -> dict:
    return {"status": "not_found"}


def error_response(message: str) -> dict:
    return {"status": "error", "value": message}


def encode_frame(frame: dict) -> bytes:
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def iter_frames(fileobj):
    """Yield parsed JSON frames from a socket file; stops at EOF.

    A malformed line is surfaced as None so the caller can log and drop
    it without tearing the connection down. A well-formed line may hold
    any JSON value, not only an object.
    """
    for line in fileobj:
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            yield None
