"""Wire format: newline-delimited JSON frames over TCP.

Peer frames are envelopes ``{sender, kind, payload}`` where kind is
DELTA, SYNC_REQUEST, SYNC_RESPONSE or FORWARD. A DELTA payload is the
canonical serialization of a non-empty tuple of deltas, one per epoch
and in epoch order, which the receiver absorbs in that order (a full
state is a delta too). The decided log holds one entry per decided
epoch, a batch: the non-empty tuple of entries that epoch decided, in
order. An entry is one client request, ``Entry(origin, seq, op)``: the
``seq``-th request that node ``origin`` took, and its operation. Its
document is flat, ``{"t": "p", "o": origin, "s": seq, "k": key, "v":
value}`` for a put and ``{"t": "g", "o": origin, "s": seq, "k": key}``
for a get. A sync request says how many decided epochs the requester
holds, ``{have}``; the response carries the responder's state plus only
the log suffix past that point, ``{state, from, log}``, where ``log``
holds the batches of epochs ``from`` onwards. A FORWARD hands a node's
pending entries to its leader; its payload is one codec document, the
encoded pair ``(have, batch)`` of the sender's log length and its
entries in arrival order. Client frames are ``{op, key, value?}``
requests with string keys and values, answered by ``{status, value?}``
responses. Duplicated or reordered peer frames are harmless by
construction: merging is idempotent and commutative, and a receiver
adopts only the suffix entries past its own log.

This module owns the payload formats: ``parse_envelope`` decodes every
peer payload and ``parse_request`` reads every client request, and both
raise ``ValueError`` and nothing else on any JSON value. States come
back decoded but not shape-checked; the protocol checks its own state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .. import codec

DELTA = "DELTA"
SYNC_REQUEST = "SYNC_REQUEST"
SYNC_RESPONSE = "SYNC_RESPONSE"
FORWARD = "FORWARD"

KINDS = (DELTA, SYNC_REQUEST, SYNC_RESPONSE, FORWARD)


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


class Entry(NamedTuple):
    """The ``seq``-th client request that node ``origin`` took. A named
    tuple: vote sets hash the batches they hold, and a tuple hashes in C
    (a frozen dataclass cost about 10% of store-leader ops per second)."""

    origin: str
    seq: int
    op: Write | Read


def is_entry(value) -> bool:
    """True for a well-formed entry: a string origin, an int seq and an
    operation with string keys and values."""
    if type(value) is not Entry or type(value.origin) is not str or type(value.seq) is not int:
        return False
    op = value.op
    if type(op) is Write:
        return type(op.key) is str and type(op.value) is str
    return type(op) is Read and type(op.key) is str


def is_batch(value) -> bool:
    """True for a well-formed batch, the value one epoch decides: a
    non-empty tuple of entries."""
    return type(value) is tuple and len(value) > 0 and all(map(is_entry, value))


def _encode_entry(entry: Entry) -> dict:
    op = entry.op
    if type(op) is Write:
        return {"t": "p", "o": entry.origin, "s": entry.seq, "k": op.key, "v": op.value}
    return {"t": "g", "o": entry.origin, "s": entry.seq, "k": op.key}


def _decode_entry(doc: dict) -> Entry:
    op = Write(doc["k"], doc["v"]) if doc["t"] == "p" else Read(doc["k"])
    return Entry(doc["o"], doc["s"], op)


for _tag in ("p", "g"):
    codec.register(Entry, _tag, _encode_entry, _decode_entry)


def delta_envelope(sender: str, parts) -> dict:
    """Ship the deltas ``parts``, kept in epoch order, as one frame."""
    return {"sender": sender, "kind": DELTA, "payload": codec.encode(tuple(parts))}


def sync_request_envelope(sender: str, have: int) -> dict:
    """Ask a peer for its state and the decided log past epoch ``have``."""
    return {"sender": sender, "kind": SYNC_REQUEST, "payload": {"have": have}}


def sync_response_envelope(sender: str, state, log, start: int) -> dict:
    """Ship ``state`` and the batches ``log[start:]``, one per epoch."""
    return {
        "sender": sender,
        "kind": SYNC_RESPONSE,
        "payload": {
            "state": codec.encode(state),
            "from": start,
            "log": [codec.encode(batch) for batch in log[start:]],
        },
    }


def forward_envelope(sender: str, have: int, batch) -> dict:
    """Hand the entries ``batch`` to the leader, saying how many
    decided epochs the sender holds."""
    return {"sender": sender, "kind": FORWARD, "payload": codec.encode((have, tuple(batch)))}


def _log_index(value) -> int:
    """A log position named by a peer: a non-negative int, not a bool."""
    if type(value) is not int or value < 0:
        raise ValueError(f"malformed log index {value!r}")
    return value


def parse_envelope(frame, log_length: int) -> tuple:
    """``(sender, kind, body)`` of a peer frame, its payload decoded.

    The body of a DELTA is its tuple of states; of a SYNC_REQUEST, the
    requester's log length ``have``; of a SYNC_RESPONSE, ``(state,
    batches)`` where ``batches`` are the suffix entries past
    ``log_length``, the number of epochs the receiver's log holds; of a
    FORWARD, ``(have, batch)``.
    """
    if not isinstance(frame, dict) or frame.get("kind") not in KINDS or "sender" not in frame:
        raise ValueError(f"malformed envelope: {frame!r}")
    sender, kind, payload = frame["sender"], frame["kind"], frame.get("payload")
    if kind == DELTA:
        parts = codec.decode(payload)
        if type(parts) is not tuple or not parts:
            raise ValueError("a delta payload is not a non-empty tuple")
        return sender, kind, parts
    if kind == FORWARD:
        body = codec.decode(payload)
        if type(body) is not tuple or len(body) != 2:
            raise ValueError("a forward payload is not a pair")
        have, batch = body
        if not is_batch(batch):
            raise ValueError("a forward holds a non-batch")
        return sender, kind, (_log_index(have), batch)
    if not isinstance(payload, dict):
        raise ValueError(f"malformed {kind} payload")
    if kind == SYNC_REQUEST:
        return sender, kind, _log_index(payload.get("have"))
    start, log = _log_index(payload.get("from")), payload.get("log")
    if start > log_length:
        raise ValueError(f"sync suffix from {start} skips past our log")
    if not isinstance(log, list):
        raise ValueError("sync log is not a list")
    # suffix entries below the receiver's log length are decided there already
    batches = [codec.decode(doc) for doc in log[log_length - start:]]
    if not all(map(is_batch, batches)):
        raise ValueError("sync log holds a non-batch")
    return sender, kind, (codec.decode(payload.get("state")), batches)


def request_frame(op) -> dict:
    if isinstance(op, Write):
        return {"op": "put", "key": op.key, "value": op.value}
    return {"op": "get", "key": op.key}


def parse_request(frame):
    """The operation of a client request; keys and values are strings."""
    if isinstance(frame, dict) and type(frame.get("key")) is str:
        kind = frame.get("op")
        if kind == "put" and type(frame.get("value")) is str:
            return Write(frame["key"], frame["value"])
        if kind == "get":
            return Read(frame["key"])
    raise ValueError(f"malformed request: {frame!r}")


def ok_response(value=None) -> dict:
    if value is None:
        return {"status": "ok"}
    return {"status": "ok", "value": value}


def not_found_response() -> dict:
    return {"status": "not_found"}


def error_response(message: str) -> dict:
    return {"status": "error", "value": message}


# Built once: ``json.dumps`` with any option builds a new encoder per
# call. Key order is free on the wire (``codec.canon`` orders keys where
# a total order is needed), and a frame is a tree by construction, so
# the encoder skips its cycle check.
_dump_frame = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def encode_frame(frame: dict) -> bytes:
    return _dump_frame(frame).encode("utf-8") + b"\n"


def iter_frames(fileobj):
    """Yield the parsed JSON frames of ``fileobj``, any iterable of lines:
    a socket or memory file, or a list of byte strings. Blank lines are
    skipped.

    A malformed line (not JSON, not UTF-8, or nested too deeply to
    parse) is surfaced as None so the caller can drop it without tearing
    the connection down. A well-formed line may hold any JSON value, not
    only an object.
    """
    for line in fileobj:
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except (ValueError, RecursionError):
            yield None
