"""Wire format: newline-delimited JSON frames over TCP.

Peer frames are envelopes ``{sender, kind, payload}`` where kind is
DELTA, SYNC_REQUEST, SYNC_RESPONSE or FORWARD. Every payload is one
codec document: the canonical encoding of the kind's body, built by
``envelope`` and decoded whole by ``parse_envelope``. The bodies:

- DELTA: ``(hears, part, ...)``: the leader its sender hears directly,
  a replica id or None, then one or more deltas, one per epoch in epoch
  order, which the receiver absorbs in that order (a full state is a
  delta too);
- SYNC_REQUEST: ``have``, how many decided epochs the requester holds;
- SYNC_RESPONSE: ``(state, start, batches)``, the responder's state and
  the batches of its log from epoch ``start`` onwards;
- FORWARD: ``(have, batch)``, the sender's log length and the pending
  entries it hands its leader, in arrival order.

The decided log holds one entry per decided epoch, a batch: the
non-empty tuple of entries that epoch decided, in order. An entry is one
client request, ``Entry(origin, seq, op)``: the ``seq``-th request that
node ``origin`` took, and its operation. Its document is flat, ``{"t":
"p", "o": origin, "s": seq, "k": key, "v": value}`` for a put and
``{"t": "g", "o": origin, "s": seq, "k": key}`` for a get. Client frames
are ``{op, key, value?}`` requests with string keys and values, answered
by ``{status, value?}`` responses. Duplicated or reordered peer frames
are harmless by construction: merging is idempotent and commutative, and
a receiver adopts only the suffix entries past its own log.

This module owns the payload formats and the operations' meaning:
``parse_envelope`` decodes every peer payload and checks its body's
shape, ``parse_request`` reads every client request, and ``apply`` is
the one place a decided operation takes effect. The two parsers raise
``ValueError`` and nothing else on any JSON value. States come back
decoded but not shape-checked: the protocol checks its own state, and
the core judges where a body meets its log.
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


def envelope(sender: str, kind: str, body) -> dict:
    """A peer frame whose payload is ``body`` as one codec document."""
    return {"sender": sender, "kind": kind, "payload": codec.encode(body)}


def _log_index(value) -> int:
    """A log position named by a peer: a non-negative int, not a bool."""
    if type(value) is not int or value < 0:
        raise ValueError(f"malformed log index {value!r}")
    return value


def parse_envelope(frame) -> tuple:
    """``(sender, kind, body)`` of a peer frame: its payload decoded once,
    then the body's shape checked for its kind (see above). A DELTA's
    body comes back as ``(parts, hears)``."""
    if not isinstance(frame, dict) or frame.get("kind") not in KINDS or "sender" not in frame:
        raise ValueError(f"malformed envelope: {frame!r}")
    sender, kind = frame["sender"], frame["kind"]
    body = codec.decode(frame.get("payload"))
    if kind == SYNC_REQUEST:
        return sender, kind, _log_index(body)
    if type(body) is not tuple or not body:
        raise ValueError(f"a {kind} payload is not a non-empty tuple")
    if kind == DELTA:
        if len(body) < 2 or (body[0] is not None and type(body[0]) is not str):
            raise ValueError("a delta payload is not (hears, part, ...)")
        return sender, kind, (body[1:], body[0])
    if kind == FORWARD:
        if len(body) != 2 or not is_batch(body[1]):
            raise ValueError("a forward payload is not a pair (have, batch)")
        return sender, kind, (_log_index(body[0]), body[1])
    if len(body) != 3 or type(body[2]) is not tuple or not all(map(is_batch, body[2])):
        raise ValueError("a sync response payload is not a triple (state, start, batches)")
    return sender, kind, (body[0], _log_index(body[1]), body[2])


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


def apply(values: dict, op) -> dict:
    """Apply a decided ``op`` to ``values``, the map the log applies to,
    and return the client response it earns: a read sees every write
    applied before it."""
    if type(op) is Write:
        values[op.key] = op.value
        return {"status": "ok"}
    if op.key in values:
        return {"status": "ok", "value": values[op.key]}
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
