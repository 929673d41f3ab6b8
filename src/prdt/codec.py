"""Canonical JSON serialization for every state type.

Encoding is deterministic: map keys are sorted, set elements are ordered
by their own canonical encoding, and ``canon`` renders any encodable
value to a minimal JSON string with sorted object keys. That string
doubles as the total order used for tie-breaking (least canonical string
wins), so "deterministic order" means the same thing on the wire, in
tests, and inside decision functions.

Scheme: JSON scalars (str, int, bool, None) encode as themselves; every
structured type is a dict tagged with ``"t"``. Bare JSON lists never
appear at the top level of a value, only inside tagged dicts, so
decoding dispatches on the tag alone. A record type is declared with
``record``, one key per field. The collections, and the scalar-only
types that fill every log entry (ballots, entries), keep hand-written
pairs through ``register``, which skip a generic ``encode`` per field.
"""

from __future__ import annotations

import dataclasses
import json

from .lattice import Epoch, GrowSet, MergeList, MergeMap


def encode(obj):
    """Render a lattice/domain value as a JSON-compatible document."""
    # dispatch on exact type: all encodable structures are final classes
    codec = _CODECS_BY_TYPE.get(type(obj))
    if codec is not None:
        return codec.enc(obj)
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def decode(doc):
    """Inverse of encode. Any JSON value that is not an encoding (a
    missing key, a wrong type, map keys that do not compare, nesting
    past the recursion limit) raises ``ValueError`` and nothing else."""
    if isinstance(doc, dict):
        try:
            codec = _CODECS_BY_TAG.get(doc.get("t"))
            if codec is None:
                raise ValueError(f"unknown tag {doc.get('t')!r}")
            return codec.dec(doc)
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed document: {exc!r}") from None
    if doc is None or isinstance(doc, (str, bool, int)):
        return doc
    raise ValueError(f"cannot decode {type(doc).__name__}")


def canon(obj) -> str:
    """Canonical string form; the deterministic total order on values."""
    return _dump(encode(obj))


def loads(text: str):
    return decode(json.loads(text))


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class _Codec:
    __slots__ = ("enc", "dec")

    def __init__(self, enc, dec):
        self.enc = enc
        self.dec = dec


_CODECS_BY_TYPE: dict = {}
_CODECS_BY_TAG: dict = {}


def register(type_, tag: str, enc, dec) -> None:
    """Hook a domain type (votes, ballots, operations...) into the codec.

    ``enc(obj) -> dict`` must emit the given tag; ``dec(doc) -> obj``
    inverts it. Registration happens at import time of the defining
    module; tags must be unique.
    """
    if tag in _CODECS_BY_TAG:
        raise ValueError(f"tag {tag!r} already registered")
    codec = _Codec(enc, dec)
    _CODECS_BY_TYPE[type_] = codec
    _CODECS_BY_TAG[tag] = codec


def record(type_, tag: str, *keys: str) -> None:
    """Register a frozen dataclass as ``{"t": tag, key_i: encode(field_i)}``,
    one key per field, in field order."""
    names = tuple(f.name for f in dataclasses.fields(type_))
    if len(keys) != len(names):
        raise ValueError(f"{type_.__name__} has {len(names)} fields, got keys {keys!r}")
    pairs = tuple(zip(keys, names))

    def enc(obj):
        doc = {"t": tag}
        for key, name in pairs:
            doc[key] = encode(getattr(obj, name))
        return doc

    def dec(doc):
        return type_(*[decode(doc[key]) for key in keys])

    register(type_, tag, enc, dec)


def _encode_set(obj):
    encoded = [encode(e) for e in obj.elements]
    if len(encoded) > 1:
        encoded.sort(key=_dump)
    return {"t": "set", "v": encoded}


def _decode_map(doc):
    decoded = MergeMap(tuple((decode(k), decode(v)) for k, v in doc["v"]))
    # a repeated key would break the strictly sorted keys MergeMap's
    # merge walk relies on
    keys = [k for k, _ in decoded.entries]
    if not all(a < b for a, b in zip(keys, keys[1:])):
        raise ValueError("map document repeats a key")
    return decoded


register(tuple, "tup",
         lambda obj: {"t": "tup", "v": [encode(x) for x in obj]},
         lambda doc: tuple(decode(x) for x in doc["v"]))
register(GrowSet, "set",
         _encode_set,
         lambda doc: GrowSet(frozenset(decode(x) for x in doc["v"])))
register(MergeMap, "map",
         lambda obj: {"t": "map", "v": [[encode(k), encode(v)] for k, v in obj.entries]},
         _decode_map)
register(MergeList, "list",
         lambda obj: {"t": "list", "v": [encode(x) for x in obj.items]},
         lambda doc: MergeList(tuple(decode(x) for x in doc["v"])))
record(Epoch, "epoch", "n", "v")
