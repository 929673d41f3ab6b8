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

Decoding is one flat pass. ``decode`` is the only error boundary: the
decoders under it dispatch on the exact type of each document (a dict
by its tag, the four scalars as themselves, anything else refused) and
let a missing key, a wrong type or nesting past the recursion limit
raise as it comes, and ``decode`` turns each into ``ValueError``. A map
document whose keys already increase, as every encoded map's do, is
checked once and never sorted; only keys out of order are sorted and
checked again.
"""

from __future__ import annotations

import dataclasses
import json
from operator import itemgetter

from .lattice import Epoch, GrowSet, MergeList, MergeMap


def encode(obj):
    """Render a lattice/domain value as a JSON-compatible document."""
    # dispatch on exact type: all encodable structures are final classes
    enc = _ENCODERS.get(type(obj))
    if enc is not None:
        return enc(obj)
    if obj is None or isinstance(obj, (str, bool, int)):
        return obj
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


def decode(doc):
    """Inverse of encode. Any JSON value that is not an encoding (a
    missing key, a wrong type, map keys that do not compare, nesting
    past the recursion limit) raises ``ValueError`` and nothing else."""
    try:
        return _dec(doc)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ValueError(f"malformed document: {exc!r}") from None


def canon(obj) -> str:
    """Canonical string form; the deterministic total order on values."""
    return _dump(encode(obj))


def loads(text: str):
    return decode(json.loads(text))


# built once (``json.dumps`` with options builds an encoder per call);
# documents are trees, so the encoder skips its cycle check
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

_ENCODERS: dict = {}  # type -> enc
_DECODERS: dict = {}  # tag -> dec
_SCALARS = frozenset((str, int, bool, type(None)))


def _dec(doc):
    """``decode`` without its error boundary."""
    kind = type(doc)
    if kind is dict:
        # a missing or unknown tag is a KeyError, which decode reports
        return _DECODERS[doc["t"]](doc)
    if kind in _SCALARS:
        return doc
    raise ValueError(f"cannot decode {kind.__name__}")


def register(type_, tag: str, enc, dec) -> None:
    """Hook a domain type (votes, ballots, operations...) into the codec.

    ``enc(obj) -> dict`` must emit the given tag; ``dec(doc) -> obj``
    inverts it. Registration happens at import time of the defining
    module; tags must be unique.
    """
    if tag in _DECODERS:
        raise ValueError(f"tag {tag!r} already registered")
    _ENCODERS[type_] = enc
    _DECODERS[tag] = dec


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

    # most records have one or two fields: call _dec directly for those
    if len(keys) == 1:
        (key,) = keys

        def dec(doc):
            return type_(_dec(doc[key]))
    elif len(keys) == 2:
        first, second = keys

        def dec(doc):
            return type_(_dec(doc[first]), _dec(doc[second]))
    else:
        def dec(doc):
            return type_(*[_dec(doc[key]) for key in keys])

    register(type_, tag, enc, dec)


def _encode_set(obj):
    encoded = [encode(e) for e in obj.elements]
    if len(encoded) > 1:
        encoded.sort(key=_dump)
    return {"t": "set", "v": encoded}


def _keys_increase(entries) -> bool:
    for i in range(1, len(entries)):
        if not entries[i - 1][0] < entries[i][0]:
            return False
    return True


def _decode_map(doc):
    entries = [(_dec(k), _dec(v)) for k, v in doc["v"]]
    # MergeMap's merge walk relies on strictly sorted keys
    if not _keys_increase(entries):
        entries.sort(key=itemgetter(0))
        if not _keys_increase(entries):
            raise ValueError("map document repeats a key")
    return MergeMap._of_sorted(tuple(entries))


register(tuple, "tup",
         lambda obj: {"t": "tup", "v": [encode(x) for x in obj]},
         lambda doc: tuple([_dec(x) for x in doc["v"]]))
register(GrowSet, "set",
         _encode_set,
         lambda doc: GrowSet(frozenset([_dec(x) for x in doc["v"]])))
register(MergeMap, "map",
         lambda obj: {"t": "map", "v": [[encode(k), encode(v)] for k, v in obj.entries]},
         _decode_map)
register(MergeList, "list",
         lambda obj: {"t": "list", "v": [encode(x) for x in obj.items]},
         lambda doc: MergeList(tuple([_dec(x) for x in doc["v"]])))
record(Epoch, "epoch", "n", "v")
