"""Canonical JSON codec: round-trips, determinism, dispatch errors."""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import example, given, strategies as st

from conftest import NESTED_TUPS, MEMBERS_OF_A_STRING, UNORDERED_ROUND_KEYS
from prdt import codec
from prdt.kernel import Decided, INVALID, UNDECIDED
from prdt.kv.wire import Entry, Read, Write
from prdt.lattice import Epoch, GrowSet, MergeList, MergeMap
from prdt.protocols.paxos import BallotNum, PaxosRound, PaxosState
from prdt.protocols.variants import ConfigRound, GenOp
from prdt.protocols.voting import Membership, ParallelVotingState, Vote, VotingState


SAMPLES = [
    None,
    True,
    0,
    "text",
    ("pair", 2),
    GrowSet.of(3, 1, 2),
    MergeMap((("a", GrowSet.of(1)),)),
    MergeList((GrowSet.of(1), GrowSet.bottom())),
    Epoch(2, GrowSet.of("x")),
    Vote("a", "cat"),
    VotingState.of(("a", "cat"), ("b", "dog")),
    Membership.of("a", "b", "c"),
    ParallelVotingState(VotingState.of(("a", "cat")), VotingState.bottom()),
    BallotNum("id2", 1),
    PaxosRound(VotingState.of(("id2", "id2")), VotingState.bottom()),
    PaxosState(MergeMap(((BallotNum("id2", 1), PaxosRound()),))),
    GenOp(PaxosState.bottom(), GrowSet.of(("r1", 1))),
    ConfigRound(GrowSet.of("r1", "r2")),
    UNDECIDED,
    Decided("val1"),
    Decided((0, "val1")),
    INVALID,
    Entry("n1", 1, Write("k", "v")),
    Entry("n2", 7, Read("k")),
]


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_round_trip(value):
    assert codec.loads(codec.canon(value)) == value


@pytest.mark.parametrize("value", SAMPLES, ids=lambda v: type(v).__name__)
def test_encode_is_json_safe(value):
    json.dumps(codec.encode(value))


def test_canon_ignores_construction_order():
    a = GrowSet(frozenset(["x", "y", "z"]))
    b = GrowSet(frozenset(["z", "x", "y"]))
    assert codec.canon(a) == codec.canon(b)


def test_canon_is_minimal_and_key_sorted():
    text = codec.canon(Vote("a", "cat"))
    assert ", " not in text and ": " not in text
    doc = json.loads(text)
    assert list(doc) == sorted(doc)


def test_canon_orders_values_totally():
    # the canonical string is the tie-break order used by decisions;
    # distinct values must never collide
    values = ["cat", "dog", Vote("a", "cat"), Vote("a", "dog"), GrowSet.of(1)]
    rendered = [codec.canon(v) for v in values]
    assert len(set(rendered)) == len(rendered)
    assert codec.canon("cat") < codec.canon("dog")


def test_scalars_pass_through():
    for scalar in (None, True, False, 17, "s"):
        assert codec.encode(scalar) == scalar
        assert codec.decode(scalar) == scalar


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        codec.encode(3.14)
    with pytest.raises(TypeError):
        codec.encode(object())


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        codec.decode({"t": "no-such-tag"})
    with pytest.raises(ValueError):
        codec.decode({"no": "tag"})


def test_map_with_a_repeated_key_rejected():
    ballot = '{"t":"ballot","uid":"n2","n":1}'
    with pytest.raises(ValueError):
        codec.loads('{"t":"map","v":[[%s,1],[%s,2]]}' % (ballot, ballot))
    assert codec.loads('{"t":"map","v":[[2,"b"],[1,"a"]]}') == MergeMap({1: "a", 2: "b"})


def test_record_rejects_a_key_count_that_does_not_match_the_fields():
    @dataclass(frozen=True)
    class Pair:
        left: int
        right: int

    with pytest.raises(ValueError):
        codec.record(Pair, "pair", "l")
    with pytest.raises(ValueError):
        codec.record(Pair, "pair", "l", "r", "x")


def test_canonical_form_of_a_store_state_is_pinned():
    # the canonical string is both the wire format and the tie-break
    # order inside leading_value, so a renamed key must show up here
    state = Epoch(1, PaxosState(MergeMap((
        (BallotNum("n1", 1), PaxosRound(
            VotingState.of(("n1", "n1")),
            VotingState.of(("n1", (Entry("n1", 1, Write("k", "v")),))),
        )),
    ))))
    assert codec.canon(state) == (
        '{"n":1,"t":"epoch","v":{"rounds":{"t":"map","v":[[{"n":1,"t":"ballot","uid":"n1"},'
        '{"le":{"t":"voting","v":{"t":"set","v":[{"p":"n1","t":"vote","v":"n1"}]}},'
        '"prop":{"t":"voting","v":{"t":"set","v":[{"p":"n1","t":"vote","v":{"t":"tup","v":['
        '{"k":"k","o":"n1","s":1,"t":"p","v":"v"}]}}]}},'
        '"t":"round"}]]},"t":"paxos"}}'
    )


def test_duplicate_tag_registration_rejected():
    with pytest.raises(ValueError):
        codec.register(str, "vote", lambda x: x, lambda d: d)


def test_nested_structures_round_trip():
    state = PaxosState(MergeMap((
        (BallotNum("id1", 1), PaxosRound(
            VotingState.of(("id1", "id1"), ("id2", "id1")),
            VotingState.of(("id1", "val1")),
        )),
        (BallotNum("id3", 2), PaxosRound()),
    )))
    wrapped = Epoch(3, state)
    assert codec.loads(codec.canon(wrapped)) == wrapped


def test_decided_value_round_trips_structurally():
    d = Decided(("k", "v"))
    assert codec.loads(codec.canon(d)) == d
    assert codec.loads(codec.canon(d)).value == ("k", "v")


TAGS = sorted(codec._DECODERS)
KEYS = ["v", "n", "k", "uid", "p", "le", "prop", "rounds", "c", "pred", "cur", "next", "val",
        "a", "b"]
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.sampled_from(["n1", "x"]),
                    st.floats(allow_nan=False))


def _tagged(children):
    """A dict of field keys with a tag that is usually, not always, registered."""
    tags = st.one_of(st.sampled_from(TAGS), children)
    fields = st.dictionaries(st.sampled_from(KEYS), children, max_size=4)
    return st.builds(lambda tag, doc: {**doc, "t": tag}, tags, fields)


TAGGED_JSON = st.recursive(
    SCALARS, lambda children: st.one_of(st.lists(children, max_size=3), _tagged(children)),
    max_leaves=24,
)


# unique keys out of order: accepted, and sorted (test_map_with_a_repeated_key_rejected)
UNSORTED_MAP = '{"t":"map","v":[[2,"b"],[1,"a"]]}'
EPOCH_WITHOUT_ITS_VALUE = '{"t":"epoch","n":1}'


# drawn as JSON text: hypothesis cannot print a 400-deep example object
@given(TAGGED_JSON.map(json.dumps))
@example(json.dumps(UNORDERED_ROUND_KEYS))
@example(json.dumps(MEMBERS_OF_A_STRING))
@example(json.dumps(NESTED_TUPS))
@example(UNSORTED_MAP)
@example(EPOCH_WITHOUT_ITS_VALUE)
@example("1.5")
@example('[{"t":"tup","v":[]}]')
def test_decode_raises_only_value_error(text):
    try:
        value = codec.loads(text)
    except ValueError:
        return
    # every document decode accepts survives re-encoding
    assert codec.loads(json.dumps(codec.encode(value))) == value


def test_decode_refuses_a_record_missing_a_key_and_a_bare_float_or_list():
    for text in (EPOCH_WITHOUT_ITS_VALUE, "1.5", '[{"t":"tup","v":[]}]'):
        with pytest.raises(ValueError):
            codec.loads(text)
