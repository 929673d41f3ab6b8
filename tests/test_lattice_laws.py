"""Merge laws for every combinator: commutative, associative,
idempotent, bottom-neutral, all under structural equality; and a merge
that adds nothing returns the receiver itself, with what it caches."""

from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from prdt.lattice import Epoch, GrowSet, MergeList, MergeMap, cached, leq, merge
from prdt.protocols.paxos import BallotNum, PaxosRound, PaxosState, single_round
from prdt.protocols.variants import ConfigRound, GenOp
from prdt.protocols.voting import Membership, ParallelVotingState, VotingState
from prdt.sim import lattice_law_problems

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


grow_sets = st.frozensets(st.integers(0, 9), max_size=5).map(GrowSet)

merge_maps = st.dictionaries(
    st.sampled_from("abcdef"), grow_sets, max_size=4
).map(lambda d: MergeMap(tuple(d.items())))

merge_lists = st.lists(grow_sets, max_size=4).map(lambda xs: MergeList(tuple(xs)))

epochs = st.tuples(st.integers(0, 3), grow_sets).map(lambda t: Epoch(*t))

votings = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["cat", "dog"])),
    max_size=5,
).map(lambda pairs: VotingState.of(*pairs))

products = st.tuples(votings, votings).map(lambda t: ParallelVotingState(*t))


def assert_laws(a, b, c, bottom):
    assert lattice_law_problems(a, b, c, bottom) == []
    assert leq(a, merge(a, b))


@given(grow_sets, grow_sets, grow_sets)
def test_growset_laws(a, b, c):
    assert_laws(a, b, c, GrowSet.bottom())


@given(merge_maps, merge_maps, merge_maps)
def test_mergemap_laws(a, b, c):
    assert_laws(a, b, c, MergeMap.bottom())


@given(merge_lists, merge_lists, merge_lists)
def test_mergelist_laws(a, b, c):
    assert_laws(a, b, c, MergeList.bottom())


@given(epochs, epochs, epochs)
def test_epoch_laws(a, b, c):
    # no generic bottom; the neutral element pairs counter 0 with the
    # inner bottom
    assert_laws(a, b, c, Epoch(0, GrowSet.bottom()))


@given(products, products, products)
def test_product_laws(a, b, c):
    assert_laws(a, b, c, ParallelVotingState.bottom())


@given(votings, votings)
def test_leq_is_the_derived_order(a, b):
    joined = merge(a, b)
    assert leq(a, joined) and leq(b, joined)
    if leq(a, b) and leq(b, a):
        assert a == b


def test_growset_union():
    assert GrowSet.of("x").merge(GrowSet.of("y")) == GrowSet.of("x", "y")


def test_epoch_larger_counter_wins():
    a = Epoch(2, GrowSet.of("A"))
    b = Epoch(1, GrowSet.of("B"))
    assert a.merge(b) == a
    assert b.merge(a) == a


def test_epoch_equal_counters_merge_inner():
    a = Epoch(1, GrowSet.of("A"))
    b = Epoch(1, GrowSet.of("B"))
    assert a.merge(b) == Epoch(1, GrowSet.of("A", "B"))


def test_mergelist_indexwise_with_tail():
    short = MergeList((GrowSet.of(1),))
    long = MergeList((GrowSet.of(2), GrowSet.of(3)))
    assert short.merge(long) == MergeList((GrowSet.of(1, 2), GrowSet.of(3)))


@given(merge_lists, merge_lists)
def test_mergelist_length_never_shrinks(a, b):
    assert len(a.merge(b)) == max(len(a), len(b))


def test_leq_examples():
    assert leq(GrowSet.bottom(), GrowSet.of("x"))
    assert leq(GrowSet.of("x"), GrowSet.of("x", "y"))
    assert not leq(GrowSet.of("x"), GrowSet.of("y"))


def test_mergemap_unions_keys_and_merges_shared_values():
    left = MergeMap((("a", GrowSet.of(1)), ("b", GrowSet.of(2))))
    right = MergeMap((("b", GrowSet.of(3)), ("c", GrowSet.of(4))))
    out = left.merge(right)
    assert out.get("a") == GrowSet.of(1)
    assert out.get("b") == GrowSet.of(2, 3)
    assert out.get("c") == GrowSet.of(4)


def test_mergemap_keeps_bottom_valued_entries():
    # an entry holding bottom is knowledge ("this key exists"), distinct
    # from the key being absent; merge must not prune it
    m = MergeMap((("a", GrowSet.bottom()),))
    assert "a" in m.merge(MergeMap.bottom())
    assert m.merge(m) == m


def test_mergemap_entries_are_key_sorted():
    m = MergeMap((("b", GrowSet.of(1)), ("a", GrowSet.of(2))))
    assert m.keys() == ("a", "b")
    assert m.max_key() == "b"
    assert MergeMap.bottom().max_key() is None


@pytest.mark.parametrize("bottom,nonempty", [
    (GrowSet.bottom(), GrowSet.of(1)),
    (MergeMap.bottom(), MergeMap((("k", GrowSet.of(1)),))),
    (MergeList.bottom(), MergeList((GrowSet.of(1),))),
    (VotingState.bottom(), VotingState.of(("a", "cat"))),
    (ParallelVotingState.bottom(), ParallelVotingState(second=VotingState.of(("a", "cat")))),
    (PaxosRound.bottom(), PaxosRound(proposals=VotingState.of(("a", "cat")))),
    (PaxosState.bottom(), PaxosState(MergeMap(((BallotNum("a", 1), PaxosRound()),)))),
    (GenOp.bottom(), GenOp(predecessors=GrowSet.of(("a", 1)))),
    (ConfigRound.bottom(), ConfigRound(GrowSet.of("a"))),
])
def test_bottoms_are_empty_and_shared(bottom, nonempty):
    assert bottom != nonempty
    assert type(bottom).bottom() is bottom


def _map_pair(keys, values):
    """Two MergeMaps over ``keys``: each key is on the left only, on the
    right only, on both sides as two pairs, or on both sides as one
    shared pair object."""

    def build(spec):
        left, right = [], []
        for key, (where, mine, theirs) in spec.items():
            if where == "shared":
                pair = (key, mine)
                left.append(pair)
                right.append(pair)
            if where in ("left", "both"):
                left.append((key, mine))
            if where in ("right", "both"):
                right.append((key, theirs))
        return MergeMap(tuple(left)), MergeMap(tuple(right))

    where = st.sampled_from(["left", "right", "both", "shared"])
    return st.dictionaries(keys, st.tuples(where, values, values), max_size=8).map(build)


ballots = st.builds(BallotNum, st.sampled_from(["r1", "r2", "r3"]), st.integers(1, 4))
name_keys = st.tuples(st.sampled_from(["r1", "r2", "r3"]), st.integers(1, 4))


@pytest.mark.parametrize("keys,values", [(ballots, votings), (name_keys, grow_sets)],
                         ids=["ballots", "tuples"])
@given(data=st.data())
def test_mergemap_merge_matches_the_dict_union(keys, values, data):
    left, right = data.draw(_map_pair(keys, values))
    reference = dict(left.entries)
    for key, value in right.entries:
        reference[key] = reference[key].merge(value) if key in reference else value
    out = left.merge(right)
    assert out == MergeMap(tuple(reference.items()))
    assert all(a[0] < b[0] for a, b in zip(out.entries, out.entries[1:]))
    # an entry whose value the merge did not change is a side's own pair
    sides = [{pair[0]: pair for pair in m.entries} for m in (left, right)]
    for pair in out.entries:
        kept = [side[pair[0]] for side in sides if pair[0] in side and side[pair[0]][1] == pair[1]]
        if kept:
            assert pair is kept[0]
    assert_laws(left, right, out, MergeMap.bottom())
    assert out.merge(left) is out and out.merge(right) is out


def test_cached_computes_once_per_instance_and_keeps_it_there():
    calls = []

    @dataclass(frozen=True)
    class Box:
        n: int

        @cached
        def double(self):
            """Twice ``n``."""
            calls.append(self)
            return 2 * self.n

    a, b = Box(1), Box(1)
    assert a.double == 2 and a.double == 2
    assert len(calls) == 1 and calls[0] is a
    assert vars(a) == {"n": 1, "double": 2} and vars(b) == {"n": 1}
    # an equal but distinct instance computes its own
    assert b.double == 2
    assert len(calls) == 2 and calls[1] is b
    # the kept value is no field: equality and hash ignore it
    assert a == b and hash(a) == hash(b)
    assert Box.double.__doc__ == "Twice ``n``."


def test_a_merge_that_adds_nothing_keeps_what_the_values_cache():
    abc = Membership.of("a", "b", "c")
    votes = VotingState.of(("a", "cat"), ("b", "cat"))
    counts = votes.counts
    assert votes.merge(VotingState.of(("a", "cat"))) is votes
    assert votes.counts is counts
    ballot = BallotNum("a", 1)
    round_ = PaxosRound(VotingState.of(("a", "a"), ("b", "a")), votes)
    state = single_round(ballot, round_)
    read = round_.outcome(abc)
    grown = state.merge(single_round(ballot, PaxosRound(proposals=VotingState.of(("b", "cat")))))
    assert grown is state
    kept = grown.rounds.entries[0][1]
    # the round's read is not recomputed: the same Decided object comes back
    assert kept is round_ and kept.outcome(abc) is read and kept.proposals.counts is counts
