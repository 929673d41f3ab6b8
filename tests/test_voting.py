"""Single-round voting: guard, action, decision, and the parallel pair."""

from __future__ import annotations

from hypothesis import given, strategies as st

from prdt.kernel import Decided, INVALID, ReplicaContext, UNDECIDED, agreement_leq
from prdt.protocols.voting import (
    Membership,
    ParallelVoting,
    ParallelVotingState,
    Voting,
    VotingState,
    decision,
    has_not_voted,
    leading_value,
    parallel_decision,
    tally,
    vote_for,
)

ABC = Membership.of("a", "b", "c")


def test_has_not_voted():
    a = ReplicaContext("a")
    assert has_not_voted(VotingState.bottom(), a)
    assert not has_not_voted(VotingState.of(("a", "cat")), a)
    assert has_not_voted(VotingState.of(("b", "cat")), a)


def test_vote_for():
    a = ReplicaContext("a")
    assert vote_for(VotingState.bottom(), "cat", a) == VotingState.of(("a", "cat"))
    assert vote_for(VotingState.of(("a", "cat")), "dog", a) == VotingState.bottom()
    assert vote_for(VotingState.of(("b", "cat")), "cat", a) == VotingState.of(("a", "cat"))


def test_decision_quorum():
    assert decision(VotingState.of(("a", "cat"), ("b", "cat")), ABC) == Decided("cat")
    assert decision(VotingState.of(("a", "cat")), ABC) == UNDECIDED
    assert decision(VotingState.bottom(), ABC) == UNDECIDED


def test_decision_invalid_on_double_vote():
    state = VotingState.of(("a", "cat"), ("b", "cat"), ("a", "dog"))
    assert decision(state, ABC) == INVALID


def test_decision_split_vote_stays_undecided():
    state = VotingState.of(("a", "cat"), ("b", "dog"))
    assert decision(state, ABC) == UNDECIDED


def test_quorum_is_a_strict_majority():
    assert ABC.quorum == 2
    assert Membership.of("a", "b", "c", "d").quorum == 3
    assert Membership.of("a").quorum == 1
    five = Membership.of(*"abcde")
    votes = VotingState.of(("a", "x"), ("b", "x"))
    assert decision(votes, five) == UNDECIDED
    assert decision(votes.merge(VotingState.of(("c", "x"))), five) == Decided("x")


def test_tally():
    assert tally(VotingState.bottom()) == {}
    assert tally(VotingState.of(("a", "cat"), ("b", "dog"))) == {"cat": 1, "dog": 1}
    assert tally(VotingState.of(("a", "cat"), ("a", "dog"))) is None


def test_leading_value_counts_and_tie_break():
    assert leading_value(VotingState.bottom()) is None
    assert leading_value(VotingState.of(("a", "dog"), ("b", "dog"), ("c", "cat"))) == "dog"
    # tie: the least value in the canonical order wins, deterministically
    assert leading_value(VotingState.of(("a", "dog"), ("b", "cat"))) == "cat"
    # 9 < 10 as numbers, but "10" < "9" as canonical strings: the
    # canonical order decides the tie, not Python's order
    assert leading_value(VotingState.of(("a", 9), ("b", 10))) == 10
    assert leading_value(VotingState.of(("a", 9), ("b", 10), ("c", 9))) == 9
    assert leading_value(VotingState.of(("a", "cat"))) == "cat"


def test_voting_adapter():
    protocol = Voting(ABC)
    a = ReplicaContext("a")
    state = protocol.bottom()
    delta = protocol.propose(state, "cat", a)
    state = protocol.merge(state, delta)
    assert protocol.propose(state, "dog", a) == protocol.bottom()
    assert protocol.upkeep(state, a) == protocol.bottom()
    assert protocol.decision(state) == UNDECIDED


votes_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["cat", "dog"])),
    max_size=4,
).map(lambda pairs: VotingState.of(*pairs))


@given(votes_strategy, votes_strategy)
def test_decision_is_monotone(state, delta):
    assert agreement_leq(decision(state, ABC), decision(state.merge(delta), ABC))


@given(votes_strategy, votes_strategy)
def test_has_not_voted_freezes_at_false(state, delta):
    # threshold behavior: once the local vote exists, no growth of the
    # state can flip the query back
    a = ReplicaContext("a")
    if not has_not_voted(state, a):
        assert not has_not_voted(state.merge(delta), a)


def test_parallel_decision():
    assert parallel_decision((Decided("cat"), Decided("dog"))) == Decided(("cat", "dog"))
    assert parallel_decision((INVALID, Decided("dog"))) == INVALID
    assert parallel_decision((UNDECIDED, Decided("dog"))) == UNDECIDED
    assert parallel_decision((UNDECIDED, INVALID)) == INVALID


def test_parallel_voting_adapter():
    protocol = ParallelVoting(ABC)
    ctxs = [ReplicaContext(r) for r in "abc"]
    state = protocol.bottom()
    for ctx in ctxs[:2]:
        state = protocol.merge(state, protocol.propose(state, ("cat", "dog"), ctx))
    assert protocol.decision(state) == Decided(("cat", "dog"))
    # one component decided, the other split: jointly undecided
    half = ParallelVotingState(
        VotingState.of(("a", "cat"), ("b", "cat")),
        VotingState.of(("a", "x"), ("b", "y")),
    )
    assert protocol.decision(half) == UNDECIDED
