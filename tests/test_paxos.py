"""Single-decree consensus: the four phase actions, the round-scanning
decision, and the upkeep ladder. Expected deltas are written out as
literal states so a regression shows up as a structural diff."""

from __future__ import annotations

import random

import pytest

from conftest import harvest
from prdt.kernel import (
    Decided,
    INVALID,
    ReplicaContext,
    UNDECIDED,
    agreement_join,
    agreement_leq,
)
from prdt.lattice import MergeMap
from prdt.protocols.paxos import (
    BallotNum,
    Paxos,
    PaxosRound,
    PaxosState,
    decision,
    is_current_leader,
    phase1a,
    phase1b,
    phase2a,
    phase2b,
    upkeep,
)
from prdt.protocols.voting import Membership, VotingState, tally

IDS = Membership.of("id1", "id2", "id3")
ID1, ID2, ID3 = (ReplicaContext(f"id{i}") for i in (1, 2, 3))


def state_of(*rounds) -> PaxosState:
    return PaxosState(MergeMap(tuple(rounds)))


def round_of(leader_votes=(), proposal_votes=()) -> PaxosRound:
    return PaxosRound(VotingState.of(*leader_votes), VotingState.of(*proposal_votes))


def test_ballot_order_counter_first_then_uid():
    assert BallotNum("id9", 1) < BallotNum("id1", 2)
    assert BallotNum("id1", 2) < BallotNum("id2", 2)
    assert max(BallotNum("id2", 1), BallotNum("id1", 1)) == BallotNum("id2", 1)


def test_phase1a_from_empty():
    delta = phase1a(PaxosState.bottom(), ID2)
    assert delta == state_of(
        (BallotNum("id2", 1), round_of(leader_votes=[("id2", "id2")]))
    )


def test_phase1a_tops_the_highest_counter():
    state = state_of((BallotNum("id1", 5), round_of(leader_votes=[("id1", "id1")])))
    delta = phase1a(state, ID1)
    assert delta.current_ballot() == BallotNum("id1", 6)


def test_concurrent_phase1a_merge_keeps_both_rounds():
    left = phase1a(PaxosState.bottom(), ID1)
    right = phase1a(PaxosState.bottom(), ID2)
    merged = left.merge(right)
    assert merged == state_of(
        (BallotNum("id1", 1), round_of(leader_votes=[("id1", "id1")])),
        (BallotNum("id2", 1), round_of(leader_votes=[("id2", "id2")])),
    )
    # equal counters: the uid breaks the tie for "current"
    assert merged.current_ballot() == BallotNum("id2", 1)


def test_phase1b_confirms_the_candidate():
    state = state_of((BallotNum("id2", 1), round_of(leader_votes=[("id2", "id2")])))
    delta = phase1b(state, ID3)
    assert delta == state_of(
        (BallotNum("id2", 1), round_of(leader_votes=[("id3", "id2")]))
    )


def test_phase1b_carries_the_last_accepted_value():
    promised = BallotNum("id1", 1)
    current = BallotNum("id2", 2)
    state = state_of(
        (promised, round_of(
            leader_votes=[("id1", "id1"), ("id3", "id1")],
            proposal_votes=[("id3", "val0")],
        )),
        (current, round_of(leader_votes=[("id2", "id2")])),
    )
    delta = phase1b(state, ID3)
    assert delta == state_of(
        (promised, round_of(proposal_votes=[("id3", "val0")])),
        (current, round_of(leader_votes=[("id3", "id2")])),
    )


def test_phase1b_disabled_cases():
    assert phase1b(PaxosState.bottom(), ID3) == PaxosState.bottom()
    no_candidate = state_of((BallotNum("id2", 1), PaxosRound()))
    assert phase1b(no_candidate, ID3) == PaxosState.bottom()
    voted = state_of(
        (BallotNum("id2", 1), round_of(leader_votes=[("id2", "id2"), ("id3", "id2")]))
    )
    assert phase1b(voted, ID3) == PaxosState.bottom()


def confirmed_leader_state(value_votes=()):
    return state_of(
        (BallotNum("id2", 1), round_of(
            leader_votes=[("id2", "id2"), ("id3", "id2")],
            proposal_votes=value_votes,
        )),
    )


def test_phase2a_proposes_own_value_when_unconstrained():
    state = confirmed_leader_state()
    assert is_current_leader(state, IDS, ID2)
    delta = phase2a(state, "val1", ID2, IDS)
    assert delta == state_of(
        (BallotNum("id2", 1), round_of(proposal_votes=[("id2", "val1")]))
    )


def test_phase2a_inherits_the_highest_prior_proposal():
    state = state_of(
        (BallotNum("id1", 1), round_of(
            leader_votes=[("id1", "id1")],
            proposal_votes=[("id1", "val0")],
        )),
        (BallotNum("id2", 2), round_of(
            leader_votes=[("id2", "id2"), ("id3", "id2")],
        )),
    )
    delta = phase2a(state, "val1", ID2, IDS)
    votes = delta.rounds.get(BallotNum("id2", 2)).proposals.votes
    assert {(v.voter, v.value) for v in votes} == {("id2", "val0")}


def test_phase2a_disabled_cases():
    state = confirmed_leader_state()
    assert phase2a(state, "val1", ID3, IDS) == PaxosState.bottom()
    assert phase2a(state, None, ID2, IDS) == PaxosState.bottom()
    proposed = confirmed_leader_state(value_votes=[("id2", "val1")])
    assert phase2a(proposed, "val2", ID2, IDS) == PaxosState.bottom()


def test_phase2b_accepts_the_current_proposal():
    state = confirmed_leader_state(value_votes=[("id2", "val1")])
    delta = phase2b(state, ID3)
    assert delta == state_of(
        (BallotNum("id2", 1), round_of(proposal_votes=[("id3", "val1")]))
    )


def test_phase2b_disabled_cases():
    assert phase2b(PaxosState.bottom(), ID3) == PaxosState.bottom()
    assert phase2b(confirmed_leader_state(), ID3) == PaxosState.bottom()
    accepted = confirmed_leader_state(value_votes=[("id2", "val1"), ("id3", "val1")])
    assert phase2b(accepted, ID3) == PaxosState.bottom()


def test_decision_quorum_in_any_round():
    state = confirmed_leader_state(value_votes=[("id2", "val1"), ("id3", "val1")])
    assert decision(state, IDS) == Decided("val1")
    assert decision(confirmed_leader_state(), IDS) == UNDECIDED
    assert decision(PaxosState.bottom(), IDS) == UNDECIDED


def test_decision_flags_cross_round_disagreement():
    # not reachable through the actions; built by hand to prove the
    # oracle would catch it
    state = state_of(
        (BallotNum("id1", 1), round_of(
            proposal_votes=[("id1", "valA"), ("id2", "valA")],
        )),
        (BallotNum("id2", 2), round_of(
            proposal_votes=[("id2", "valB"), ("id3", "valB")],
        )),
    )
    assert decision(state, IDS) == INVALID


def test_decision_flags_invalid_components():
    double_le = state_of(
        (BallotNum("id1", 1), round_of(
            leader_votes=[("id2", "id1"), ("id2", "id9")],
        )),
    )
    assert decision(double_le, IDS) == INVALID
    double_prop = state_of(
        (BallotNum("id1", 1), round_of(
            proposal_votes=[("id2", "v1"), ("id2", "v2")],
        )),
    )
    assert decision(double_prop, IDS) == INVALID


R3 = Membership.of("r1", "r2", "r3")
R5 = Membership.of("r1", "r2", "r3", "r4", "r5")


@pytest.mark.parametrize("first,second", [(R3, R5), (R5, R3)], ids=["3-then-5", "5-then-3"])
def test_round_outcome_is_kept_per_membership(first, second):
    round_ = round_of(leader_votes=[("r1", "r1"), ("r2", "r1")],
                      proposal_votes=[("r1", "v"), ("r2", "v")])
    expected = {R3: Decided("v"), R5: UNDECIDED}
    state = state_of((BallotNum("r1", 1), round_))
    for membership in (first, second, first):
        assert round_.outcome(membership) == expected[membership]
        assert decision(state, membership) == expected[membership]


def uncached_decision(state: PaxosState, membership: Membership):
    """The decision recomputed from the votes: a fold over ``tally``."""
    outcome = UNDECIDED
    for _, round_ in state.rounds.entries:
        counts = tally(round_.proposals)
        if tally(round_.leader_election) is None or counts is None:
            return INVALID
        for value, n in counts.items():
            if n >= membership.quorum:
                outcome = agreement_join(outcome, Decided(value))
    return outcome


def test_decision_matches_an_uncached_fold_under_either_membership():
    # rounds are shared across the harvested states and already carry
    # the outcomes their runs (over R3) read; R5 reads them afterwards
    states, _ = harvest(Paxos(R3), runs=40, max_steps=40, seed=19)
    decided = {R3: 0, R5: 0}
    for membership in (R3, R5, R3):
        for state in states:
            expected = uncached_decision(state, membership)
            assert decision(state, membership) == expected
            decided[membership] += isinstance(expected, Decided)
    assert decided[R3] > decided[R5] > 0


def test_upkeep_ladder():
    assert upkeep(PaxosState.bottom(), ID3, IDS) == PaxosState.bottom()
    # follower with a candidate: confirm
    opened = state_of((BallotNum("id2", 1), round_of(leader_votes=[("id2", "id2")])))
    assert upkeep(opened, ID3, IDS) == phase1b(opened, ID3)
    # confirmed leader without a proposal: propose the pending value
    ready = confirmed_leader_state()
    assert upkeep(ready, ID2, IDS, pending="val1") == phase2a(ready, "val1", ID2, IDS)
    assert upkeep(ready, ID2, IDS) == PaxosState.bottom()
    # once a proposal exists, accepting is the only useful step
    proposed = confirmed_leader_state(value_votes=[("id2", "val1")])
    assert upkeep(proposed, ID3, IDS) == phase2b(proposed, ID3)


def test_upkeep_is_bottom_after_full_participation():
    decided = state_of(
        (BallotNum("id2", 1), round_of(
            leader_votes=[("id2", "id2"), ("id3", "id2")],
            proposal_votes=[("id2", "val1"), ("id3", "val1")],
        )),
    )
    assert decision(decided, IDS) == Decided("val1")
    assert upkeep(decided, ID3, IDS) == PaxosState.bottom()
    assert upkeep(decided, ID2, IDS) == PaxosState.bottom()


def test_adapter_propose_paths():
    protocol = Paxos(IDS)
    assert protocol.propose(PaxosState.bottom(), "val1", ID1) == phase1a(PaxosState.bottom(), ID1)
    ready = confirmed_leader_state()
    assert protocol.propose(ready, "val1", ID2) == phase2a(ready, "val1", ID2, IDS)
    decided = confirmed_leader_state(value_votes=[("id2", "val1"), ("id3", "val1")])
    assert protocol.propose(decided, "val2", ID1) == PaxosState.bottom()


@pytest.fixture(scope="module")
def paxos_pool():
    protocol = Paxos(IDS)
    # module pool is small; the heavyweight sweep lives in the
    # acceptance suite
    states, pairs = harvest(protocol, runs=24, max_steps=25, seed=11)
    return protocol, states, pairs


def test_reachable_states_respect_self_leadership(paxos_pool):
    _, states, _ = paxos_pool
    for state in states:
        for ballot, round_ in state.rounds.entries:
            for vote in round_.leader_election.votes:
                assert vote.value == ballot.uid


def test_decision_monotone_on_reachable_pairs(paxos_pool):
    protocol, states, pairs = paxos_pool
    rng = random.Random(5)
    for _ in range(300):
        state, _ = pairs[rng.randrange(len(pairs))]
        delta = rng.choice(states)
        assert agreement_leq(
            protocol.decision(state), protocol.decision(state.merge(delta))
        )


def test_upkeep_quiesces_on_its_own_output(paxos_pool):
    protocol, states, _ = paxos_pool
    for state in states[:120]:
        for ctx in (ID1, ID2, ID3):
            grown = state.merge(upkeep(state, ctx, IDS))
            assert upkeep(grown, ctx, IDS) == PaxosState.bottom()
