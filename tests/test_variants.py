"""Composed variants: epoch-qualified decisions, leader retention, log
discipline, named concurrent decisions, and self-governed membership."""

from __future__ import annotations

import pytest

from prdt import sim
from prdt.kernel import Decided, INVALID, ReplicaContext, UNDECIDED
from prdt.lattice import Epoch, GrowSet, MergeList, MergeMap
from prdt.protocols.paxos import (
    BallotNum,
    PaxosRound,
    PaxosState,
    is_current_leader,
)
from prdt.protocols.variants import (
    ConfigRound,
    GenOp,
    GenPaxos,
    MultiPaxos,
    ReconfigurablePaxos,
    SequencePaxos,
)
from prdt.protocols.voting import Membership, VotingState

R123 = Membership.of("r1", "r2", "r3")
R1, R2, R3 = (ReplicaContext(f"r{i}") for i in (1, 2, 3))


def state_of(*rounds) -> PaxosState:
    return PaxosState(MergeMap(tuple(rounds)))


def round_of(leader_votes=(), proposal_votes=()) -> PaxosRound:
    return PaxosRound(VotingState.of(*leader_votes), VotingState.of(*proposal_votes))


def decided_inner(value="v1", leader="r1", counter=1) -> PaxosState:
    voters = sorted(R123.members)[:2]
    return state_of(
        (BallotNum(leader, counter), round_of(
            leader_votes=[(v, leader) for v in voters],
            proposal_votes=[(v, value) for v in voters],
        )),
    )


def invalid_inner() -> PaxosState:
    return state_of(
        (BallotNum("r1", 1), round_of(proposal_votes=[("r2", "a"), ("r2", "b")])),
    )


def leader_of(state: PaxosState, membership: Membership):
    """The confirmed leader of the highest round of ``state`` that has one."""
    for _, round_ in reversed(state.rounds.entries):
        leader = round_.leader(membership)
        if leader is not None:
            return leader
    return None


# -- leader_of ---------------------------------------------------------

def test_leader_of_prefers_the_highest_confirmed_round():
    assert leader_of(PaxosState.bottom(), R123) is None
    assert leader_of(decided_inner(), R123) == "r1"
    two = state_of(
        (BallotNum("r1", 1), round_of(leader_votes=[("r1", "r1"), ("r2", "r1")])),
        (BallotNum("r2", 2), round_of(leader_votes=[("r2", "r2"), ("r3", "r2")])),
    )
    assert leader_of(two, R123) == "r2"


# -- MultiPaxos --------------------------------------------------------

def test_epoch_decision_is_counter_qualified():
    protocol = MultiPaxos(R123)
    assert protocol.decision(Epoch(0, decided_inner())) == Decided((0, "v1"))
    assert protocol.decision(Epoch(2, decided_inner())) == Decided((2, "v1"))
    assert protocol.decision(Epoch(2, PaxosState.bottom())) == UNDECIDED
    assert protocol.decision_instance((2, "v1")) == 2


def test_epoch_propose_on_decided_opens_the_next_instance():
    protocol = MultiPaxos(R123)
    delta = protocol.propose(Epoch(0, decided_inner()), "v2", R2)
    assert delta.counter == 1
    # the decided instance stays behind: only the seed round, holding the
    # proposer's own vote for r1, and the proposer's fresh ballot are in
    # the new epoch
    assert set(delta.value.rounds.keys()) == {BallotNum("r1", 0), BallotNum("r2", 1)}
    assert delta.value.rounds.get(BallotNum("r1", 0)).leader_election == VotingState.of(("r2", "r1"))
    # the advanced epoch absorbs the decided instance it replaces
    assert delta.merge(Epoch(0, decided_inner())) == delta


def test_epoch_propose_on_invalid_is_disabled():
    protocol = MultiPaxos(R123)
    assert protocol.propose(Epoch(0, invalid_inner()), "v2", R2) == protocol.bottom()
    assert protocol.upkeep(Epoch(0, invalid_inner()), R2) == protocol.bottom()


def test_multipaxos_advance_carries_the_leader():
    protocol = MultiPaxos(R123)
    advanced = protocol.next_decision(Epoch(0, decided_inner()), R3)
    assert advanced.counter == 1
    ((ballot, round_),) = advanced.value.rounds.entries
    # the seed sits below every phase1a ballot and holds one real
    # promise: the advancing replica's own vote for the decided leader
    assert ballot == BallotNum("r1", 0)
    assert round_.leader_election == VotingState.of(("r3", "r1"))
    assert round_.proposals == VotingState.bottom()
    assert leader_of(advanced.value, R123) is None
    # the leader is confirmed once a quorum has advanced
    joined = advanced.merge(protocol.next_decision(Epoch(0, decided_inner()), R1))
    assert is_current_leader(joined.value, R123, R1)
    assert leader_of(joined.value, R123) == "r1"
    assert protocol.next_decision(Epoch(4, decided_inner(leader="r2")), R1).value.current_ballot() \
        == BallotNum("r2", 0)


def test_multipaxos_retained_leader_proposes_without_an_election():
    protocol = MultiPaxos(R123)
    decided = Epoch(0, decided_inner())
    # alone in the new epoch, the leader waits for its quorum instead of
    # opening a ballot
    delta = protocol.propose(decided, "v2", R1)
    assert delta == protocol.next_decision(decided, R1)
    assert protocol.propose(delta, "v2", R1) == protocol.bottom()
    # once r2 has advanced too, its propose is phase 2 in the seed round
    confirmed = delta.merge(protocol.next_decision(decided, R2))
    step = protocol.propose(confirmed, "v2", R1)
    assert step.counter == 1
    assert set(step.value.rounds.keys()) == {BallotNum("r1", 0)}
    round_ = step.value.rounds.get(BallotNum("r1", 0))
    assert {(v.voter, v.value) for v in round_.proposals.votes} == {("r1", "v2")}


def test_multipaxos_other_replica_must_open_a_ballot():
    protocol = MultiPaxos(R123)
    delta = protocol.propose(Epoch(0, decided_inner()), "v2", R2)
    assert delta.counter == 1
    # r2's own ballot outbids the seed it just voted in
    assert delta.value.current_ballot() == BallotNum("r2", 1)
    assert BallotNum("r1", 0) < BallotNum("r2", 1)
    assert leader_of(delta.value, R123) is None
    # a seed that is not the replica's own never holds its propose back
    seeded = protocol.next_decision(Epoch(0, decided_inner()), R3)
    assert protocol.propose(seeded, "v2", R2).value.current_ballot() == BallotNum("r2", 1)


def test_multipaxos_leader_owns_the_highest_ballot():
    protocol = MultiPaxos(R123)
    assert protocol.leader(protocol.bottom()) is None
    # right after an advance the seed owner leads, before any quorum
    # confirms it
    advanced = protocol.next_decision(Epoch(0, decided_inner(leader="r2")), R3)
    assert protocol.leader(advanced) == "r2"
    # a restart makes the local replica the owner of the highest ballot
    restarted = advanced.merge(protocol.restart(advanced, R1))
    assert protocol.leader(restarted) == "r1"
    assert leader_of(restarted.value, R123) is None


def multipaxos_config(runs=1) -> sim.SimConfig:
    return sim.SimConfig(replica_count=3, steps_per_run=200, runs=runs,
                         value_pool=("val1", "val2"), rng_seed=13, stall_threshold=8)


def test_multipaxos_advance_forges_no_promise():
    # Copying the decided round's election into the next epoch claimed
    # promises the other replicas never cast there; with that copy, this
    # run turned slot 1 Invalid after 127 steps.
    result = sim.run_one(MultiPaxos(R123), multipaxos_config(), 13)
    assert result.ok, result.trace.violations
    assert len(result.trace.steps) == 200


def test_multipaxos_random_runs_keep_agreement():
    report = sim.run_random_test(MultiPaxos(R123), multipaxos_config(runs=300), stop_on_failure=False)
    assert (report.runs, report.failures) == (300, 0), (
        report.first_failure.violations if report.first_failure else None)
    assert report.decided_runs >= 290


def test_multipaxos_advance_is_disabled_until_decided():
    protocol = MultiPaxos(R123)
    undecided = Epoch(0, state_of(
        (BallotNum("r1", 1), round_of(leader_votes=[("r1", "r1"), ("r2", "r1")])),
    ))
    assert protocol.next_decision(undecided, R1) == protocol.bottom()


# -- SequencePaxos -----------------------------------------------------

def test_sequence_propose_appends_at_the_head():
    protocol = SequencePaxos(R123)
    delta = protocol.propose(protocol.bottom(), "v1", R1)
    assert len(delta) == 1
    assert delta[0].current_ballot() == BallotNum("r1", 1)


def test_sequence_propose_drives_the_first_undecided_index():
    protocol = SequencePaxos(R123)
    log = MergeList((decided_inner(), PaxosState.bottom()))
    delta = protocol.propose(log, "v2", R2)
    assert len(delta) == 2
    assert delta[0] == PaxosState.bottom()
    assert delta[1].current_ballot() == BallotNum("r2", 1)


def test_sequence_propose_appends_only_when_all_decided():
    protocol = SequencePaxos(R123)
    log = MergeList((decided_inner(),))
    delta = protocol.propose(log, "v2", R2)
    assert len(delta) == 2 and delta[0] == PaxosState.bottom()


def test_sequence_concurrent_appends_land_in_one_instance():
    protocol = SequencePaxos(R123)
    left = protocol.propose(protocol.bottom(), "v1", R1)
    right = protocol.propose(protocol.bottom(), "v2", R2)
    merged = left.merge(right)
    # index-wise merge: both openings target slot 0, so they contend in
    # a single instance instead of forking the log
    assert len(merged) == 1
    assert len(merged[0].rounds.entries) == 2


def test_sequence_upkeep_targets_the_first_undecided():
    protocol = SequencePaxos(R123)
    opened = state_of((BallotNum("r1", 1), round_of(leader_votes=[("r1", "r1")])))
    log = MergeList((decided_inner(), opened))
    delta = protocol.upkeep(log, R3)
    assert delta[0] == PaxosState.bottom()
    assert len(delta[1].rounds.entries) == 1
    assert protocol.upkeep(MergeList((decided_inner(),)), R3) == protocol.bottom()


def test_sequence_decision_reports_the_head():
    protocol = SequencePaxos(R123)
    assert protocol.decision(protocol.bottom()) == UNDECIDED
    assert protocol.decision(MergeList((decided_inner(), PaxosState.bottom()))) == Decided("v1")
    assert protocol.decision(MergeList((PaxosState.bottom(), decided_inner()))) == UNDECIDED
    assert protocol.decision(MergeList((decided_inner(), invalid_inner()))) == INVALID


def test_sequence_advance_appends_a_blank_slot():
    protocol = SequencePaxos(R123)
    log = MergeList((decided_inner(),))
    assert protocol.next_decision(log, R1) == MergeList((PaxosState.bottom(),) * 2)
    assert protocol.next_decision(MergeList((PaxosState.bottom(),)), R1) == protocol.bottom()


def test_sequence_action_invariant_messages():
    protocol = SequencePaxos(R123)
    pre = MergeList((PaxosState.bottom(),))
    skip = protocol._at(2, state_of((BallotNum("r1", 1), round_of())))
    assert protocol.check_action_invariant(pre, skip, R1) == "append at 2 skips 1"
    early = protocol._at(1, state_of((BallotNum("r1", 1), round_of())))
    assert (
        protocol.check_action_invariant(pre, early, R1)
        == "vote at index 1 while index 0 undecided"
    )
    ok = protocol.propose(MergeList((decided_inner(),)), "v2", R2)
    assert protocol.check_action_invariant(MergeList((decided_inner(),)), ok, R2) is None
    assert protocol.check_action_invariant(pre, protocol.bottom(), R1) is None


# -- GenPaxos ----------------------------------------------------------

def test_gen_fresh_uids_are_per_replica_counters():
    protocol = GenPaxos(R123)
    assert protocol.fresh_uid(protocol.bottom(), R1) == ("r1", 1)
    state = MergeMap((
        (("r1", 3), GenOp()),
        (("r2", 5), GenOp()),
    ))
    assert protocol.fresh_uid(state, R1) == ("r1", 4)
    assert protocol.fresh_uid(state, R3) == ("r3", 1)


def test_gen_open_requires_known_decided_predecessors():
    protocol = GenPaxos(R123)
    with pytest.raises(ValueError):
        protocol.next_decision(protocol.bottom(), frozenset({("r9", 1)}), R1)
    pending = MergeMap(((("r1", 1), GenOp()),))
    assert protocol.next_decision(pending, frozenset({("r1", 1)}), R1) == protocol.bottom()
    done = MergeMap(((("r1", 1), GenOp(consensus=decided_inner())),))
    delta = protocol.next_decision(done, frozenset({("r1", 1)}), R2)
    assert delta == MergeMap((
        (("r2", 1), GenOp(PaxosState.bottom(), GrowSet.of(("r1", 1)))),
    ))
    # no predecessors: enabled on any state
    free = protocol.next_decision(protocol.bottom(), frozenset(), R3)
    assert free == MergeMap(((("r3", 1), GenOp()),))


def test_gen_propose_opens_then_drives_the_least_undecided():
    protocol = GenPaxos(R123)
    opened = protocol.propose(protocol.bottom(), "v1", R1)
    assert set(opened.keys()) == {("r1", 1)}
    assert opened.get(("r1", 1)).consensus.current_ballot() == BallotNum("r1", 1)
    again = protocol.propose(opened, "v9", R2)
    assert set(again.keys()) == {("r1", 1)}  # drives the open op, no new name


def test_gen_decision_is_never_a_value():
    protocol = GenPaxos(R123)
    done = MergeMap(((("r1", 1), GenOp(consensus=decided_inner())),))
    assert protocol.op_decision(done, ("r1", 1)) == Decided("v1")
    assert protocol.decision(done) == UNDECIDED
    bad = MergeMap(((("r1", 1), GenOp(consensus=invalid_inner())),))
    assert protocol.decision(bad) == INVALID


def test_gen_independent_decisions_run_concurrently():
    protocol = GenPaxos(R123)
    states = {r: protocol.bottom() for r in ("r1", "r2", "r3")}
    states["r1"] = states["r1"].merge(protocol.propose(states["r1"], "v1", R1))
    states["r2"] = states["r2"].merge(protocol.propose(states["r2"], "v2", R2))
    pending = {"r1": "v1", "r2": "v2", "r3": None}
    for _ in range(6):
        joined = states["r1"].merge(states["r2"]).merge(states["r3"])
        states = {r: joined for r in states}
        for rid, ctx in (("r1", R1), ("r2", R2), ("r3", R3)):
            states[rid] = states[rid].merge(
                protocol.upkeep(states[rid], ctx, pending=pending[rid])
            )
    final = states["r1"].merge(states["r2"]).merge(states["r3"])
    assert protocol.op_decision(final, ("r1", 1)) == Decided("v1")
    assert protocol.op_decision(final, ("r2", 1)) == Decided("v2")
    assert protocol.decision(final) == UNDECIDED


# -- ReconfigurablePaxos -----------------------------------------------

GENESIS = Membership.of("r1", "r2", "r3")


def reconfig_state(value_state=None, members_state=None, counter=0, members=("r1", "r2", "r3")):
    return Epoch(counter, ConfigRound(
        current_members=GrowSet.of(*members),
        next_members=members_state or PaxosState.bottom(),
        inner_consensus=value_state or PaxosState.bottom(),
    ))


def test_reconfig_bottom_has_no_members():
    protocol = ReconfigurablePaxos(GENESIS)
    assert protocol.bottom() != protocol.initial_state()
    assert protocol.membership_of(protocol.bottom()) is None
    assert protocol.membership_of(protocol.initial_state()) == GENESIS
    assert protocol.propose(protocol.bottom(), "v1", R1) == protocol.bottom()
    assert protocol.upkeep(protocol.bottom(), R1) == protocol.bottom()


def test_reconfig_propose_drives_the_value_first():
    protocol = ReconfigurablePaxos(GENESIS)
    delta = protocol.propose(protocol.initial_state(), "v1", R1)
    assert delta.counter == 0
    assert delta.value.inner_consensus.current_ballot() == BallotNum("r1", 1)
    assert delta.value.next_members == PaxosState.bottom()
    # deltas carry no membership; the merged state keeps it
    assert delta.value.current_members == GrowSet.bottom()


def test_reconfig_membership_proposal_targets_the_side_instance():
    protocol = ReconfigurablePaxos(GENESIS)
    wider = Membership.of("r1", "r2", "r3", "r4")
    delta = protocol.propose_membership(protocol.initial_state(), wider, R2)
    assert delta.value.inner_consensus == PaxosState.bottom()
    assert delta.value.next_members.current_ballot() == BallotNum("r2", 1)


def test_reconfig_advance_installs_the_decided_membership():
    protocol = ReconfigurablePaxos(GENESIS)
    wider = Membership.of("r1", "r2", "r3", "r4")
    state = reconfig_state(
        value_state=decided_inner("v1"),
        members_state=decided_inner(wider),
    )
    assert protocol.decision(state) == Decided((0, "v1"))
    advanced = protocol.next_decision(state, R1)
    assert advanced.counter == 1
    assert protocol.membership_of(advanced) == wider
    assert protocol.membership_of(advanced).quorum == 3
    assert advanced.value.inner_consensus == PaxosState.bottom()


def test_reconfig_advance_needs_both_instances_decided():
    protocol = ReconfigurablePaxos(GENESIS)
    value_only = reconfig_state(value_state=decided_inner("v1"))
    assert protocol.next_decision(value_only, R1) == protocol.bottom()
    members_only = reconfig_state(members_state=decided_inner(GENESIS))
    assert protocol.next_decision(members_only, R1) == protocol.bottom()


def test_reconfig_propose_on_a_finished_epoch_moves_on():
    protocol = ReconfigurablePaxos(GENESIS)
    wider = Membership.of("r1", "r2", "r3", "r4")
    state = reconfig_state(
        value_state=decided_inner("v1"),
        members_state=decided_inner(wider),
    )
    delta = protocol.propose(state, "v9", R1)
    assert delta.counter == 1
    assert set(delta.value.current_members.elements) == set(wider.members)
    assert delta.value.inner_consensus != PaxosState.bottom()
