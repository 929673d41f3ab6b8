"""Single-decree consensus as a grow-only map of ballot-numbered rounds.

The state is ``rounds: BallotNum -> PaxosRound`` where each round is a
product of two voting instances: ``leader_election`` (who leads this
ballot) and ``proposals`` (which value this ballot accepts). All four
phase actions return deltas; the knowledge a classic implementation
keeps in side registers (promises, accepted values) lives entirely in
the lattice:

* phase1a starts a fresh ballot, one higher than anything seen locally,
  and self-votes its leader election. Always enabled.
* phase1b confirms the candidate of the current (highest) ballot and, in
  the same delta, republishes the value this replica last accepted, so a
  confirmed leader provably knows every accepted value of its quorum.
* phase2a lets the confirmed leader vote a proposal: the value of the
  highest earlier ballot carrying any proposal vote, else its own.
* phase2b accepts the current ballot's proposal.

The promise of classic Paxos is implicit: a replica only ever acts on
its highest ballot, and states only grow, so confirming ballot b freezes
the replica out of all rounds below b forever.

The current round is the last entry of the key-sorted ``rounds``. A
decision is the agreement join of the rounds' outcomes. Each round keeps
its leader and its outcome per membership on itself, from one read of
its two votings. Rounds are shared objects: a merge keeps an unchanged
round as the same object across replicas and successive states, so each
round is tallied once, not once per state that holds it. Composed
protocols drive and read an instance only through ``propose``,
``upkeep`` and ``decision``; the ``Paxos`` adapter forwards to them.
``check_state`` checks the shape of a state decoded from a peer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Optional

from .. import codec
from ..kernel import (
    Agreement,
    Consensus,
    Decided,
    INVALID,
    Invalid,
    ReplicaContext,
    UNDECIDED,
    Undecided,
    agreement_join,
)
from ..lattice import MergeMap, ProductMixin, cached
from .voting import Membership, VotingState, check_votes, has_not_voted, leading_value
from .voting import decision as voting_decision


@total_ordering
@dataclass(frozen=True)
class BallotNum:
    """Round identifier, totally ordered by counter first, then owner id."""

    uid: str
    counter: int

    def __lt__(self, other: "BallotNum") -> bool:
        if type(other) is not BallotNum:
            return NotImplemented
        return (self.counter, self.uid) < (other.counter, other.uid)


@dataclass(frozen=True)
class PaxosRound(ProductMixin):
    leader_election: VotingState = VotingState()
    proposals: VotingState = VotingState()

    @cached
    def _reads(self) -> dict:
        return {}

    def _read(self, membership: Membership) -> tuple:
        """``(leader, outcome)`` under ``membership``.

        Computed once per membership and kept on the round, like a
        voting's ``counts``, keyed by the member set that defines the
        membership.
        """
        reads = self._reads
        found = reads.get(membership.members)
        if found is None:
            election = voting_decision(self.leader_election, membership)
            if isinstance(election, Invalid):
                found = (None, INVALID)
            else:
                leader = election.value if isinstance(election, Decided) else None
                found = (leader, voting_decision(self.proposals, membership))
            reads[membership.members] = found
        return found

    def leader(self, membership: Membership) -> Optional[str]:
        """The confirmed leader of this round, if its election decided."""
        return self._read(membership)[0]

    def outcome(self, membership: Membership) -> Agreement:
        """Invalid if either voting is; else the proposals' decision."""
        return self._read(membership)[1]


@dataclass(frozen=True)
class PaxosState(ProductMixin):
    rounds: MergeMap = MergeMap()

    def current_ballot(self) -> Optional[BallotNum]:
        return self.rounds.max_key()

    def next_ballot(self, uid: str) -> BallotNum:
        """A ballot owned by ``uid``, above every round seen here."""
        return BallotNum(uid, 1 + max((b.counter for b, _ in self.rounds.entries), default=0))


def single_round(ballot: BallotNum, round_: PaxosRound) -> PaxosState:
    """A state of one round: the delta every phase returns."""
    return PaxosState(MergeMap(((ballot, round_),)))


def check_state(state, is_value) -> None:
    """Raise ``ValueError`` unless ``state`` is a Paxos state keyed by
    ballots whose elections vote replica ids and whose proposals vote
    values that pass ``is_value``."""
    if not (isinstance(state, PaxosState) and isinstance(state.rounds, MergeMap)):
        raise ValueError(f"expected a Paxos state, got {state!r}")
    for ballot, round_ in state.rounds.entries:
        if not (isinstance(ballot, BallotNum) and type(ballot.uid) is str
                and type(ballot.counter) is int and isinstance(round_, PaxosRound)):
            raise ValueError(f"malformed round {ballot!r}: {round_!r}")
        check_votes(round_.leader_election, lambda v: type(v) is str)
        check_votes(round_.proposals, is_value)


def _voted_value(votes: VotingState, replica_id: str):
    for v in votes.votes:
        if v.voter == replica_id:
            return v.value
    return None


def phase1a(state: PaxosState, ctx: ReplicaContext) -> PaxosState:
    """Open a new highest ballot owned by the local replica. Always enabled."""
    round_ = PaxosRound(
        leader_election=VotingState.of((ctx.replica_id, ctx.replica_id)),
        proposals=VotingState.bottom(),
    )
    return single_round(state.next_ballot(ctx.replica_id), round_)


def phase1b(state: PaxosState, ctx: ReplicaContext) -> PaxosState:
    """Confirm the current ballot's candidate, carrying the last accepted value.

    Enabled while the current round has a candidate and the local replica
    has not yet voted in its leader election. The returned delta bundles
    the confirmation with a republication of the most recent proposal
    value this replica accepted (scanned from its own state), so the two
    facts always travel together.
    """
    if not state.rounds.entries:
        return PaxosState.bottom()
    ballot, round_ = state.rounds.entries[-1]
    candidate = leading_value(round_.leader_election)
    if candidate is None or not has_not_voted(round_.leader_election, ctx):
        return PaxosState.bottom()
    confirm = PaxosRound(leader_election=VotingState.of((ctx.replica_id, candidate)))
    delta = single_round(ballot, confirm)
    for promised, prior in reversed(state.rounds.entries):
        accepted = _voted_value(prior.proposals, ctx.replica_id)
        if accepted is not None:
            carried = PaxosRound(proposals=VotingState.of((ctx.replica_id, accepted)))
            return delta.merge(single_round(promised, carried))
    return delta


def is_current_leader(state: PaxosState, membership: Membership, ctx: ReplicaContext) -> bool:
    if not state.rounds.entries:
        return False
    return state.rounds.entries[-1][1].leader(membership) == ctx.replica_id


def _vote_proposal(state: PaxosState, value, ctx: ReplicaContext) -> PaxosState:
    """The local replica's one proposal vote, for ``value``, in the current round."""
    ballot, round_ = state.rounds.entries[-1]
    if value is None or not has_not_voted(round_.proposals, ctx):
        return PaxosState.bottom()
    return single_round(ballot, PaxosRound(proposals=VotingState.of((ctx.replica_id, value))))


def phase2a(state: PaxosState, my_value, ctx: ReplicaContext, membership: Membership) -> PaxosState:
    """Vote the leader's proposal into the current round.

    Enabled for the confirmed leader of the current ballot, once. The
    proposed value is taken from the highest earlier ballot that carries
    any proposal vote; only when no such ballot exists is the leader free
    to use its own value.
    """
    if not is_current_leader(state, membership, ctx):
        return PaxosState.bottom()
    value = my_value
    for _, prior in reversed(state.rounds.entries[:-1]):
        inherited = leading_value(prior.proposals)
        if inherited is not None:
            value = inherited
            break
    return _vote_proposal(state, value, ctx)


def phase2b(state: PaxosState, ctx: ReplicaContext) -> PaxosState:
    """Accept the current round's proposal.

    Enabled while the current round has a proposal the local replica has
    not yet voted for.
    """
    if not state.rounds.entries:
        return PaxosState.bottom()
    return _vote_proposal(state, leading_value(state.rounds.entries[-1][1].proposals), ctx)


def decision(state: PaxosState, membership: Membership) -> Agreement:
    """Outcome over all rounds: the agreement join of their outcomes.

    Decided(v) if any round's proposals reach quorum on v; Invalid if any
    round's component voting is Invalid or two rounds decide differently;
    Undecided otherwise. Flagging cross-round disagreement (unreachable
    under the actions above) maximizes the oracle's strength.
    """
    outcome: Agreement = UNDECIDED
    for _, round_ in state.rounds.entries:
        found = round_.outcome(membership)
        if not isinstance(found, Undecided):
            outcome = agreement_join(outcome, found)
            if isinstance(outcome, Invalid):
                return outcome
    return outcome


def upkeep(state: PaxosState, ctx: ReplicaContext, membership: Membership, pending=None) -> PaxosState:
    """Apply the next useful phase for the current round, if any.

    The current round is handled by protocol stage: once it carries a
    proposal, accepting (phase2b) is the only step that adds knowledge;
    before that, a confirmed leader's step is proposing (phase2a, which
    needs an inherited or pending value); otherwise a follower confirms
    the candidate (phase1b). Upkeep never opens a new ballot: restarts
    are runtime policy, not protocol state.
    """
    if not state.rounds.entries:
        return PaxosState.bottom()
    round_ = state.rounds.entries[-1][1]
    if round_.proposals.votes:
        return phase2b(state, ctx)
    if is_current_leader(state, membership, ctx):
        return phase2a(state, pending, ctx, membership)
    return phase1b(state, ctx)


def propose(state: PaxosState, value, ctx: ReplicaContext, membership: Membership) -> PaxosState:
    """Start or drive a round for the given value.

    A replica that already leads the current round proposes directly;
    anyone else opens a fresh ballot. Once the state is decided (or
    poisoned) there is nothing left to propose.
    """
    if not isinstance(decision(state, membership), Undecided):
        return PaxosState.bottom()
    if is_current_leader(state, membership, ctx):
        return phase2a(state, value, ctx, membership)
    return phase1a(state, ctx)


class Paxos(Consensus):
    """Consensus adapter for single-decree runs."""

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> PaxosState:
        return PaxosState.bottom()

    def propose(self, state: PaxosState, value, ctx: ReplicaContext) -> PaxosState:
        return propose(state, value, ctx, self.membership)

    def decision(self, state: PaxosState) -> Agreement:
        return decision(state, self.membership)

    def upkeep(self, state: PaxosState, ctx: ReplicaContext, pending=None) -> PaxosState:
        return upkeep(state, ctx, self.membership, pending)


codec.register(
    BallotNum,
    "ballot",
    lambda x: {"t": "ballot", "uid": x.uid, "n": x.counter},
    lambda d: BallotNum(d["uid"], d["n"]),
)
codec.record(PaxosRound, "round", "le", "prop")
codec.record(PaxosState, "paxos", "rounds")
