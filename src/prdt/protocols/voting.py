"""Single-round majority voting, the smallest useful consensus state.

A voting state is a grow-only set of (voter, value) facts. A replica may
vote once; the guard is the threshold query hasNotVoted. The decision
function reports Invalid as soon as any voter is seen with two different
values, Decided(v) once v holds a strict majority of distinct voters,
and Undecided otherwise. Because votes are never retracted, both the
guard and the decision are monotone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Tuple

from .. import codec
from ..codec import canon
from ..kernel import (
    Agreement,
    Consensus,
    Decided,
    INVALID,
    Invalid,
    ReplicaContext,
    UNDECIDED,
)
from ..lattice import GrowSet, ProductMixin


@dataclass(frozen=True)
class Vote:
    """An immutable (voter, value) fact."""

    voter: str
    value: Any


@dataclass(frozen=True)
class VotingState(ProductMixin):
    votes: GrowSet = GrowSet()

    @classmethod
    def of(cls, *pairs: Tuple[str, Any]) -> "VotingState":
        return cls(GrowSet(frozenset(Vote(p, v) for p, v in pairs)))

    @functools.cached_property
    def counts(self):
        """``tally(self)``, computed once and kept on the value; never mutate it."""
        return tally(self)


@dataclass(frozen=True)
class Membership:
    """The replica-id set consensus runs over; quorum is a strict majority."""

    members: frozenset

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))

    @classmethod
    def of(cls, *ids: str) -> "Membership":
        return cls(frozenset(ids))

    @property
    def quorum(self) -> int:
        return len(self.members) // 2 + 1

    def __len__(self) -> int:
        return len(self.members)


def has_not_voted(state: VotingState, ctx: ReplicaContext) -> bool:
    """True while no vote by the local replica exists; freezes at false."""
    return all(v.voter != ctx.replica_id for v in state.votes)


def vote_for(state: VotingState, value, ctx: ReplicaContext) -> VotingState:
    """Cast the local replica's single vote; bottom once it has voted."""
    if not has_not_voted(state, ctx):
        return VotingState.bottom()
    return VotingState(GrowSet(frozenset((Vote(ctx.replica_id, value),))))


def tally(state: VotingState) -> dict:
    """Distinct-voter count per value; None when some voter voted twice."""
    seen: dict = {}
    for vote in state.votes:
        prior = seen.get(vote.voter)
        if prior is not None and prior != vote.value:
            return None
        seen[vote.voter] = vote.value
    counts: dict = {}
    for value in seen.values():
        counts[value] = counts.get(value, 0) + 1
    return counts


def leading_value(state: VotingState):
    """The value with the most distinct voters; ties broken by taking the
    least value in the canonical total order. None on an empty state."""
    counts = state.counts
    if not counts:
        return None
    if len(counts) == 1:
        # one candidate cannot tie; skip rendering its canonical form
        return next(iter(counts))
    return min(counts, key=lambda v: (-counts[v], canon(v)))


def decision(state: VotingState, membership: Membership) -> Agreement:
    counts = state.counts
    if counts is None:
        return INVALID
    for value, n in counts.items():
        if n >= membership.quorum:
            return Decided(value)
    return UNDECIDED


class Voting(Consensus):
    """Consensus adapter: propose casts the local vote, no upkeep step."""

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> VotingState:
        return VotingState.bottom()

    def propose(self, state: VotingState, value, ctx: ReplicaContext) -> VotingState:
        return vote_for(state, value, ctx)

    def decision(self, state: VotingState) -> Agreement:
        return decision(state, self.membership)

    def upkeep(self, state: VotingState, ctx: ReplicaContext, pending=None) -> VotingState:
        return VotingState.bottom()


def parallel_decision(pair) -> Agreement:
    """Decision of two votings composed in parallel.

    Takes the two component agreement values: Invalid dominates,
    then Undecided, else the pair of decided values.
    """
    left, right = pair
    if isinstance(left, Invalid) or isinstance(right, Invalid):
        return INVALID
    if left == UNDECIDED or right == UNDECIDED:
        return UNDECIDED
    return Decided((left.value, right.value))


@dataclass(frozen=True)
class ParallelVotingState(ProductMixin):
    first: VotingState = VotingState()
    second: VotingState = VotingState()


codec.record(Vote, "vote", "p", "v")
codec.record(VotingState, "voting", "v")
codec.register(
    Membership,
    "members",
    lambda x: {"t": "members", "v": codec.encode(GrowSet(x.members))},
    lambda d: Membership(codec.decode(d["v"]).elements),
)
codec.record(ParallelVotingState, "parvoting", "a", "b")


class ParallelVoting(Consensus):
    """Two independent votings whose joint outcome is the pair of outcomes.

    propose takes a (first, second) pair and votes both components.
    """

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> ParallelVotingState:
        return ParallelVotingState.bottom()

    def propose(self, state: ParallelVotingState, value, ctx: ReplicaContext) -> ParallelVotingState:
        first_value, second_value = value
        return ParallelVotingState(
            vote_for(state.first, first_value, ctx),
            vote_for(state.second, second_value, ctx),
        )

    def decision(self, state: ParallelVotingState) -> Agreement:
        return parallel_decision(
            (decision(state.first, self.membership), decision(state.second, self.membership))
        )
