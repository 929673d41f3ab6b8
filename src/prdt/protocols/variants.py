"""Consensus variants built by composing the single-decree protocol.

Each variant is a lattice combinator wrapped around ``PaxosState`` plus
one extra protocol action, ``nextDecision``, whose enabling query checks
that the present instance has decided. A variant drives and reads its
instances through ``paxos.propose``, ``paxos.upkeep`` and
``paxos.decision``, and reads each instance's outcome once per call;
``paxos.propose`` declines a decided or poisoned instance by itself.
``MultiPaxos`` also uses ``phase1a``, ``is_current_leader``,
``single_round``, ``current_ballot`` and ``paxos.check_state`` for its
seed round and the store's hooks.
Its ``propose`` and ``upkeep`` deltas are the inner Paxos deltas carried
through its combinator by ``lift``, which maps the empty inner delta to
the variant's own bottom:

* ``MultiPaxos``: an epoch counter around one instance; advancing
  discards the decided instance and casts the advancing replica's own
  election vote for the decided round's leader in the new epoch's seed
  round, ``(leader, 0)``, so the stable leader proposes as soon as a
  quorum has advanced, without opening a new ballot.
* ``SequencePaxos``: a log of instances merged index-wise; a new entry
  may be appended only when every existing entry has decided.
* ``GenPaxos``: a map of named decisions, each carrying the set of
  predecessor decisions it depends on; independent decisions proceed
  concurrently.
* ``ReconfigurablePaxos``: each epoch pairs a value consensus with a
  membership consensus; the membership decided in epoch n is the quorum
  rule for epoch n+1.

Epoch-wrapped variants report decisions qualified by the epoch counter,
``Decided((counter, value))``: each epoch is its own consensus instance,
so outcomes of different epochs must never be compared as conflicting.
Within one epoch the decision is monotone; advancing the epoch resets it
by design (the wrapper deliberately forgets the decided instance), which
is exactly why the runtime snapshots decided values before advancing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .. import codec
from ..kernel import (
    Agreement,
    Consensus,
    Decided,
    INVALID,
    Invalid,
    ReplicaContext,
    UNDECIDED,
)
from ..lattice import Epoch, GrowSet, MergeList, MergeMap, ProductMixin
from .paxos import BallotNum, PaxosRound, PaxosState, is_current_leader, phase1a, single_round
from .paxos import check_state as check_paxos_state
from .paxos import decision as paxos_decision, propose as paxos_propose, upkeep as paxos_upkeep
from .voting import Membership, VotingState


def lift(delta: PaxosState, wrap: Callable[[PaxosState], Any], bottom):
    """Lift an inner Paxos delta through a combinator: ``wrap`` places it
    in the composite state, and the empty delta maps to ``bottom``."""
    if delta == PaxosState.bottom():
        return bottom
    return wrap(delta)


_EPOCH_BOTTOM = Epoch(0, PaxosState.bottom())


def in_epoch(counter: int, delta: PaxosState) -> Epoch:
    """An inner Paxos delta placed in epoch ``counter``."""
    return lift(delta, lambda d: Epoch(counter, d), _EPOCH_BOTTOM)


class _CounterQualified(Consensus):
    """Decisions of an ``Epoch``-wrapped protocol, qualified by the
    counter; subclasses supply ``inner_decision``, the epoch's outcome."""

    def decision(self, state: Epoch) -> Agreement:
        d = self.inner_decision(state)
        if isinstance(d, Decided):
            return Decided((state.counter, d.value))
        return d

    def decision_instance(self, value):
        counter, _ = value
        return counter


class MultiPaxos(_CounterQualified):
    """Repeated decisions under a stable leader, one epoch per decision.

    Advancing seeds the new epoch with one round, ``(leader, 0)``, where
    ``leader`` owns the decided round's ballot. The seed holds only the
    advancing replica's own vote for that leader: a promise the replica
    casts itself, as its first act in the new epoch, so no replica ever
    speaks for another. Counter 0 sits below every ``phase1a`` ballot, so
    any replica may still outbid the seed. The leader's seed is confirmed
    once a quorum has advanced, and until then its ``propose`` waits
    instead of opening a ballot; restarting is the election timer's job.
    """

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> Epoch:
        return _EPOCH_BOTTOM

    def inner_decision(self, state: Epoch) -> Agreement:
        """Outcome of the current epoch's instance, unqualified."""
        return paxos_decision(state.value, self.membership)

    def propose(self, state: Epoch, value, ctx: ReplicaContext) -> Epoch:
        if isinstance(self.inner_decision(state), Decided):
            advanced = self.next_decision(state, ctx)
            return advanced.merge(self._propose_in_epoch(advanced, value, ctx))
        return self._propose_in_epoch(state, value, ctx)

    def _propose_in_epoch(self, state: Epoch, value, ctx: ReplicaContext) -> Epoch:
        """``paxos.propose`` in the current epoch, except that the leader
        of an unconfirmed seed round waits for its quorum to advance."""
        inner, own_seed = state.value, BallotNum(ctx.replica_id, 0)
        if inner.current_ballot() == own_seed and not is_current_leader(inner, self.membership, ctx):
            return self.bottom()
        return in_epoch(state.counter, paxos_propose(state.value, value, ctx, self.membership))

    def upkeep(self, state: Epoch, ctx: ReplicaContext, pending=None) -> Epoch:
        return in_epoch(state.counter, paxos_upkeep(state.value, ctx, self.membership, pending))

    def restart(self, state: Epoch, ctx: ReplicaContext) -> Epoch:
        """The election-timeout action: a fresh ballot, owned by the local
        replica, in the current epoch."""
        return in_epoch(state.counter, phase1a(state.value, ctx))

    def leader(self, state: Epoch) -> Optional[str]:
        """The owner of the current epoch's highest ballot, or None when
        the epoch has no round: the seed owner right after an advance,
        the candidate during a duel."""
        ballot = state.value.current_ballot()
        return None if ballot is None else ballot.uid

    def check_state(self, state, is_value) -> None:
        """Raise ``ValueError`` unless ``state`` has the shape of a
        MultiPaxos state whose proposals vote values that pass
        ``is_value``. A peer state of any other shape would decode, merge
        and then break the next protocol step."""
        if not (isinstance(state, Epoch) and type(state.counter) is int):
            raise ValueError(f"expected an epoch, got {state!r}")
        check_paxos_state(state.value, is_value)

    def next_decision(self, state: Epoch, ctx: ReplicaContext) -> Epoch:
        for ballot, round_ in reversed(state.value.rounds.entries):
            if isinstance(round_.outcome(self.membership), Decided):
                vote = VotingState.of((ctx.replica_id, ballot.uid))
                seed = single_round(BallotNum(ballot.uid, 0), PaxosRound(leader_election=vote))
                return Epoch(state.counter + 1, seed)
        return self.bottom()


@dataclass(frozen=True)
class GenOp(ProductMixin):
    """One named decision: its consensus instance and its dependencies."""

    consensus: PaxosState = PaxosState()
    predecessors: GrowSet = GrowSet()


def _first_undecided(outcomes: list) -> Optional[int]:
    return next((i for i, d in enumerate(outcomes) if d == UNDECIDED), None)


class SequencePaxos(Consensus):
    """A replicated log: one instance per index, appended when all decided."""

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> MergeList:
        return MergeList.bottom()

    def outcomes(self, state: MergeList) -> list:
        """Each entry's outcome, in log order."""
        return [paxos_decision(instance, self.membership) for instance in state]

    def first_undecided(self, state: MergeList) -> Optional[int]:
        return _first_undecided(self.outcomes(state))

    def decision(self, state: MergeList) -> Agreement:
        """Invalid as soon as any entry is; otherwise the head entry's outcome."""
        outcomes = self.outcomes(state)
        if any(isinstance(d, Invalid) for d in outcomes):
            return INVALID
        return outcomes[0] if outcomes else UNDECIDED

    def _at(self, index: int, delta: PaxosState) -> MergeList:
        return lift(delta, lambda d: MergeList((PaxosState.bottom(),) * index + (d,)), self.bottom())

    def propose(self, state: MergeList, value, ctx: ReplicaContext) -> MergeList:
        outcomes = self.outcomes(state)
        index = _first_undecided(outcomes)
        if index is None:
            if any(isinstance(d, Invalid) for d in outcomes):
                return self.bottom()
            index = len(state)
        instance = state[index] if index < len(state) else PaxosState.bottom()
        return self._at(index, paxos_propose(instance, value, ctx, self.membership))

    def upkeep(self, state: MergeList, ctx: ReplicaContext, pending=None) -> MergeList:
        index = self.first_undecided(state)
        if index is None:
            return self.bottom()
        return self._at(index, paxos_upkeep(state[index], ctx, self.membership, pending))

    def next_decision(self, state: MergeList, ctx: ReplicaContext) -> MergeList:
        """Append a blank instance once every existing entry has decided."""
        if not all(isinstance(d, Decided) for d in self.outcomes(state)):
            return self.bottom()
        return MergeList((PaxosState.bottom(),) * len(state) + (PaxosState.bottom(),))

    def check_action_invariant(self, pre_state: MergeList, delta: MergeList, ctx: ReplicaContext) -> Optional[str]:
        """Prefix discipline at the acting replica: a delta may only touch
        index n when entries 0..n-1 of the actor's own state are decided."""
        outcomes = self.outcomes(pre_state)
        for n in range(len(delta)):
            if delta[n] == PaxosState.bottom():
                continue
            if n > len(pre_state):
                return f"append at {n} skips {len(pre_state)}"
            for i in range(n):
                if not isinstance(outcomes[i], Decided):
                    return f"vote at index {n} while index {i} undecided"
        return None


class GenPaxos(Consensus):
    """Named concurrent decisions ordered only by explicit dependencies."""

    def __init__(self, membership: Membership):
        self.membership = membership

    def bottom(self) -> MergeMap:
        return MergeMap.bottom()

    def outcomes(self, state: MergeMap) -> dict:
        """Each named decision's outcome, by uid."""
        return {uid: paxos_decision(op.consensus, self.membership) for uid, op in state.entries}

    def op_decision(self, state: MergeMap, uid) -> Agreement:
        return paxos_decision(state.get(uid).consensus, self.membership)

    def decision(self, state: MergeMap) -> Agreement:
        """Invalid as soon as any named decision is; never Decided.

        A map of independent outcomes has no single decided value, and
        reporting one (say, of the least uid) would flip as new names
        appear, breaking monotonicity. Per-name outcomes are read with
        ``op_decision``.
        """
        if any(isinstance(d, Invalid) for d in self.outcomes(state).values()):
            return INVALID
        return UNDECIDED

    def fresh_uid(self, state: MergeMap, ctx: ReplicaContext) -> tuple:
        top = max((seq for rid, seq in state.keys() if rid == ctx.replica_id), default=0)
        return (ctx.replica_id, top + 1)

    def next_decision(self, state: MergeMap, predecessors: frozenset, ctx: ReplicaContext) -> MergeMap:
        """Open a fresh named decision depending on the given ones.

        Naming an unknown predecessor is a caller error, not a disabled
        action. The query: every named predecessor has decided.
        """
        for uid in predecessors:
            if uid not in state:
                raise ValueError(f"unknown predecessor {uid!r}")
        for uid in predecessors:
            if not isinstance(self.op_decision(state, uid), Decided):
                return self.bottom()
        fresh = self.fresh_uid(state, ctx)
        return MergeMap(((fresh, GenOp(PaxosState.bottom(), GrowSet(predecessors))),))

    def _at(self, uid, delta: PaxosState) -> MergeMap:
        return lift(delta, lambda d: MergeMap(((uid, GenOp(d, GrowSet.bottom())),)), self.bottom())

    def propose(self, state: MergeMap, value, ctx: ReplicaContext) -> MergeMap:
        """Drive the least-named undecided decision, opening one if none is.

        A fresh decision names every currently decided operation as its
        predecessor, so random runs build dependency chains.
        """
        outcomes = self.outcomes(state)
        undecided = [uid for uid, d in outcomes.items() if d == UNDECIDED]
        if undecided:
            uid = min(undecided)
            return self._at(uid, paxos_propose(state.get(uid).consensus, value, ctx, self.membership))
        decided = frozenset(uid for uid, d in outcomes.items() if isinstance(d, Decided))
        fresh = self.fresh_uid(state, ctx)
        started = paxos_propose(PaxosState.bottom(), value, ctx, self.membership)
        return MergeMap(((fresh, GenOp(started, GrowSet(decided))),))

    def upkeep(self, state: MergeMap, ctx: ReplicaContext, pending=None) -> MergeMap:
        out = self.bottom()
        for uid, d in self.outcomes(state).items():
            if d == UNDECIDED:
                delta = paxos_upkeep(state.get(uid).consensus, ctx, self.membership, pending)
                out = out.merge(self._at(uid, delta))
        return out


@dataclass(frozen=True)
class ConfigRound(ProductMixin):
    """One reconfiguration epoch: who votes, who votes next, and on what."""

    current_members: GrowSet = GrowSet()
    next_members: PaxosState = PaxosState()
    inner_consensus: PaxosState = PaxosState()


class ReconfigurablePaxos(_CounterQualified):
    """Value consensus whose membership is itself decided by consensus.

    Quorums come from the state's own ``current_members``, never from
    static configuration: the membership decided in epoch n becomes the
    quorum rule of epoch n+1. The genesis membership is installed by
    ``initial_state``; ``bottom`` stays a true neutral element with no
    members (under which nothing can decide).
    """

    def __init__(self, genesis: Membership):
        self.genesis = genesis

    def bottom(self) -> Epoch:
        return Epoch(0, ConfigRound.bottom())

    def initial_state(self) -> Epoch:
        return Epoch(0, ConfigRound(GrowSet(self.genesis.members)))

    def membership_of(self, state: Epoch) -> Optional[Membership]:
        members = state.value.current_members.elements
        return Membership(members) if members else None

    def _read(self, state: Epoch) -> tuple:
        """``(m, d_value, d_members)``: the epoch's membership and, under
        it, the outcomes of the value and of the next membership."""
        m = self.membership_of(state)
        if m is None:
            return None, UNDECIDED, UNDECIDED
        config = state.value
        return m, paxos_decision(config.inner_consensus, m), paxos_decision(config.next_members, m)

    def _next_epoch(self, state: Epoch, d_members: Decided) -> Epoch:
        return Epoch(state.counter + 1, ConfigRound(GrowSet(d_members.value.members)))

    def inner_decision(self, state: Epoch) -> Agreement:
        _, d_value, d_members = self._read(state)
        if isinstance(d_members, Invalid) or isinstance(d_value, Invalid):
            return INVALID
        return d_value

    def _wrap_value(self, state: Epoch, delta: PaxosState) -> Epoch:
        return lift(delta, lambda d: Epoch(state.counter, ConfigRound(inner_consensus=d)), self.bottom())

    def _wrap_members(self, state: Epoch, delta: PaxosState) -> Epoch:
        return lift(delta, lambda d: Epoch(state.counter, ConfigRound(next_members=d)), self.bottom())

    def propose(self, state: Epoch, value, ctx: ReplicaContext) -> Epoch:
        """Drive the epoch forward: decide the value, then the membership
        (keeping it unchanged when nobody asked for a change), then open
        the next epoch and propose there."""
        m, d_value, d_members = self._read(state)
        if m is None:
            return self.bottom()
        if not isinstance(d_value, Decided):
            return self._wrap_value(state, paxos_propose(state.value.inner_consensus, value, ctx, m))
        if not isinstance(d_members, Decided):
            # the epoch's own membership, kept when nobody asked for a change
            return self._wrap_members(state, paxos_propose(state.value.next_members, m, ctx, m))
        advanced = self._next_epoch(state, d_members)
        delta = paxos_propose(PaxosState.bottom(), value, ctx, d_members.value)
        return advanced.merge(self._wrap_value(advanced, delta))

    def propose_membership(self, state: Epoch, members: Membership, ctx: ReplicaContext) -> Epoch:
        m = self.membership_of(state)
        if m is None:
            return self.bottom()
        return self._wrap_members(state, paxos_propose(state.value.next_members, members, ctx, m))

    def upkeep(self, state: Epoch, ctx: ReplicaContext, pending=None) -> Epoch:
        m = self.membership_of(state)
        if m is None:
            return self.bottom()
        d_value = paxos_upkeep(state.value.inner_consensus, ctx, m, pending)
        d_members = paxos_upkeep(state.value.next_members, ctx, m, None)
        return self._wrap_value(state, d_value).merge(self._wrap_members(state, d_members))

    def next_decision(self, state: Epoch, ctx: ReplicaContext) -> Epoch:
        """Advance once both the value and the next membership are decided."""
        _, d_value, d_members = self._read(state)
        if not (isinstance(d_members, Decided) and isinstance(d_value, Decided)):
            return self.bottom()
        return self._next_epoch(state, d_members)


codec.record(GenOp, "genop", "c", "pred")
codec.record(ConfigRound, "config", "cur", "next", "val")
