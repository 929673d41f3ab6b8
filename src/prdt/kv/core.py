"""Transport-free server logic: one event in, a list of effects out.

The core owns the replicated state and is driven by four event kinds:
a client request, a peer envelope, a peer (re)connect and a clock tick.
It never touches sockets; effects say what to transmit. All state
mutation happens on the caller's single thread, so snapshots handed to
effects are immutable values and safe to serialize elsewhere.

The consensus instance is one epoch of a stable-leader protocol per log
entry. Every event that can change the state ends in one progress loop
(``_progress``): upkeep, unless it already ran on this very state, then
act on the epoch's decision until it stops changing. Decided appends
the value to the local log *before* the advance discards the epoch; a
replica whose epoch counter is ahead of its log length has a hole and
waits for the sync exchange to fill it. A sync request carries the
requester's log length; the response carries the state plus only the
log entries past that length, and the receiver adopts those past its
own length, which may have grown while the response was in flight.
Undecided proposes the head operation once per (epoch, request).
Invalid raises: the state can never be valid again, so the caller must
fail stop.

One client operation is serviced at a time, in arrival order. The head
operation is re-proposed every epoch until the log accepts it; a decided
epoch answers the client whose operation it holds. Reads are answered
from the map the log applies to. An election timer restarts the ballot
when the head operation makes no progress.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List, Optional

from .. import codec
from ..kernel import Decided, Invalid, ReplicaContext
from ..protocols.paxos import BallotNum, PaxosRound, PaxosState, phase1a
from ..protocols.variants import MultiPaxos, in_epoch
from ..protocols.voting import Membership, Vote, VotingState
from ..lattice import Epoch, GrowSet, MergeMap
from . import wire
from .wire import Read, Write


def _is_op(value) -> bool:
    if isinstance(value, Write):
        return type(value.key) is str and type(value.value) is str
    return isinstance(value, Read) and type(value.key) is str


def _log_index(value) -> int:
    """A log position named by a peer: a non-negative int, not a bool."""
    if type(value) is not int or value < 0:
        raise ValueError(f"malformed log index {value!r}")
    return value


def _check_votes(votes, is_value) -> None:
    if not (isinstance(votes, VotingState) and isinstance(votes.votes, GrowSet)):
        raise ValueError(f"expected a voting, got {votes!r}")
    for vote in votes.votes:
        if not (isinstance(vote, Vote) and type(vote.voter) is str and is_value(vote.value)):
            raise ValueError(f"malformed vote {vote!r}")


def _check_state(state) -> None:
    """Raise ``ValueError`` unless ``state`` has the shape of a store
    state: an epoch over Paxos rounds whose elections vote replica ids
    and whose proposals vote operations. A peer state of any other shape
    would decode, merge and then break the next protocol step."""
    if not (isinstance(state, Epoch) and type(state.counter) is int
            and isinstance(state.value, PaxosState)
            and isinstance(state.value.rounds, MergeMap)):
        raise ValueError(f"expected a store state, got {state!r}")
    for ballot, round_ in state.value.rounds.entries:
        if not (isinstance(ballot, BallotNum) and type(ballot.uid) is str
                and type(ballot.counter) is int and isinstance(round_, PaxosRound)):
            raise ValueError(f"malformed round {ballot!r}: {round_!r}")
        _check_votes(round_.leader_election, lambda v: type(v) is str)
        _check_votes(round_.proposals, _is_op)


@dataclass(frozen=True)
class SendToPeer:
    peer: str
    envelope: dict


@dataclass(frozen=True)
class Respond:
    request_id: Any
    response: dict


class ServerCore:
    def __init__(self, uid: str, peer_ids, election_timeout: float = 0.5):
        self.uid = uid
        self.peers = tuple(peer_ids)
        self.ctx = ReplicaContext(uid)
        self.membership = Membership(frozenset((uid,) + self.peers))
        self.protocol = MultiPaxos(self.membership)
        self.state = self.protocol.bottom()
        self.decided_ops: List = []
        # the map the decided log applies to; reads are answered from it
        self.values: dict = {}
        self.pending = deque()
        self.now = 0.0
        self.election_timeout = election_timeout
        self.election_deadline: Optional[float] = None
        self._last_proposal_key = None
        self._upkept = None  # the state upkeep last ran on
        # Join of the deltas generated while handling the current event;
        # flushed as one envelope per peer when the handler returns. The
        # join of deltas is itself a delta, so coalescing is free.
        self._outgoing = self.protocol.bottom()

    # -- events ------------------------------------------------------

    def on_client_request(self, request_id, frame: dict) -> List:
        effects: List = []
        try:
            op = wire.parse_request(frame)
        except (ValueError, KeyError, TypeError):
            effects.append(Respond(request_id, wire.error_response("bad request")))
            return effects
        self.pending.append((request_id, op))
        self._progress(effects)
        return self._flush(effects)

    def on_envelope(self, frame: dict) -> List:
        effects: List = []
        try:
            envelope = wire.parse_envelope(frame)
            sender = envelope["sender"]
            if sender not in self.peers:
                raise ValueError(f"envelope from a non-peer: {sender!r}")
            kind = envelope["kind"]
            if kind == wire.DELTA:
                delta = codec.decode(envelope["payload"])
                _check_state(delta)
                self._absorb(delta, sender, effects)
            elif kind == wire.SYNC_REQUEST:
                # ship only the log suffix the requester lacks
                start = min(_log_index(envelope["payload"]["have"]), len(self.decided_ops))
                effects.append(SendToPeer(
                    sender,
                    wire.sync_response_envelope(self.uid, self.state, self.decided_ops, start),
                ))
            elif kind == wire.SYNC_RESPONSE:
                payload = envelope["payload"]
                start = _log_index(payload["from"])
                if start > len(self.decided_ops):
                    raise ValueError(f"sync suffix from {start} skips past our log")
                state = codec.decode(payload["state"])
                _check_state(state)
                # suffix entries below our own log's length are decided here already
                missing = [codec.decode(doc)
                           for doc in payload["log"][len(self.decided_ops) - start:]]
                if not all(map(_is_op, missing)):
                    raise ValueError("sync log holds a non-operation")
                for op in missing:
                    self._append_decided(op, effects)
                self._absorb(state, sender, effects)
        except (ValueError, KeyError, TypeError):
            # Malformed frames are dropped; the connection stays up and
            # any lost knowledge is recovered by a later sync.
            pass
        return self._flush(effects)

    def on_peer_connected(self, peer: str) -> List:
        # Full state is a valid delta, so pushing it plus requesting the
        # peer's own repairs both directions after a reconnect.
        return [
            self._sync_request(peer),
            SendToPeer(peer, wire.delta_envelope(self.uid, self.state)),
        ]

    def on_tick(self, now: float) -> List:
        self.now = now
        effects: List = []
        if self.pending and self.election_deadline is not None and now >= self.election_deadline:
            restart = in_epoch(self.state.counter, phase1a(self.state.value, self.ctx))
            self._apply_local(restart)
            self._reset_election()
            self._progress(effects)
        return self._flush(effects)

    # -- internals ---------------------------------------------------

    def _sync_request(self, peer: str) -> SendToPeer:
        """Ask ``peer`` for its state and the log past our own length."""
        return SendToPeer(peer, wire.sync_request_envelope(self.uid, len(self.decided_ops)))

    def _reset_election(self) -> None:
        self.election_deadline = self.now + self.election_timeout

    def _apply_local(self, delta) -> bool:
        """Merge a locally produced delta and queue it for dissemination;
        bottom is silent."""
        if delta == self.protocol.bottom():
            return False
        merged = self.protocol.merge(self.state, delta)
        if merged == self.state:
            return False
        self.state = merged
        self._outgoing = self.protocol.merge(self._outgoing, delta)
        return True

    def _flush(self, effects: List) -> List:
        """Emit the event's accumulated delta, one envelope per peer."""
        out = self._outgoing
        if out != self.protocol.bottom():
            self._outgoing = self.protocol.bottom()
            envelope = wire.delta_envelope(self.uid, out)
            for peer in self.peers:
                effects.append(SendToPeer(peer, envelope))
        return effects

    def _absorb(self, incoming, sender: str, effects: List) -> None:
        """Merge peer knowledge, then take our next protocol step."""
        merged = self.protocol.merge(self.state, incoming)
        if merged != self.state:
            self.state = merged
        if self.state.counter > len(self.decided_ops):
            # The merge jumped past an epoch we never saw decided.
            effects.append(self._sync_request(sender))
        self._progress(effects)

    def _progress(self, effects: List) -> None:
        """The replica's one step after any event: upkeep, then act on
        the epoch's decision until there is nothing left to do."""
        if self.state is not self._upkept:
            # Upkeep is a function of the state and the head operation,
            # and the head matters only to a leader with no proposal yet,
            # which the propose below covers: rerun on the same state
            # (a client request, a duplicate delta) it adds nothing.
            head = self.pending[0][1] if self.pending else None
            self._apply_local(self.protocol.upkeep(self.state, self.ctx, pending=head))
            self._upkept = self.state
        while True:
            d = self.protocol.inner_decision(self.state)
            if isinstance(d, Invalid):
                raise AssertionError(f"replicated state became Invalid in epoch {self.state.counter}")
            if isinstance(d, Decided):
                if self.state.counter > len(self.decided_ops):
                    # Hole below the current epoch: wait for sync to fill
                    # it before appending, or indices would lie.
                    return
                if self.state.counter == len(self.decided_ops):
                    self._append_decided(d.value, effects)
                # The advance discards this epoch when joined, so any
                # not-yet-sent evidence that decided it must ship first
                # as its own envelope or peers would see a hole.
                self._flush(effects)
                step = self.protocol.next_decision(self.state, self.ctx)
            else:
                # Propose the head operation once per (epoch, request).
                if not self.pending:
                    return
                request_id, op = self.pending[0]
                if self._last_proposal_key == (self.state.counter, request_id):
                    return
                self._last_proposal_key = (self.state.counter, request_id)
                if self.election_deadline is None:
                    self._reset_election()
                step = self.protocol.propose(self.state, op, self.ctx)
            if not self._apply_local(step):
                return

    def _append_decided(self, op, effects: List) -> None:
        self.decided_ops.append(op)
        if isinstance(op, Write):
            self.values[op.key] = op.value
            response = wire.ok_response()
        elif op.key in self.values:
            response = wire.ok_response(self.values[op.key])
        else:
            response = wire.not_found_response()
        if self.pending and self.pending[0][1] == op:
            request_id, _ = self.pending.popleft()
            effects.append(Respond(request_id, response))
            self._last_proposal_key = None
            self.election_deadline = None
