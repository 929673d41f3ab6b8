"""Transport-free server logic: one event in, a list of effects out.

The core owns the replicated state and is driven by four event kinds:
a client request, a peer envelope, a peer (re)connect and a clock tick.
It never touches sockets; effects say what to transmit. All state
mutation happens on the caller's single thread, so snapshots handed to
effects are immutable values and safe to serialize elsewhere.

The consensus instance is one epoch of a stable-leader protocol per log
entry, and the value an epoch decides is a batch: a non-empty tuple of
entries. Every event that can change the state ends in one progress
loop (``_progress``): upkeep, unless it already ran on this very state
with a batch, then act on the epoch's decision until it stops changing.
Decided appends the batch to the local log *before* the advance
discards the epoch. A replica whose epoch counter is ahead of its log
length (the number of decided epochs) has a hole: it does not know what
the hidden epochs decided, and they may have decided its pending
entries. Its progress loop then takes no step (no upkeep, no proposal,
no append) and only asks the peer it heard from for a sync, unless a
request to that peer is still unanswered (an answer that brings no
batch, from a peer missing the same epochs, leaves it so); each tick
while the hole lasts sends every unanswered request again. Nothing else
asks: a reconnect pushes state, and a peer the push shows to be behind
finds its hole. A sync request carries the requester's log length; the
response carries the state, the batches past that length and where
they start. The receiver refuses one that starts past its log and
adopts the batches past its log, which may have grown while the
response was in flight. Upkeep is the one path to a proposal: a
confirmed leader's upkeep proposes every pending entry, in arrival
order, then every forwarded one, as one batch. It reruns on an
unchanged state only if it last ran with nothing to propose, so a
request at an idle, confirmed leader is proposed in its own event.
Undecided with an entry pending starts the election timer,
then forwards the pending entries to a leader this core hears (below),
or acts once per (epoch, head request): the owner of the current ballot
waits for a quorum to confirm it, and any other core opens a ballot.
Invalid raises: the state can never be valid again, so the caller must
fail stop.

The deltas an event produces are joined per epoch and kept in epoch
order, and leave as one DELTA envelope, sent to each recipient. The
receiver checks every part, then absorbs them in order, progressing
after each, so a follower's acceptance in epoch c and its first act in
epoch c+1 share a frame without the advance hiding the decision of c.

Knowledge only accumulates, so who receives a delta changes no
decision, only how soon a peer learns it. Every DELTA names the leader
its sender hears directly, or None: the owner of the sender's current
ballot, if a DELTA from that peer arrived while it owned the current
ballot, in the current epoch or the one before (the forwarding rule
below counts any frame from the peer). With a quorum of two (three
nodes or fewer), the leader's vote and a follower's own decide an
epoch, so a follower that hears the leader sends its DELTA to the
leader, to each peer whose last DELTA did not say it hears the same
leader, and to each peer it has not yet told that it does: the two
followers of a healthy three-node cluster tell each other nothing. The
leader, a core that hears no leader and every larger membership send to
every peer. A peer cut off from the leader hears no one and says so, so
it keeps getting every delta through the middle. A follower cut off
silently (its link to the leader died after the leader's last frame)
catches up on a reconnect or through its own election timer: it
campaigns in its stale epoch, and a peer that gets a DELTA whose parts
all lie below its own epoch, and whose sender owns the highest ballot
of the last part, answers with its whole state, which shows it its
hole. Any other stale DELTA is absorbed silently.

A core that advances as the owner of the new seed round with nothing
pending or forwarded holds its own seed vote: no follower needs it
(each casts its own, and the leader needs only one of theirs), so it is
not sent while it is all that is queued. It leaves in the core's next
DELTA, normally its proposal in that epoch, joined into the same part,
or on the next tick; a reconnect's full-state push carries it too.
Holding a delta is only delaying a message.

Client requests queue in arrival order, each as an entry: the node's id,
a per-core request counter and the operation. Everything queued is
proposed at once, and pending entries are re-proposed every epoch until
the log accepts them. A decided batch takes effect one entry at a time
through ``wire.apply``, which returns the response the entry's operation
earns, and each entry this core holds as pending answers the request it
names with that response, so a read behind a write of its key in one
batch sees that write. An election timer restarts the ballot when the
head request makes no progress. The counter restarts with the process,
like the rest of the core's state (ROADMAP item 2): an entry from before
a restart then answers a new request only if origin, counter and
operation all agree. Keeping the counter across a restart waits for
item 2's checkpoint.

A core with pending entries whose leader (the owner of the current
epoch's highest ballot) is another peer opens no ballot: it sends that
peer one FORWARD of the pending entries not yet sent to it, those past a
mark (leader, seq), so each entry goes once per leader, and again when
the leader reconnects. It does so only if it has heard that peer
directly in its current epoch or the one before; a leader it cannot
reach would swallow every forward, so then it opens a ballot. The
origin keeps its entries pending and answers its clients from its own
log; if the leader is gone, the election timer restarts the ballot and
the origin proposes them itself. The leader keeps forwarded entries, an
ordered set, after its own pending ones. It drops one it originated
(its own are pending here), one it already holds and one that the log
decided past the sender's length, and drops each as the log decides it.
Only the owner of the current ballot proposes them, through upkeep.

The core knows no protocol internals, no payload format and no
operation semantics: beside the consensus contract it calls the
protocol's ``check_state`` on every peer state before a merge, its
``restart`` to open a ballot, on an election timeout and for a core
with entries pending that neither owns nor hears the current ballot,
and its ``leader`` before it acts.
Every payload is one codec document, ``hears`` included:
``wire.envelope`` encodes each body it sends, ``wire.parse_envelope``
decodes and shape-checks each frame, and the core judges only where a
body meets its own log. Entries are opaque to it; ``wire.apply`` gives
each decided operation its effect on ``values`` and its response. Both
``check_state`` and ``wire`` raise only ``ValueError``, so a malformed
frame is dropped and never stops a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from ..kernel import Decided, Invalid, ReplicaContext
from ..protocols import Membership, MultiPaxos
from . import wire


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
        membership = Membership(frozenset((uid,) + self.peers))
        self.protocol = MultiPaxos(membership)
        # taken once: a Consensus delegator set as ``protocol`` later
        # forwards only the contract's methods
        self._check_state = self.protocol.check_state
        self._restart = self.protocol.restart
        self._leader = self.protocol.leader
        self.state = self.protocol.bottom()
        # one decided batch per epoch, the log that sync ships
        self.log: List = []
        # the map the decided log applies to; reads are answered from it
        self.values: dict = {}
        # entry -> request id, in arrival order
        self.pending: dict = {}
        self._seq = 0  # client requests taken
        # entries other nodes handed to this one: an ordered set (a dict)
        self.forwarded: dict = {}
        self.now = 0.0
        self.election_timeout = election_timeout
        self.election_deadline: Optional[float] = None
        self._acted = None  # (epoch, head request) last acted on
        # (leader, seq): pending entries, in seq order, went to that
        # leader up to seq; every forward sends all the ones past it
        self._forwarded_to = (None, 0)
        # each peer's last envelope: our epoch counter when it arrived
        self._heard: dict = {}
        # With a quorum of two, the leader's vote and a follower's own
        # decide, so a follower that hears the leader skips each peer
        # that it has told so and that hears the same leader.
        self._broadcast = membership.quorum != 2
        # each peer's last DELTA while it owned our current ballot: our
        # epoch counter then. Two records: ``_heard`` is set before a frame
        # merges, so a forward follows at once; ``_led`` skips frames from
        # before the peer led, which must not make us say we hear it.
        self._led: dict = {}
        # the leader each peer's last DELTA said it hears, and the one
        # our last DELTA to each peer said we hear
        self._peer_hears: dict = {}
        self._told: dict = {}
        self._upkept = None  # the state upkeep last ran on
        # the current event's deltas, joined per epoch in epoch order (a
        # join across epochs would let the advance hide a decision)
        self._outgoing: List = []
        # an idle leader's own seed vote while it is all that is queued
        self._held = None
        # peers asked for a sync and not yet answered with a batch, in the
        # order asked
        self._asked: dict = {}

    @property
    def decided_ops(self) -> List:
        """The operations of ``log`` in decided order."""
        return [entry.op for batch in self.log for entry in batch]

    # -- events ------------------------------------------------------

    def on_client_request(self, request_id, frame: dict) -> List:
        effects: List = []
        try:
            op = wire.parse_request(frame)
        except ValueError:
            effects.append(Respond(request_id, wire.error_response("bad request")))
            return effects
        self._seq += 1
        self.pending[wire.Entry(self.uid, self._seq, op)] = request_id
        self._progress(effects)
        return self._flush(effects)

    def on_envelope(self, frame: dict) -> List:
        effects: List = []
        try:
            sender, kind, body = wire.parse_envelope(frame)
            if sender not in self.peers:
                raise ValueError(f"envelope from a non-peer: {sender!r}")
            self._heard[sender] = self.state.counter
            if kind == wire.DELTA:
                parts, hears = body
                for part in parts:
                    self._check_state(part, wire.is_batch)
                self._peer_hears[sender] = hears
                stale = parts[-1].counter < self.state.counter
                for part in parts:
                    self._absorb(part, sender, effects)
                if self._leader(self.state) == sender:
                    self._led[sender] = self.state.counter
                if stale and self._leader(parts[-1]) == sender:
                    # a stale node campaigns: it may hear no one else
                    self._push_state(sender, effects)
            elif kind == wire.SYNC_REQUEST:
                # ship only the log suffix the requester lacks
                start = min(body, len(self.log))
                answer = (self.state, start, tuple(self.log[start:]))
                effects.append(SendToPeer(sender, wire.envelope(self.uid, wire.SYNC_RESPONSE, answer)))
            elif kind == wire.FORWARD:
                self._take_forward(*body)
                self._progress(effects)
            else:
                state, start, batches = body
                if start > len(self.log):
                    raise ValueError(f"sync suffix from {start} skips past our log")
                self._check_state(state, wire.is_batch)
                # the batches below our log length are decided here already
                new = batches[len(self.log) - start:]
                if new:
                    # answered: a hole this answer leaves open asks again.
                    # One with no batch stays unanswered for the tick to
                    # repeat, or two peers missing one epoch ask each
                    # other without end.
                    self._asked.pop(sender, None)
                for batch in new:
                    self._append_decided(batch, effects)
                self._absorb(state, sender, effects)
        except ValueError:
            # Malformed frames are dropped; the connection stays up and
            # any lost knowledge is recovered by a later sync.
            pass
        return self._flush(effects)

    def on_peer_connected(self, peer: str) -> List:
        # Full state is a valid delta, and shows a peer that is behind its
        # hole. A forward to the leader may have died with the link.
        effects: List = []
        self._push_state(peer, effects)
        if peer == self._leader(self.state):
            self._forwarded_to = (None, 0)
            self._progress(effects)
        return self._flush(effects)

    def on_tick(self, now: float) -> List:
        self.now = now
        effects: List = []
        if self.state.counter > len(self.log):
            # while the hole lasts, a request lost on the way is sent again
            self._request_sync(self._asked, effects)
        if self.pending and self.election_deadline is not None and now >= self.election_deadline:
            self._apply_local(self._restart(self.state, self.ctx))
            # the fresh ballot is this epoch's act for the head, also
            # after a forward: upkeep votes the batch once it is confirmed
            self._acted = (self.state.counter, next(iter(self.pending)))
            self._reset_election()
            self._progress(effects)
        # a held seed vote waits for a proposal no longer than a tick
        self._held = None
        return self._flush(effects)

    # -- internals ---------------------------------------------------

    def _request_sync(self, peers, effects: List) -> None:
        """Ask each of ``peers`` for its state and the log past our own."""
        ask = wire.envelope(self.uid, wire.SYNC_REQUEST, len(self.log))
        effects.extend(SendToPeer(peer, ask) for peer in peers)

    def _reset_election(self) -> None:
        self.election_deadline = self.now + self.election_timeout

    def _apply_local(self, delta) -> bool:
        """Merge a locally produced delta and queue it for dissemination;
        bottom is silent."""
        if delta == self.protocol.bottom():
            return False
        merged = self.protocol.merge(self.state, delta)
        if merged is self.state:
            return False
        self.state = merged
        out = self._outgoing
        if out and out[-1].counter == delta.counter:
            out[-1] = self.protocol.merge(out[-1], delta)
        else:
            out.append(delta)
        return True

    def _hears(self) -> Optional[str]:
        """The owner of our current ballot if it is a peer whose DELTA
        arrived while it owned our current ballot, in this epoch or the
        one before; else None."""
        owner = self._leader(self.state)
        if owner in self._led and self._led[owner] >= self.state.counter - 1:
            return owner
        return None

    def _push_state(self, peer: str, effects: List) -> None:
        """Send ``peer`` our whole state, which is a valid delta."""
        hears = self._told[peer] = self._hears()
        effects.append(SendToPeer(peer, wire.envelope(self.uid, wire.DELTA, (hears, self.state))))

    def _flush(self, effects: List) -> List:
        """Emit the event's deltas as one envelope to each recipient,
        unless all that is queued is a held seed vote."""
        out = self._outgoing
        if out and not (len(out) == 1 and out[0] is self._held):
            hears = self._hears()
            envelope = wire.envelope(self.uid, wire.DELTA, (hears, *out))
            self._outgoing = []
            self._held = None
            for peer in self.peers:
                if (hears is None or self._broadcast or peer == hears
                        or self._peer_hears.get(peer) != hears or self._told.get(peer) != hears):
                    self._told[peer] = hears
                    effects.append(SendToPeer(peer, envelope))
        return effects

    def _absorb(self, incoming, sender: str, effects: List) -> None:
        """Merge peer knowledge, then take our next protocol step."""
        self.state = self.protocol.merge(self.state, incoming)
        self._progress(effects, sender)

    def _progress(self, effects: List, sender: Optional[str] = None) -> None:
        """The replica's one step after any event: upkeep, then act on
        the epoch's decision until there is nothing left to do. With a
        hole it takes no step and asks ``sender``, if any, for a sync."""
        if self.state.counter > len(self.log):
            if sender is not None and sender not in self._asked:
                self._asked[sender] = None
                self._request_sync((sender,), effects)
            return
        if self.state is not self._upkept:
            # Upkeep is a function of the state and the pending batch,
            # and the batch matters only to a confirmed leader with no
            # proposal yet: rerun on the same state (a duplicate delta)
            # adds nothing, unless it ran with no batch and one is here.
            batch = self._batch() or None
            self._apply_local(self.protocol.upkeep(self.state, self.ctx, pending=batch))
            self._upkept = self.state if batch else None
        while True:
            d = self.protocol.inner_decision(self.state)
            if isinstance(d, Invalid):
                raise AssertionError(f"replicated state became Invalid in epoch {self.state.counter}")
            if isinstance(d, Decided):
                if self.state.counter == len(self.log):
                    self._append_decided(d.value, effects)
                step = self.protocol.next_decision(self.state, self.ctx)
                # An idle owner of the new seed holds its own vote: each
                # follower casts its own, and the leader needs only one.
                if not (self.pending or self.forwarded) and self._leader(step) == self.uid:
                    self._held = step
            else:
                # forwarded entries wait for the ballot owner's upkeep
                if not self.pending:
                    return
                if self.election_deadline is None:
                    self._reset_election()
                leader = self._leader(self.state)
                if leader in self._heard and self._heard[leader] >= self.state.counter - 1:
                    # a peer leads, heard directly this epoch or the one before
                    self._forward(leader, effects)
                    return
                # Act once per (epoch, head request): the ballot owner
                # waits for upkeep to propose once a quorum confirms it,
                # anyone else opens a ballot.
                key = (self.state.counter, next(iter(self.pending)))
                if self._acted == key:
                    return
                self._acted = key
                if leader == self.uid:
                    return
                step = self._restart(self.state, self.ctx)
            if not self._apply_local(step):
                return

    def _forward(self, leader: str, effects: List) -> None:
        """Hand ``leader`` every pending entry not yet sent to it."""
        sent =self._forwarded_to[1] if self._forwarded_to[0] == leader else 0
        entries = tuple(entry for entry in self.pending if entry.seq > sent)
        if entries:
            self._forwarded_to = (leader, entries[-1].seq)
            body = (len(self.log), entries)
            effects.append(SendToPeer(leader, wire.envelope(self.uid, wire.FORWARD, body)))

    def _take_forward(self, have: int, batch) -> None:
        """Keep each forwarded entry unless this core is its origin (it
        holds its own entries as pending), it is held already or it was
        decided in an epoch the sender had not seen."""
        decided = set().union(*self.log[have:])
        self.forwarded.update((e, None) for e in batch if e.origin != self.uid and e not in decided)

    def _batch(self) -> tuple:
        """Every pending entry in arrival order, then every forwarded one."""
        return tuple(self.pending) + tuple(self.forwarded)

    def _append_decided(self, batch, effects: List) -> None:
        self.log.append(batch)
        for entry in batch:
            response = wire.apply(self.values, entry.op)
            self.forwarded.pop(entry, None)
            if entry in self.pending:
                effects.append(Respond(self.pending.pop(entry), response))
                self._acted = None  # (epoch, head request) last acted on
                self.election_deadline = None
