"""Server core behavior over an in-process network: replication, log
holes and sync repair, election restarts, and partition tolerance."""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import HOSTILE_DELTAS, MemoryNet, delta_frame
from prdt import codec
from prdt.kernel import Consensus
from prdt.kv import wire
from prdt.kv.core import Respond, SendToPeer, ServerCore
from prdt.kv.wire import Entry, Read, Write
from prdt.lattice import Epoch, MergeMap
from prdt.protocols.paxos import BallotNum, PaxosRound, PaxosState
from prdt.protocols.voting import VotingState


EMPTY_VOTING = {"t": "voting", "v": {"t": "set", "v": []}}
BOTTOM_STATE = {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": []}}}
WRONG_INNER_DOC = {"t": "epoch", "n": 5, "v": {"t": "set", "v": []}}
WRONG_INNER_STATE = delta_frame("n2", WRONG_INNER_DOC)
STRING_ROUND_KEY = delta_frame(
    "n2", {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": [
        ["x", {"t": "round", "le": EMPTY_VOTING, "prop": EMPTY_VOTING}],
    ]}}})
BALLOT_N2_1 = {"t": "ballot", "uid": "n2", "n": 1}
EMPTY_ROUND = {"t": "round", "le": EMPTY_VOTING, "prop": EMPTY_VOTING}
REPEATED_ROUND_KEY = delta_frame(
    "n2", {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": [
        [BALLOT_N2_1, EMPTY_ROUND], [BALLOT_N2_1, EMPTY_ROUND],
    ]}}})


def tup(*docs) -> dict:
    """The codec document of the tuple of ``docs``."""
    return {"t": "tup", "v": list(docs)}


def sync_response(payload) -> dict:
    return {"kind": "SYNC_RESPONSE", "sender": "n2", "payload": payload}


NON_OP_SYNC_LOG = sync_response(tup(BOTTOM_STATE, 0, tup({"t": "set", "v": []})))
PUT_DOC = {"t": "put", "k": "k", "v": "v"}
# n2's first request, a put of k=v, as a batch holds it
ENTRY_DOC = {"t": "p", "o": "n2", "s": 1, "k": "k", "v": "v"}
EPOCH_1_STATE = {"t": "epoch", "n": 1, "v": {"t": "paxos", "rounds": {"t": "map", "v": []}}}
# a DELTA payload is a tuple (hears, part, ...): hears with no part, a
# bare state, an empty tuple and a list are dropped, though the bare
# state would merge
NOT_A_TUPLE_DELTAS = [delta_frame("n2")] + [
    dict(delta_frame("n2"), payload=payload)
    for payload in (EPOCH_1_STATE, {"t": "tup", "v": []}, [None, EPOCH_1_STATE])
]
# one malformed part drops the whole frame, the well-formed parts with it
BAD_SECOND_PART = delta_frame("n2", EPOCH_1_STATE, WRONG_INNER_DOC)
# log positions that are not non-negative ints, a response with no
# start, or one that starts past our log; each batch is well formed, so
# each frame is dropped for its log position alone
HOSTILE_SYNC_FRAMES = [
    *({"kind": "SYNC_REQUEST", "sender": "n2", "payload": have}
      for have in (None, -1, True, "3")),
    sync_response(tup(EPOCH_1_STATE, tup(tup(ENTRY_DOC)))),
    *(sync_response(tup(EPOCH_1_STATE, start, tup(tup(ENTRY_DOC)))) for start in (True, -1, 1)),
]


def proposal_state(value_doc) -> dict:
    """An epoch-0 state whose round, led by n2, holds n2's vote for ``value_doc``."""
    def voting(value):
        return {"t": "voting", "v": {"t": "set", "v": [{"t": "vote", "p": "n2", "v": value}]}}
    round_ = {"t": "round", "le": voting("n2"), "prop": voting(value_doc)}
    return {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": [[BALLOT_N2_1, round_]]}}}


def proposal_of(value_doc) -> dict:
    """A DELTA from n2 whose one part is ``proposal_state(value_doc)``."""
    return delta_frame("n2", proposal_state(value_doc))


# an epoch decides a batch, a non-empty tuple of entries: a bare op
# (the form before batches), an empty tuple, a tuple holding a non-entry,
# a bare op in a tuple (the form before entries), an entry with a bool
# seq or a non-string origin, and a put entry with no value are dropped,
# as is a sync log entry that is a bare entry
NOT_AN_ENTRY = [PUT_DOC, dict(ENTRY_DOC, s=True), dict(ENTRY_DOC, o=2),
                {k: v for k, v in ENTRY_DOC.items() if k != "v"}]
NOT_A_BATCH = [proposal_of(doc) for doc in (
    PUT_DOC, {"t": "tup", "v": []}, {"t": "tup", "v": [ENTRY_DOC, {"t": "set", "v": []}]},
    *({"t": "tup", "v": [doc]} for doc in NOT_AN_ENTRY))] + [
    sync_response(tup(BOTTOM_STATE, 0, tup(ENTRY_DOC)))]


def roundtrip(envelope: dict) -> dict:
    return json.loads(wire.encode_frame(envelope))


def test_put_then_get(memory_net):
    assert memory_net.put("n1", "k", "v") == {"status": "ok"}
    assert memory_net.get("n1", "k") == {"status": "ok", "value": "v"}


def test_get_before_any_put(memory_net):
    assert memory_net.get("n2", "nope") == {"status": "not_found"}


def test_reads_see_writes_from_other_nodes(memory_net):
    assert memory_net.put("n1", "color", "red") == {"status": "ok"}
    assert memory_net.get("n3", "color") == {"status": "ok", "value": "red"}
    assert memory_net.put("n2", "color", "blue") == {"status": "ok"}
    assert memory_net.get("n1", "color") == {"status": "ok", "value": "blue"}


def test_logs_and_counters_converge(memory_net):
    memory_net.put("n1", "a", "1")
    memory_net.put("n2", "b", "2")
    memory_net.get("n3", "a")
    logs = [memory_net.cores[uid].decided_ops for uid in memory_net.ids]
    assert logs[0] == logs[1] == logs[2]
    assert logs[0][0] == Write("a", "1")
    for uid in memory_net.ids:
        core = memory_net.cores[uid]
        # every decided epoch was snapshotted before the advance discarded it
        assert core.state.counter == len(core.decided_ops)


def test_apply_gives_each_op_its_effect_and_its_response():
    values = {}
    assert wire.apply(values, Read("k")) == {"status": "not_found"}
    assert values == {}
    assert wire.apply(values, Write("k", "v")) == {"status": "ok"}
    assert values == {"k": "v"}
    # a get after a put of its key in the same map sees the put
    assert wire.apply(values, Read("k")) == {"status": "ok", "value": "v"}
    assert wire.apply(values, Write("k", "w")) == {"status": "ok"}
    assert wire.apply(values, Read("k")) == {"status": "ok", "value": "w"}
    assert wire.apply(values, Read("j")) == {"status": "not_found"}
    assert values == {"k": "w"}


def test_bad_client_request_is_answered_not_crashed(memory_net):
    # keys and values must be strings: a put of ``true`` is not stored as "True"
    for frame in ({"op": "frobnicate"}, ["op"], {"op": "put", "key": "k", "value": True},
                  {"op": "put", "key": 1, "value": "v"}, {"op": "get", "key": None},
                  {"op": "put", "key": "k", "value": {"t": "put"}}):
        assert memory_net.request("n1", frame) == {
            "status": "error", "value": "bad request",
        }
    assert memory_net.cores["n1"].decided_ops == []
    assert memory_net.put("n1", "k", "v") == {"status": "ok"}


def test_one_coalesced_delta_per_peer():
    core = ServerCore("n1", ("n2", "n3"))
    effects = core.on_client_request(("n1", 0), {"op": "put", "key": "k", "value": "v"})
    sends = [e for e in effects if isinstance(e, SendToPeer)]
    assert [e.peer for e in sends] == ["n2", "n3"]
    assert sends[0].envelope == sends[1].envelope
    assert not any(isinstance(e, Respond) for e in effects)


def test_duplicate_delta_is_silent(memory_net):
    memory_net.put("n1", "k", "v")
    replay = delta_frame("n2", memory_net.cores["n2"].state)
    before = memory_net.cores["n1"].state
    assert memory_net.cores["n1"].on_envelope(replay) == []
    assert memory_net.cores["n1"].state == before


def test_delta_order_does_not_matter():
    opener = ServerCore("a", ("b", "c"))
    first = [e for e in opener.on_client_request(("a", 0), {"op": "put", "key": "k", "value": "v"})
             if isinstance(e, SendToPeer)][0].envelope
    confirmer = ServerCore("b", ("a", "c"))
    second = [e for e in confirmer.on_envelope(roundtrip(first))
              if isinstance(e, SendToPeer)][0].envelope
    x = ServerCore("c", ("a", "b"))
    x.on_envelope(roundtrip(first))
    x.on_envelope(roundtrip(second))
    y = ServerCore("c", ("a", "b"))
    y.on_envelope(roundtrip(second))
    y.on_envelope(roundtrip(first))
    assert x.state == y.state


def test_malformed_frames_are_dropped():
    core = ServerCore("n1", ("n2", "n3"))
    assert core.on_envelope({"kind": "NOPE", "sender": "n2"}) == []
    assert core.on_envelope({"kind": "DELTA"}) == []
    assert core.on_envelope(dict(delta_frame("n2"), payload={"t": "???"})) == []
    assert core.on_envelope(dict(delta_frame("n2"), payload=42)) == []
    assert core.on_envelope("not even a dict") == []
    assert core.on_envelope({"kind": "SYNC_REQUEST", "sender": "nX"}) == []
    assert core.on_envelope({"kind": "SYNC_REQUEST", "sender": ["x"]}) == []
    # decodable states of the wrong shape are dropped before any merge,
    # and so is a payload whose decoding fails with any error
    for frame in (WRONG_INNER_STATE, STRING_ROUND_KEY, REPEATED_ROUND_KEY, NON_OP_SYNC_LOG,
                  *HOSTILE_SYNC_FRAMES, *HOSTILE_DELTAS, *NOT_A_TUPLE_DELTAS, BAD_SECOND_PART,
                  *NOT_A_BATCH):
        assert core.on_envelope(frame) == []
        assert core.state == core.protocol.bottom()
        assert core.decided_ops == []
    # each sync frame decodes: its shape check drops it, not the codec
    for frame in (NON_OP_SYNC_LOG, *HOSTILE_SYNC_FRAMES, NOT_A_BATCH[-1]):
        codec.decode(frame["payload"])
    # the same proposal voting a batch is taken
    core.on_envelope(proposal_of({"t": "tup", "v": [ENTRY_DOC]}))
    assert core.state != core.protocol.bottom()
    for frame in (STRING_ROUND_KEY, REPEATED_ROUND_KEY):
        net = MemoryNet()
        assert net.cores["n1"].on_envelope(frame) == []
        assert net.put("n1", "k", "v") == {"status": "ok"}


def test_requests_queued_on_one_node_are_decided_as_batches(memory_net):
    frames = [
        {"op": "put", "key": "k", "value": "1"}, {"op": "get", "key": "k"},
        {"op": "put", "key": "j", "value": "2"}, {"op": "put", "key": "k", "value": "3"},
        {"op": "get", "key": "k"}, {"op": "get", "key": "absent"},
    ]
    n1 = memory_net.cores["n1"]

    def queue(first, frames):
        effects = []
        for i, frame in enumerate(frames, first):
            effects += n1.on_client_request(("n1", i), frame)
        memory_net._pump("n1", effects)

    queue(0, frames)
    # answered in arrival order, each read by the writes before it
    assert list(memory_net.responses.items()) == [
        (("n1", 0), {"status": "ok"}), (("n1", 1), {"status": "ok", "value": "1"}),
        (("n1", 2), {"status": "ok"}), (("n1", 3), {"status": "ok"}),
        (("n1", 4), {"status": "ok", "value": "3"}), (("n1", 5), {"status": "not_found"}),
    ]
    assert n1.decided_ops == [wire.parse_request(f) for f in frames]
    assert len(n1.log) < len(frames)
    # a write and a later read of its key shared one batch
    ops = [[entry.op for entry in batch] for batch in n1.log]
    assert any(Write("k", "1") in batch and Read("k") in batch for batch in ops)
    # n3 misses the next batches and catches up by epochs, not by ops
    memory_net.blocked = {("n3", "n1"), ("n1", "n3"), ("n3", "n2"), ("n2", "n3")}
    queue(len(frames), frames[:4])
    assert len(memory_net.responses) == len(frames) + 4
    memory_net.blocked.clear()
    memory_net.connect_all()
    logs = [(core.log, core.decided_ops) for core in memory_net.cores.values()]
    assert logs[0] == logs[1] == logs[2]
    assert len(n1.decided_ops) == len(frames) + 4


def test_epoch_hole_triggers_a_sync_request(memory_net):
    memory_net.put("n1", "k", "v")
    donor = memory_net.cores["n2"]
    assert donor.state.counter == 1
    fresh = ServerCore("n1", ("n2", "n3"))
    effects = fresh.on_envelope(delta_frame("n2", donor.state))
    # the merge lands in epoch 1 with an empty log: epoch 0's decision
    # was never seen, so the core asks the sender for history
    wants_sync = [
        e for e in effects
        if isinstance(e, SendToPeer) and e.envelope["kind"] == wire.SYNC_REQUEST
    ]
    assert [e.peer for e in wants_sync] == ["n2"]
    assert wants_sync[0].envelope["payload"] == 0
    assert fresh.decided_ops == []
    response = roundtrip(wire.envelope("n2", wire.SYNC_RESPONSE, (donor.state, 0, tuple(donor.log))))
    fresh.on_envelope(response)
    assert fresh.decided_ops == donor.decided_ops
    assert fresh.state.counter == len(fresh.log)


def sync_requests(effects) -> list:
    return [e.peer for e in effects
            if isinstance(e, SendToPeer) and e.envelope["kind"] == wire.SYNC_REQUEST]


def test_a_core_keeps_one_unanswered_sync_request_per_peer(memory_net):
    states, logs = [], []
    for i in range(4):
        memory_net.put("n2", f"k{i}", "v")
        states.append(memory_net.cores["n2"].state)
        logs.append(list(memory_net.cores["n2"].log))
    core = ServerCore("n1", ("n2", "n3"))

    def delta(sender, state):
        return core.on_envelope(delta_frame(sender, state))

    assert sync_requests(delta("n2", states[0])) == ["n2"]
    # the hole is still open, but n2 has not answered yet
    assert sync_requests(delta("n2", states[1])) == []
    assert sync_requests(delta("n3", states[1])) == ["n3"]
    # n2's answer fills the log to 2 and re-arms n2 only
    core.on_envelope(roundtrip(wire.envelope("n2", wire.SYNC_RESPONSE, (states[1], 0, tuple(logs[1])))))
    assert core.log == logs[1]
    assert sync_requests(delta("n3", states[2])) == []
    assert sync_requests(delta("n2", states[2])) == ["n2"]
    assert sync_requests(delta("n2", states[3])) == []
    # a tick re-arms every peer, and a reconnect asks that peer at once
    assert sync_requests(core.on_tick(0.05)) == []
    assert sync_requests(delta("n2", states[3])) == ["n2"]
    assert sync_requests(delta("n3", states[3])) == ["n3"]
    assert sync_requests(core.on_peer_connected("n2")) == ["n2"]
    assert sync_requests(delta("n2", states[3])) == []


def test_a_sync_request_lost_on_a_blocked_link_is_sent_again_after_a_tick():
    net = MemoryNet(blocked={("n3", "n1"), ("n1", "n3"), ("n2", "n3"), ("n3", "n2")})
    for key in ("a", "b"):
        assert net.put("n1", key, "1") == {"status": "ok"}
    lagging, leader = net.cores["n3"], net.cores["n1"]
    assert lagging.decided_ops == []
    # n3 hears from n1 only, and its request back to n1 is dropped
    net.blocked = {("n3", "n1"), ("n2", "n3"), ("n3", "n2")}
    push = [SendToPeer("n3", delta_frame("n1", leader.state))]
    net._pump("n1", push)
    assert lagging.state.counter == 2 and lagging.decided_ops == []
    net.blocked = {("n2", "n3"), ("n3", "n2")}
    net._pump("n1", push)
    assert lagging.decided_ops == []  # the lost request is still unanswered
    net.tick(0.05)
    net._pump("n1", push)
    assert lagging.decided_ops == leader.decided_ops


def voters(state) -> set:
    """The replicas with any vote in the current epoch."""
    return {v.voter for _, round_ in state.value.rounds.entries
            for votes in (round_.leader_election.votes, round_.proposals.votes) for v in votes}


def test_a_leader_with_a_hole_leaves_its_head_unproposed():
    core = ServerCore("n1", ("n2", "n3"))
    core.on_client_request(("n1", 0), {"op": "put", "key": "k", "value": "v"})
    candidacy = BallotNum("n2", 1)

    def epoch_1_vote(voter):
        election = VotingState.of((voter, candidacy.uid))
        return Epoch(1, PaxosState(MergeMap({candidacy: PaxosRound(leader_election=election)})))

    # n1 lands in epoch 1 without having seen epoch 0 decided, which may
    # have decided its put: it opens no ballot and casts no vote, and
    # only asks each sender for the log
    for voter in ("n2", "n3"):
        effects = core.on_envelope(delta_frame(voter, epoch_1_vote(voter)))
        assert [(e.peer, e.envelope["kind"]) for e in effects] == [(voter, wire.SYNC_REQUEST)]
    assert core.state.counter == 1 and core.decided_ops == []
    assert [ballot for ballot, _ in core.state.value.rounds.entries] == [candidacy]
    assert voters(core.state) == {"n2", "n3"}
    # once a sync answer fills the hole, n1 takes its first step in epoch
    # 1: it confirms n2, opens no ballot of its own, and hands its put to n2
    effects = core.on_envelope(roundtrip(wire.envelope(
        "n2", wire.SYNC_RESPONSE, (core.state, 0, ((Entry("n2", 1, Write("a", "b")),),)))))
    assert core.decided_ops == [Write("a", "b")]
    sent = [(e.peer, e.envelope) for e in effects if isinstance(e, SendToPeer)]
    forwards = [(peer, env) for peer, env in sent if env["kind"] == wire.FORWARD]
    assert [(peer, wire.parse_envelope(env)[2]) for peer, env in forwards] == [
        ("n2", (1, (Entry("n1", 1, Write("k", "v")),)))]
    deltas = [env for _, env in sent if env["kind"] == wire.DELTA]
    assert len({json.dumps(env, sort_keys=True) for env in deltas}) == 1
    (part,), _ = wire.parse_envelope(deltas[0])[2]
    assert part.counter == 1
    assert [ballot for ballot, _ in part.value.rounds.entries] == [candidacy]
    assert voters(part) == {"n1"}
    assert [ballot for ballot, _ in core.state.value.rounds.entries] == [candidacy]


def test_a_core_with_a_hole_does_not_vote_a_put_an_earlier_epoch_decided():
    core = ServerCore("n1", ("n2", "n3"))
    answers = core.on_client_request(("n1", 0), {"op": "put", "key": "k", "value": "v"})
    # n2 advanced past epoch 0 with n1 as leader: its epoch 1 holds only
    # the seed round (n1, 0) and n2's vote for n1
    seed = Epoch(1, PaxosState(MergeMap({BallotNum("n1", 0): PaxosRound(
        leader_election=VotingState.of(("n2", "n1")))})))
    answers += core.on_envelope(delta_frame("n2", seed))
    # the log n2's sync answer brings shows epoch 0 decided the put
    answers += core.on_envelope(roundtrip(
        wire.envelope("n2", wire.SYNC_RESPONSE, (seed, 0, ((Entry("n1", 1, Write("k", "v")),),)))))
    assert core.decided_ops == [Write("k", "v")]
    assert [e.request_id for e in answers if isinstance(e, Respond)] == [("n1", 0)]
    assert core.state.counter == 1
    assert all(not round_.proposals.votes for _, round_ in core.state.value.rounds.entries)


def record_frames(net) -> tuple:
    """``(seen, parts)``: the ``(sender, receiver, kind)`` of every frame
    ``net`` delivers from now on, and the epoch states of its DELTAs."""
    seen, parts = [], []
    for uid, core in net.cores.items():
        def recording(frame, uid=uid, deliver=core.on_envelope):
            seen.append((frame["sender"], uid, frame["kind"]))
            if frame["kind"] == wire.DELTA:
                parts.extend(wire.parse_envelope(frame)[2][0])
            return deliver(frame)
        core.on_envelope = recording
    return seen, parts


def ballots(states) -> set:
    """Every ballot in the given epoch states."""
    return {ballot for state in states for ballot, _ in state.value.rounds.entries}


def test_a_follower_forwards_its_put_to_the_leader(memory_net):
    assert memory_net.put("n1", "a", "1") == {"status": "ok"}
    seen, parts = record_frames(memory_net)
    assert memory_net.put("n2", "k", "v") == {"status": "ok"}
    assert [frame for frame in seen if frame[2] == wire.FORWARD] == [("n2", "n1", wire.FORWARD)]
    # no ballot but n1's seeds, in what was sent or in any core's state
    states = parts + [core.state for core in memory_net.cores.values()]
    assert {ballot.uid for ballot in ballots(states)} == {"n1"}
    assert [core.decided_ops for core in memory_net.cores.values()] == [
        [Write("a", "1"), Write("k", "v")]] * 3


def test_a_forwarded_op_an_unseen_epoch_decided_is_not_taken():
    net = MemoryNet()
    assert net.put("n1", "a", "1") == {"status": "ok"}
    assert net.put("n2", "k", "v") == {"status": "ok"}
    leader = net.cores["n1"]
    assert leader.log[1] == (Entry("n2", 1, Write("k", "v")),)
    # n2 forwarded the put again before it saw epoch 1 decide it
    late = roundtrip(wire.envelope("n2", wire.FORWARD, (1, leader.log[1])))
    assert leader.on_envelope(late) == []
    assert list(leader.forwarded) == []
    assert net.put("n1", "j", "w") == {"status": "ok"}
    assert leader.decided_ops == [Write("a", "1"), Write("k", "v"), Write("j", "w")]
    # a forwarded op no epoch decided is taken and proposed
    fresh = (Entry("n2", 2, Write("f", "x")),)
    effects = leader.on_envelope(roundtrip(wire.envelope("n2", wire.FORWARD, (3, fresh))))
    assert list(leader.forwarded) == list(fresh)
    net._pump("n1", effects)
    assert list(leader.forwarded) == []
    assert leader.decided_ops[-1] == Write("f", "x")


def test_a_follower_whose_leader_is_gone_restarts_the_ballot_on_a_tick(memory_net):
    assert memory_net.put("n1", "a", "1") == {"status": "ok"}
    memory_net.blocked = {(a, b) for a in memory_net.ids for b in memory_net.ids
                          if a != b and "n1" in (a, b)}
    request_id = ("n2", "cut")
    seen, parts = record_frames(memory_net)
    memory_net._pump("n2", memory_net.cores["n2"].on_client_request(
        request_id, {"op": "put", "key": "k", "value": "v"}))
    # the forward to n1 is lost, and n2 opens no ballot until its timer fires
    assert seen == [] and request_id not in memory_net.responses
    memory_net.tick(0.6)
    assert memory_net.responses.pop(request_id) == {"status": "ok"}
    for uid in ("n2", "n3"):
        assert memory_net.cores[uid].state.value.current_ballot().uid == "n2"
    # the restart is n2's one ballot in epoch 1: a forward made before it
    # does not make n2 open another
    assert {b for b in ballots(p for p in parts if p.counter == 1) if b.uid == "n2"} == {
        BallotNum("n2", 1)}


def test_a_forward_lost_with_its_connection_is_sent_again_on_reconnect(memory_net):
    assert memory_net.put("n1", "a", "1") == {"status": "ok"}
    memory_net.blocked = {("n2", "n1")}
    request_id = ("n2", "lost")
    n2 = memory_net.cores["n2"]
    memory_net._pump("n2", n2.on_client_request(request_id, {"op": "put", "key": "k", "value": "v"}))
    assert request_id not in memory_net.responses
    # a reconnect to a peer that is not the leader forwards nothing
    seen, parts = record_frames(memory_net)
    memory_net._pump("n2", n2.on_peer_connected("n3"))
    assert request_id not in memory_net.responses
    assert ("n2", "n1", wire.FORWARD) not in seen
    memory_net.blocked.clear()
    memory_net._pump("n2", n2.on_peer_connected("n1"))
    assert ("n2", "n1", wire.FORWARD) in seen
    assert memory_net.responses.pop(request_id) == {"status": "ok"}
    assert "n2" not in {ballot.uid for ballot in ballots(parts)}


def test_an_op_that_missed_the_leaders_batch_is_forwarded_once_per_leader(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1, n2 = net.cores["n1"], net.cores["n2"]
    seen, _ = record_frames(net)
    lead = n1.on_client_request(("n1", "b"), {"op": "put", "key": "b", "value": "2"})
    net._pump("n2", n2.on_client_request(("n2", "k"), {"op": "put", "key": "k", "value": "v"}))
    # n1 takes the op, but its batch for epoch 1 left before it came
    assert list(n1.forwarded) == [Entry("n2", 1, Write("k", "v"))]
    net._pump("n1", lead)
    assert net.responses.pop(("n1", "b")) == net.responses.pop(("n2", "k")) == {"status": "ok"}
    assert n1.log[1:] == [(Entry("n1", 2, Write("b", "2")),), (Entry("n2", 1, Write("k", "v")),)]
    # n2 reached epoch 2 with the op pending and did not send it again
    assert [frame for frame in seen if frame[2] == wire.FORWARD] == [("n2", "n1", wire.FORWARD)]
    # an op n1 holds but cannot get decided is sent again once n1 reconnects
    net.blocked = {("n1", "n2"), ("n1", "n3")}
    net._pump("n2", n2.on_client_request(("n2", "j"), {"op": "put", "key": "j", "value": "w"}))
    assert list(n1.forwarded) == [Entry("n2", 2, Write("j", "w"))] and ("n2", "j") not in net.responses
    net.blocked.clear()
    forwards = [e for e in n2.on_peer_connected("n1") if e.envelope["kind"] == wire.FORWARD]
    assert [(e.peer, wire.parse_envelope(roundtrip(e.envelope))[2]) for e in forwards] == [
        ("n1", (len(n2.log), (Entry("n2", 2, Write("j", "w")),)))]


def candidacy(uid: str, counter: int) -> dict:
    """A DELTA from ``uid`` that opens its ballot ``counter`` in epoch 0."""
    election = VotingState.of((uid, uid))
    return delta_frame(uid, Epoch(0, PaxosState(MergeMap(
        {BallotNum(uid, counter): PaxosRound(leader_election=election)}))))


def forwards(effects) -> list:
    """``(leader, entries)`` of every FORWARD among ``effects``."""
    return [(e.peer, wire.parse_envelope(roundtrip(e.envelope))[2][1]) for e in effects
            if isinstance(e, SendToPeer) and e.envelope["kind"] == wire.FORWARD]


def test_a_leader_change_sends_each_pending_entry_to_the_new_leader_once():
    n2 = ServerCore("n2", ("n1", "n3"))
    k, j = Entry("n2", 1, Write("k", "v")), Entry("n2", 2, Write("j", "w"))
    assert forwards(n2.on_envelope(candidacy("n1", 1))) == []
    assert forwards(n2.on_client_request("k", {"op": "put", "key": "k", "value": "v"})) == [
        ("n1", (k,))]
    # a ballot restart moves leadership to n3: the pending entry goes there
    assert forwards(n2.on_envelope(candidacy("n3", 2))) == [("n3", (k,))]
    # a later entry goes alone, and a repeated delta sends nothing again
    assert forwards(n2.on_client_request("j", {"op": "put", "key": "j", "value": "w"})) == [
        ("n3", (j,))]
    assert forwards(n2.on_envelope(candidacy("n3", 2))) == []
    # n1 leads again: every pending entry goes to it again, once
    assert forwards(n2.on_envelope(candidacy("n1", 3))) == [("n1", (k, j))]
    assert forwards(n2.on_envelope(candidacy("n1", 3))) == []
    assert list(n2.pending) == [k, j]


def test_a_forward_that_repeats_an_entry_is_taken_once(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1 = net.cores["n1"]
    k, j = Entry("n2", 1, Write("k", "v")), Entry("n2", 2, Read("k"))
    # n1's proposals are cut off, so what it takes stays forwarded
    net.blocked = {("n1", "n2"), ("n1", "n3")}
    for batch in ((k, k, j), (j, k)):
        net._pump("n1", n1.on_envelope(roundtrip(wire.envelope("n2", wire.FORWARD, (1, batch)))))
    assert list(n1.forwarded) == [k, j]
    net.blocked.clear()
    net.connect_all()
    assert n1.log[-1] == (k, j) and not n1.forwarded


def test_a_forward_of_the_receivers_own_entry_is_not_taken(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1 = net.cores["n1"]
    own = Entry("n1", 2, Write("k", "v"))
    # n1's proposal is cut off, so its entry stays pending
    net.blocked = {("n1", "n2"), ("n1", "n3")}
    net._pump("n1", n1.on_client_request(("n1", "k"), {"op": "put", "key": "k", "value": "v"}))
    assert list(n1.pending) == [own]
    # a peer hands n1 its own pending entry: n1 holds it once
    net._pump("n1", n1.on_envelope(roundtrip(wire.envelope("n2", wire.FORWARD, (1, (own,))))))
    assert list(n1.forwarded) == [] and n1._batch() == (own,)
    net.blocked.clear()
    net.connect_all()
    assert net.responses.pop(("n1", "k")) == {"status": "ok"}
    assert n1.log[-1] == (own,)


def test_an_op_forwarded_before_its_head_was_answered_keeps_the_election_timer_running(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n2 = net.cores["n2"]
    first = n2.on_client_request(("n2", "k"), {"op": "put", "key": "k", "value": "v"})
    second = n2.on_client_request(("n2", "j"), {"op": "put", "key": "j", "value": "w"})
    net._pump("n2", first)
    # the head is answered; the op behind it was already sent to n1, so
    # n2 sends nothing in epoch 2, but its timer runs
    assert net.responses.pop(("n2", "k")) == {"status": "ok"}
    assert n2.election_deadline is not None
    # that forward is lost with n1, and the timer restarts the ballot
    net.blocked = {(a, b) for a in net.ids for b in net.ids if a != b and "n1" in (a, b)}
    net._pump("n2", second)
    net.tick(0.6)
    assert net.responses.pop(("n2", "j")) == {"status": "ok"}


def test_a_forward_from_a_peer_ahead_of_the_leader_is_taken_at_once(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1, n2 = net.cores["n1"], net.cores["n2"]
    lead = n1.on_client_request(("n1", "k"), {"op": "get", "key": "k"})
    # n2 alone learns that epoch 1 decided n1's get; n1 does not know yet
    (to_n2,) = [e for e in lead if e.peer == "n2"]
    accepted = n2.on_envelope(roundtrip(to_n2.envelope))
    assert len(n2.log) == 2 and len(n1.log) == 1
    # an equal get on n2 is another request, though n1 still holds its own
    net._pump("n2", n2.on_client_request(("n2", "k"), {"op": "get", "key": "k"}))
    assert list(n1.forwarded) == [Entry("n2", 1, Read("k"))]
    net._pump("n2", accepted)
    net._pump("n1", [e for e in lead if e.peer != "n2"])
    assert net.responses.pop(("n1", "k")) == net.responses.pop(("n2", "k")) == {"status": "not_found"}
    assert n1.log[1:] == [(Entry("n1", 2, Read("k")),), (Entry("n2", 1, Read("k")),)]


def test_a_forwarded_op_equal_to_one_the_leader_holds_is_taken(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1, n2 = net.cores["n1"], net.cores["n2"]
    lead = n1.on_client_request(("n1", "k"), {"op": "get", "key": "k"})
    net._pump("n2", n2.on_client_request(("n2", "b"), {"op": "put", "key": "b", "value": "2"}))
    # n2's get equals n1's, which n1 has proposed already
    net._pump("n2", n2.on_client_request(("n2", "k"), {"op": "get", "key": "k"}))
    assert list(n1.forwarded) == [Entry("n2", 1, Write("b", "2")), Entry("n2", 2, Read("k"))]
    # epoch 1 decides n1's get, which does not answer n2's
    net._pump("n1", lead)
    assert net.responses.pop(("n1", "k")) == {"status": "not_found"}
    assert net.responses.pop(("n2", "b")) == {"status": "ok"}
    assert net.responses.pop(("n2", "k")) == {"status": "not_found"}
    assert n1.log[1:] == [(Entry("n1", 2, Read("k")),),
                          (Entry("n2", 1, Write("b", "2")), Entry("n2", 2, Read("k")))]


def test_a_read_is_answered_by_its_own_entry_not_an_equal_one():
    net = MemoryNet(blocked={(a, b) for a in ("n1", "n2", "n3") for b in ("n1", "n2", "n3")
                             if a != b and "n3" in (a, b)})
    assert net.put("n1", "k", "old") == {"status": "ok"}
    assert net.get("n2", "k") == {"status": "ok", "value": "old"}
    assert net.put("n1", "k", "new") == {"status": "ok"}
    net.blocked.clear()
    # the sync brings n2's get, equal to n3's own but not it
    net._pump("n3", net.cores["n3"].on_client_request(("n3", "k"), {"op": "get", "key": "k"}))
    net.connect_all()
    assert net.responses.pop(("n3", "k")) == {"status": "ok", "value": "new"}
    assert net.cores["n3"].log[-1] == (Entry("n3", 1, Read("k")),)


def test_equal_puts_on_two_nodes_are_each_answered_by_their_own_entry(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    n1, n2 = net.cores["n1"], net.cores["n2"]
    before = len(n1.log)
    lead = n1.on_client_request(("n1", "k"), {"op": "put", "key": "k", "value": "v"})
    net._pump("n2", n2.on_client_request(("n2", "k"), {"op": "put", "key": "k", "value": "v"}))
    net._pump("n1", lead)
    assert net.responses.pop(("n1", "k")) == net.responses.pop(("n2", "k")) == {"status": "ok"}
    assert len(n1.log) == before + 2
    assert n1.log[before:] == [(Entry("n1", 2, Write("k", "v")),), (Entry("n2", 1, Write("k", "v")),)]


def seed_voters(core, leader: str = "n1") -> set:
    """Who voted for ``leader``'s seed round in ``core``'s current epoch."""
    round_ = core.state.value.rounds.get(BallotNum(leader, 0))
    return {vote.voter for vote in round_.leader_election.votes.elements}


def test_an_idle_leader_sends_four_frames_per_put(memory_net):
    # the warm-up put elects n1; each later put costs n1's proposal (2
    # frames) and each follower's acceptance, sent to n1 alone (2), and no
    # frame carries only n1's own seed vote
    assert memory_net.put("n1", "a", "0") == {"status": "ok"}
    seen, _ = record_frames(memory_net)
    for i in range(3):
        before = memory_net.frames_delivered
        assert memory_net.put("n1", "k", str(i)) == {"status": "ok"}
        assert memory_net.frames_delivered - before == 4
    # the followers tell each other nothing: each hears n1
    assert {(src, dst) for src, dst, _ in seen} == {
        ("n1", "n2"), ("n1", "n3"), ("n2", "n1"), ("n3", "n1")}


def test_an_idle_leaders_seed_vote_leaves_with_its_next_put_or_a_tick(memory_net):
    net = memory_net
    assert net.put("n1", "a", "1") == {"status": "ok"}
    assert seed_voters(net.cores["n1"]) == {"n1", "n2", "n3"}
    # each follower, which hears n1, sent its own seed vote to n1 alone
    assert seed_voters(net.cores["n2"]) == {"n2"}
    assert seed_voters(net.cores["n3"]) == {"n3"}
    assert net.put("n1", "b", "2") == {"status": "ok"}
    # n1's vote rode on its proposal in epoch 1; epoch 2's is held again
    assert {core.state.counter for core in net.cores.values()} == {2}
    assert seed_voters(net.cores["n2"]) == {"n2"}
    assert seed_voters(net.cores["n3"]) == {"n3"}
    before = net.frames_delivered
    net.tick(0.1)  # before any election deadline: only the held vote leaves
    assert net.frames_delivered - before == 2
    # the held vote was delayed, not lost
    assert seed_voters(net.cores["n2"]) == {"n1", "n2"}
    assert seed_voters(net.cores["n3"]) == {"n1", "n3"}


def test_a_follower_put_after_an_idle_leader_put_is_answered_without_a_tick(memory_net):
    assert memory_net.put("n1", "a", "1") == {"status": "ok"}
    assert memory_net.put("n1", "b", "2") == {"status": "ok"}
    # n2 lacks n1's seed vote, but heard n1 one epoch before and forwards
    assert "n1" not in seed_voters(memory_net.cores["n2"])
    assert memory_net.put("n2", "k", "v") == {"status": "ok"}
    assert [core.decided_ops for core in memory_net.cores.values()] == [
        [Write("a", "1"), Write("b", "2"), Write("k", "v")]] * 3


def forward_frame(payload) -> dict:
    return {"kind": wire.FORWARD, "sender": "n2", "payload": payload}


BATCH = (Entry("n2", 1, Write("k", "v")),)
# a bool or negative ``have``, a non-batch, a non-tuple, a 3-tuple, and
# each malformed entry a DELTA may not hold either
MALFORMED_FORWARDS = [forward_frame(codec.encode(body)) for body in (
    (True, BATCH), (-1, BATCH), (0, ()), (0, BATCH, 0))] + [
    forward_frame({"t": "tup", "v": [0, PUT_DOC]}), forward_frame(PUT_DOC),
    forward_frame(None), forward_frame([0, [PUT_DOC]])] + [
    forward_frame({"t": "tup", "v": [0, {"t": "tup", "v": [doc]}]}) for doc in NOT_AN_ENTRY]


def test_malformed_forwards_are_dropped():
    core = ServerCore("n1", ("n2", "n3"))
    for frame in MALFORMED_FORWARDS:
        with pytest.raises(ValueError):
            wire.parse_envelope(roundtrip(frame))
        assert core.on_envelope(roundtrip(frame)) == []
        assert list(core.forwarded) == []
        assert core.state == core.protocol.bottom()
    # the well-formed forward is taken, but a core that owns no ballot
    # leaves forwarded ops to the owner and opens none
    forward = roundtrip(wire.envelope("n2", wire.FORWARD, (0, BATCH)))
    assert wire.parse_envelope(forward) == ("n2", wire.FORWARD, (0, BATCH))
    assert core.on_envelope(forward) == []
    assert list(core.forwarded) == list(BATCH)
    assert core.state == core.protocol.bottom()


def test_rejoining_node_receives_only_the_missed_suffix():
    before, missed = 20, 3
    net = MemoryNet()
    for i in range(before):
        assert net.put("n1", f"k{i}", "old") == {"status": "ok"}
    net.blocked = {("n3", "n1"), ("n1", "n3"), ("n3", "n2"), ("n2", "n3")}
    for i in range(missed):
        assert net.put("n1", f"k{i}", "new") == {"status": "ok"}
    rejoiner = net.cores["n3"]
    assert len(rejoiner.decided_ops) == before
    received = []
    deliver = rejoiner.on_envelope

    def recording(frame):
        received.append(frame)
        return deliver(frame)

    rejoiner.on_envelope = recording
    net.blocked.clear()
    net._pump("n3", rejoiner.on_peer_connected("n1"))
    net._pump("n1", net.cores["n1"].on_peer_connected("n3"))
    responses = [wire.parse_envelope(f)[2] for f in received if f["kind"] == wire.SYNC_RESPONSE]
    assert responses
    for _, start, batches in responses:
        assert start == before
        assert len(batches) <= missed
    assert rejoiner.decided_ops == net.cores["n1"].decided_ops
    assert rejoiner.state.counter == len(rejoiner.decided_ops) == before + missed
    assert net.get("n3", "k0") == {"status": "ok", "value": "new"}


def test_sync_suffix_overlapping_the_log_adopts_only_the_new_entries():
    net = MemoryNet()
    for key in ("a", "b"):
        net.put("n1", key, "1")
    net.blocked = {("n1", "n3"), ("n2", "n3")}
    for key in ("c", "d"):
        net.put("n1", key, "1")
    donor, behind = net.cores["n1"], net.cores["n3"]
    assert len(behind.decided_ops) == 2
    # the suffix starts at 1, below the receiver's length 2: entry 1 is
    # already decided here, so only entries 2 and 3 are appended
    response = roundtrip(wire.envelope("n1", wire.SYNC_RESPONSE, (donor.state, 1, tuple(donor.log[1:]))))
    assert len(wire.parse_envelope(response)[2][2]) == 3
    behind.on_envelope(response)
    assert behind.decided_ops == donor.decided_ops
    assert behind.state.counter == len(behind.log) == 4
    # a non-batch below the receiver's length drops the whole response:
    # a payload decodes whole or not at all
    behind = ServerCore("n3", ("n1", "n2"))
    behind.log = donor.log[:2]
    batches = tup({"t": "set", "v": []}, *(codec.encode(batch) for batch in donor.log[1:]))
    hostile = roundtrip({"kind": wire.SYNC_RESPONSE, "sender": "n1",
                         "payload": tup(codec.encode(donor.state), 0, batches)})
    assert behind.on_envelope(hostile) == []
    assert behind.log == donor.log[:2] and behind.state == behind.protocol.bottom()


def test_restarted_node_recovers_via_connect(memory_net):
    memory_net.put("n1", "k", "v1")
    memory_net.put("n2", "k", "v2")
    blank = ServerCore("n3", ("n1", "n2"))
    memory_net.cores["n3"] = blank
    memory_net._pump("n3", blank.on_peer_connected("n1"))
    assert blank.decided_ops == memory_net.cores["n1"].decided_ops
    assert memory_net.get("n3", "k") == {"status": "ok", "value": "v2"}


def test_election_timer_reopens_the_ballot():
    core = ServerCore("n1", ("n2", "n3"), election_timeout=0.5)
    core.on_client_request(("n1", 0), {"op": "put", "key": "k", "value": "v"})
    assert core.state.value.current_ballot() == BallotNum("n1", 1)
    assert core.on_tick(0.4) == []
    effects = core.on_tick(0.6)
    assert core.state.value.current_ballot() == BallotNum("n1", 2)
    assert any(isinstance(e, SendToPeer) for e in effects)
    core.on_tick(1.2)
    assert core.state.value.current_ballot() == BallotNum("n1", 3)


class ContractOnly(Consensus):
    """Forwards only the nine contract methods a benchmark's timing
    wrapper forwards, as that wrapper does when set as a core's protocol."""

    def __init__(self, inner: Consensus):
        self.inner = inner


for _name in ("bottom", "initial_state", "decision_instance", "merge", "decision",
              "inner_decision", "next_decision", "upkeep", "propose"):
    setattr(ContractOnly, _name,
            lambda self, *args, _name=_name, **kwargs: getattr(self.inner, _name)(*args, **kwargs))


def test_the_hooks_survive_a_delegating_protocol():
    core = ServerCore("n1", ("n2", "n3"), election_timeout=0.5)
    core.protocol = ContractOnly(core.protocol)
    assert not hasattr(core.protocol, "restart")
    core.on_client_request(("n1", 0), {"op": "put", "key": "k", "value": "v"})
    assert core.state.value.current_ballot() == BallotNum("n1", 1)
    core.on_tick(0.6)
    assert core.state.value.current_ballot() == BallotNum("n1", 2)
    fresh = ServerCore("n1", ("n2", "n3"))
    fresh.protocol = ContractOnly(fresh.protocol)
    assert not hasattr(fresh.protocol, "check_state")
    assert fresh.on_envelope(WRONG_INNER_STATE) == []
    assert fresh.state == fresh.protocol.bottom()
    # ``leader`` is bound at construction too: a follower still forwards
    net = MemoryNet()
    for member in net.cores.values():
        member.protocol = ContractOnly(member.protocol)
    assert not hasattr(net.cores["n2"].protocol, "leader")
    assert net.put("n1", "k", "v") == {"status": "ok"}
    seen, _ = record_frames(net)
    assert net.put("n2", "j", "w") == {"status": "ok"}
    assert ("n2", "n1", wire.FORWARD) in seen


def test_a_follower_behind_a_dead_leader_link_catches_up_through_its_own_election(memory_net):
    net = memory_net
    for key in ("a", "b"):
        assert net.put("n1", key, "1") == {"status": "ok"}
    n1, n3 = net.cores["n1"], net.cores["n3"]
    # n2 hears n1 and so does n3, as n3 told it: n2 sends n1 alone, and
    # n3 misses every epoch after its link to n1 dies
    net.blocked = {("n1", "n3"), ("n3", "n1")}
    for key in ("c", "d"):
        assert net.put("n1", key, "1") == {"status": "ok"}
    assert len(n3.log) == 2 and len(n1.log) == 4
    # n3 forwards its put into the dead link; its election timer campaigns
    # in its stale epoch, and n2 answers that campaign with its state
    request_id = ("n3", "stranded")
    net._pump("n3", n3.on_client_request(request_id, {"op": "put", "key": "e", "value": "1"}))
    assert request_id not in net.responses
    net.tick(0.6)
    assert net.responses.pop(request_id) == {"status": "ok"}
    assert n3.decided_ops == net.cores["n2"].decided_ops
    assert n3.decided_ops[-1] == Write("e", "1")


def test_a_delta_naming_a_malformed_leader_is_dropped():
    state = proposal_state({"t": "tup", "v": [ENTRY_DOC]})
    # a DELTA body leads with hears, a replica id or None: an int, a list
    # or a dict there drops the frame, and so do hears with no part and a
    # body that leads with a state, which names no hears
    dropped = [delta_frame("n2", state, hears=hears) for hears in (1, ["n2"], {"n": "n2"})]
    dropped += [delta_frame("n2", hears="n2"), delta_frame("n2", state, hears=state)]
    for frame in dropped:
        with pytest.raises(ValueError):
            wire.parse_envelope(frame)
        core = ServerCore("n1", ("n2", "n3"))
        assert core.on_envelope(frame) == []
        assert core.state == core.protocol.bottom()
    for hears in (None, "n2"):
        frame = delta_frame("n2", state, hears=hears)
        assert wire.parse_envelope(frame)[2][1] == hears
        core = ServerCore("n1", ("n2", "n3"))
        core.on_envelope(frame)
        assert core.state != core.protocol.bottom()


def test_every_peer_frame_holds_sender_kind_and_payload_alone():
    net = MemoryNet()
    keys, kinds = [], set()
    for core in net.cores.values():
        def recording(frame, deliver=core.on_envelope):
            keys.append(set(frame))
            kinds.add(frame["kind"])
            return deliver(frame)
        core.on_envelope = recording
    net.connect_all()
    assert net.put("n1", "a", "1") == {"status": "ok"}
    assert net.put("n2", "b", "2") == {"status": "ok"}
    assert net.get("n3", "a") == {"status": "ok", "value": "1"}
    net.tick(0.6)
    assert kinds == set(wire.KINDS)
    assert keys and all(k == {"sender", "kind", "payload"} for k in keys)


# Pinned at the commit before followers began to send their deltas to the
# leader alone: with five nodes the quorum is three, so every core keeps
# broadcasting, and frames and states must not move.
FIVE_NODE_FRAMES = 461
FIVE_NODE_STATE_DIGEST = "ca0c862a010a5a529e60e441258f854b602e9f256ad075512a25ce50b0fb3551"


def test_five_nodes_keep_broadcasting():
    net = MemoryNet(ids=("n1", "n2", "n3", "n4", "n5"))
    for i, uid in enumerate(net.ids + ("n1",)):
        assert net.put(uid, f"k{i}", uid) == {"status": "ok"}
        assert net.get(net.ids[(i + 2) % 5], f"k{i}") == {"status": "ok", "value": uid}
    assert len({len(core.log) for core in net.cores.values()}) == 1
    assert net.frames_delivered == FIVE_NODE_FRAMES
    assert state_digest(net) == FIVE_NODE_STATE_DIGEST


def test_quorum_survives_one_severed_link():
    net = MemoryNet(blocked={("n1", "n3"), ("n3", "n1")})
    assert net.put("n1", "k", "v") == {"status": "ok"}
    # knowledge reached n3 through n2's own forwarded deltas
    assert net.cores["n3"].decided_ops == [Write("k", "v")]
    assert net.get("n3", "k") == {"status": "ok", "value": "v"}
    logs = [net.cores[uid].decided_ops for uid in net.ids]
    assert logs[0] == logs[1] == logs[2]


def test_isolated_node_answers_after_the_partition_heals():
    net = MemoryNet(blocked={
        ("n1", "n2"), ("n2", "n1"), ("n1", "n3"), ("n3", "n1"),
    })
    request_id = ("n1", 0)
    net._pump("n1", net.cores["n1"].on_client_request(
        request_id, {"op": "put", "key": "k", "value": "v"},
    ))
    assert request_id not in net.responses  # no quorum, no answer
    net.blocked.clear()
    net.tick(0.6)  # past the election deadline: the ballot restarts
    assert net.responses.pop(request_id) == {"status": "ok"}
    assert net.get("n2", "k") == {"status": "ok", "value": "v"}


# What the script below leaves behind, pinned in three parts so that a
# change shows which one it moved: sha256 over codec.canon of every
# batch in every core's log plus the sorted JSON of every response (what
# the store decides and answers); sha256 over codec.canon of every core's
# final state (the protocol's traces); and the frames delivered. The
# frame count fell from 244 to 188 when each event's deltas began to
# leave as one frame per peer and a core kept one sync request per peer
# unanswered; the decided digest did not move. It fell from 188 to 161
# when followers began to forward their ops to the ballot owner instead
# of opening ballots; the decided digest did not move. It fell from 161
# to 134 when an idle leader began to hold its own seed vote for its next
# delta or tick, and a follower to forward each op once per leader; the
# decided digest did not move, and the state digest did only because the
# script ends with seed votes held: one more tick delivers them (2 frames)
# and brings back the state digest from before. It fell from 134 to 109
# when a follower that hears the leader began to send its deltas to the
# leader alone; the decided digest did not move, and both state digests
# did, because a follower no longer holds the other follower's votes.
# The decided digest was taken over the bare operations until it moved
# to the batches, which pin each entry's origin and seq and the batch
# bounds too.
STORE_DECIDED_DIGEST = "c1b02ab958465199ff936668c754aa895695ee4dc8d0d07d040fd756e9c3b3c8"
STORE_STATE_DIGEST = "237df27179d75464c2e7b1f58a6c289568ca9e7269afa02310b8482b0e49dbd2"
STORE_FRAMES = 109
STORE_STATE_DIGEST_AFTER_TICK = "4142e060d829498ddc9b59a77f7738386d89d6c069aa84f348f2e5951f7825a6"


def test_store_runs_are_pinned():
    net = MemoryNet()
    responses = []
    for uid, key in (("n1", "a"), ("n2", "b"), ("n3", "c"), ("n1", "b")):
        responses.append(net.put(uid, key, uid))
        responses.append(net.get(uid, "a"))
    # n3 and n1 each hand their op to the other over the severed link,
    # and each is answered once its election timer restarts a ballot
    net.blocked = {("n1", "n3"), ("n3", "n1")}
    for uid, frame in (("n3", {"op": "put", "key": "d", "value": "severed"}),
                       ("n1", {"op": "get", "key": "d"})):
        net._pump(uid, net.cores[uid].on_client_request((uid, "severed"), frame))
        net.tick(0.6)
        responses.append(net.responses.pop((uid, "severed")))
    # n1 alone cannot decide; the tick after healing restarts its ballot
    net.blocked = {("n1", "n2"), ("n2", "n1"), ("n1", "n3"), ("n3", "n1")}
    net._pump("n1", net.cores["n1"].on_client_request(
        ("n1", "stalled"), {"op": "put", "key": "e", "value": "stalled"},
    ))
    net.blocked.clear()
    net.tick(0.6)
    responses.append(net.responses.pop(("n1", "stalled")))
    # n3 misses two epochs, then rejoins through connect_all
    net.blocked = {("n3", "n1"), ("n1", "n3"), ("n3", "n2"), ("n2", "n3")}
    responses.append(net.put("n2", "f", "missed"))
    responses.append(net.put("n1", "g", "missed"))
    net.blocked.clear()
    net.connect_all()
    for uid in net.ids:
        responses.append(net.get(uid, "g"))
    decided = hashlib.sha256()
    for uid in net.ids:
        for batch in net.cores[uid].log:
            decided.update(codec.canon(batch).encode() + b"\n")
    for response in responses:
        decided.update(json.dumps(response, sort_keys=True).encode() + b"\n")
    assert len({len(net.cores[uid].decided_ops) for uid in net.ids}) == 1
    assert decided.hexdigest() == STORE_DECIDED_DIGEST
    assert state_digest(net) == STORE_STATE_DIGEST
    assert net.frames_delivered == STORE_FRAMES
    # the held seed votes were delayed, not lost
    net.tick(0.6)
    assert state_digest(net) == STORE_STATE_DIGEST_AFTER_TICK
    assert net.frames_delivered == STORE_FRAMES + 2


def state_digest(net) -> str:
    """sha256 over codec.canon of every core's state."""
    states = hashlib.sha256()
    for uid in net.ids:
        states.update(codec.canon(net.cores[uid].state).encode() + b"\n")
    return states.hexdigest()
