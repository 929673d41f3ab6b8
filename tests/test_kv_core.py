"""Server core behavior over an in-process network: replication, log
holes and sync repair, election restarts, and partition tolerance."""

from __future__ import annotations

import json

from conftest import MemoryNet
from prdt.kv import wire
from prdt.kv.core import Respond, SendToPeer, ServerCore
from prdt.kv.wire import Write
from prdt.protocols.paxos import BallotNum


EMPTY_VOTING = {"t": "voting", "v": {"t": "set", "v": []}}
BOTTOM_STATE = {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": []}}}
WRONG_INNER_STATE = {
    "kind": "DELTA", "sender": "n2",
    "payload": {"t": "epoch", "n": 5, "v": {"t": "set", "v": []}},
}
STRING_ROUND_KEY = {
    "kind": "DELTA", "sender": "n2",
    "payload": {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {"t": "map", "v": [
        ["x", {"t": "round", "le": EMPTY_VOTING, "prop": EMPTY_VOTING}],
    ]}}},
}
NON_OP_SYNC_LOG = {
    "kind": "SYNC_RESPONSE", "sender": "n2",
    "payload": {"state": BOTTOM_STATE, "log": [{"t": "set", "v": []}]},
}


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


def test_bad_client_request_is_answered_not_crashed(memory_net):
    for frame in ({"op": "frobnicate"}, ["op"]):
        assert memory_net.request("n1", frame) == {
            "status": "error", "value": "bad request",
        }
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
    replay = roundtrip(wire.delta_envelope("n2", memory_net.cores["n2"].state))
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
    assert core.on_envelope({"kind": "DELTA", "sender": "n2", "payload": {"t": "???"}}) == []
    assert core.on_envelope({"kind": "DELTA", "sender": "n2", "payload": 42}) == []
    assert core.on_envelope("not even a dict") == []
    assert core.on_envelope({"kind": "SYNC_REQUEST", "sender": "nX"}) == []
    assert core.on_envelope({"kind": "SYNC_REQUEST", "sender": ["x"]}) == []
    # decodable states of the wrong shape are dropped before any merge
    for frame in (WRONG_INNER_STATE, STRING_ROUND_KEY, NON_OP_SYNC_LOG):
        assert core.on_envelope(frame) == []
        assert core.state == core.protocol.bottom()
        assert core.decided_ops == []
    net = MemoryNet()
    assert net.cores["n1"].on_envelope(STRING_ROUND_KEY) == []
    assert net.put("n1", "k", "v") == {"status": "ok"}


def test_epoch_hole_triggers_a_sync_request(memory_net):
    memory_net.put("n1", "k", "v")
    donor = memory_net.cores["n2"]
    assert donor.state.counter == 1
    fresh = ServerCore("n1", ("n2", "n3"))
    effects = fresh.on_envelope(roundtrip(wire.delta_envelope("n2", donor.state)))
    # the merge lands in epoch 1 with an empty log: epoch 0's decision
    # was never seen, so the core asks the sender for history
    wants_sync = [
        e for e in effects
        if isinstance(e, SendToPeer) and e.envelope["kind"] == wire.SYNC_REQUEST
    ]
    assert [e.peer for e in wants_sync] == ["n2"]
    assert fresh.decided_ops == []
    response = roundtrip(wire.sync_response_envelope("n2", donor.state, donor.decided_ops))
    fresh.on_envelope(response)
    assert fresh.decided_ops == donor.decided_ops
    assert fresh.state.counter == len(fresh.decided_ops)


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
