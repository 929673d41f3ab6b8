"""Shared test machinery: in-process KV cluster, state harvesting for
law/monotonicity checks, and a deliberately broken Voting used to prove
the oracles can fail."""

from __future__ import annotations

import json
import random
from collections import deque

import pytest

from prdt import codec, sim
from prdt.kernel import Consensus, ReplicaContext
from prdt.kv import wire
from prdt.kv.core import Respond, SendToPeer, ServerCore
from prdt.lattice import Epoch, GrowSet
from prdt.protocols.voting import Membership, Vote, Voting, VotingState


# -- protocol mutants ---------------------------------------------------

class BuggyVoting(Voting):
    """Voting with the single-vote guard dropped: a replica re-votes
    freely, so one replica can be seen with two values."""

    def propose(self, state, value, ctx: ReplicaContext):
        return VotingState(GrowSet(frozenset((Vote(ctx.replica_id, value),))))


# -- state / delta harvesting -------------------------------------------

class RecordingProtocol(Consensus):
    """Delegating wrapper that snapshots (pre-state, delta) at every
    propose and upkeep call, so tests get action-generated deltas
    without re-implementing the run loop."""

    def __init__(self, inner: Consensus):
        self.inner = inner
        self.pairs = []

    def bottom(self):
        return self.inner.bottom()

    def initial_state(self):
        return self.inner.initial_state()

    def merge(self, a, b):
        return self.inner.merge(a, b)

    def decision(self, state):
        return self.inner.decision(state)

    def propose(self, state, value, ctx):
        delta = self.inner.propose(state, value, ctx)
        self.pairs.append((state, delta))
        return delta

    def upkeep(self, state, ctx, pending=None):
        delta = self.inner.upkeep(state, ctx, pending)
        self.pairs.append((state, delta))
        return delta


def harvest(protocol: Consensus, runs: int = 60, max_steps: int = 40,
            seed: int = 2024, value_pool=("val1", "val2"),
            stall_threshold=8):
    """Reachable states plus (state, action-delta) pairs from random runs.

    Run depths cycle from 1 up to max_steps so the pool spans shallow and
    deep states. Returns (states, pairs).
    """
    recorder = RecordingProtocol(protocol)
    states = [protocol.initial_state()]
    for run_index in range(runs):
        depth = 1 + run_index % max_steps
        config = sim.SimConfig(
            replica_count=3,
            steps_per_run=depth,
            runs=1,
            rng_seed=seed,
            value_pool=value_pool,
            stall_threshold=stall_threshold,
        )
        result = sim.run_one(recorder, config, run_index)
        states.extend(result.final_states)
    return states, recorder.pairs


def crossed_pairs(states, pairs, rng: random.Random, extra: int = 600):
    """Recorded pairs plus (state, delta) combinations where the delta
    was generated against a different state. Monotonicity must hold for
    any delta, so mixing them in strengthens the check."""
    deltas = [d for _, d in pairs]
    combined = list(pairs)
    for _ in range(extra):
        combined.append((rng.choice(states), rng.choice(deltas)))
    return combined


def within_epoch(pairs):
    # Advancing an epoch deliberately discards the decided instance
    # (see the variants module docstring), so the decision contract is
    # per epoch; pairs whose delta would cross the boundary are not
    # comparable and fall outside the check.
    return [(s, d) for s, d in pairs if d.counter <= s.counter]


# -- hostile payloads ---------------------------------------------------

# Decodable-looking JSON that once escaped ``codec.decode`` as an error
# other than ValueError: a map whose keys do not compare, a member set
# that is a string, and nesting past the recursion limit.
_VOTING = {"t": "voting", "v": {"t": "set", "v": []}}
_ROUND = {"t": "round", "le": _VOTING, "prop": _VOTING}
_BALLOT = {"t": "ballot", "uid": "n2", "n": 1}
MEMBERS_OF_A_STRING = {"t": "members", "v": "n1"}
UNORDERED_ROUND_KEYS = {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {
    "t": "map", "v": [[_BALLOT, _ROUND], ["x", _ROUND]]}}}
MEMBERS_VOTED_IN_A_ROUND = {"t": "epoch", "n": 0, "v": {"t": "paxos", "rounds": {
    "t": "map", "v": [[_BALLOT, {"t": "round", "le": _VOTING, "prop": {"t": "voting", "v": {
        "t": "set", "v": [{"t": "vote", "p": "n2", "v": MEMBERS_OF_A_STRING}]}}}]]}}}
NESTED_TUPS = "n1"
for _ in range(400):
    NESTED_TUPS = {"t": "tup", "v": [NESTED_TUPS]}


def delta_frame(sender: str, *parts, hears=None) -> dict:
    """A DELTA frame from ``sender`` as it arrives off the wire: its payload
    is the document of the body ``(hears, *parts)``. A part that is a
    dict is taken as a document already, so a test can write a hostile
    one; any other part is encoded. ``hears`` goes in as it is."""
    docs = [part if type(part) is dict else codec.encode(part) for part in parts]
    return {"sender": sender, "kind": wire.DELTA, "payload": {"t": "tup", "v": [hears, *docs]}}


# each the one part of a DELTA, so each still reaches decode and the shape check
HOSTILE_DELTAS = tuple(
    delta_frame("n2", p) for p in (UNORDERED_ROUND_KEYS, MEMBERS_VOTED_IN_A_ROUND, NESTED_TUPS))


# -- in-process KV cluster ----------------------------------------------

class MemoryNet:
    """ServerCores wired memory-to-memory with instant, lossless links.

    Effects propagate breadth-first until the network is quiet, so a
    client request returns its response synchronously whenever a quorum
    is reachable. Links named in `blocked` (directed (src, dst) pairs)
    silently drop frames, which models a severed connection.
    """

    def __init__(self, ids=("n1", "n2", "n3"), blocked=(), election_timeout=0.5):
        self.ids = tuple(ids)
        self.cores = {
            uid: ServerCore(uid, tuple(p for p in self.ids if p != uid), election_timeout)
            for uid in self.ids
        }
        self.blocked = set(blocked)
        self.responses = {}
        self.frames_delivered = 0
        self.now = 0.0
        self._next_request = 0

    def _pump(self, sender: str, effects) -> None:
        queue = deque((sender, e) for e in effects)
        while queue:
            src, effect = queue.popleft()
            if isinstance(effect, Respond):
                self.responses[effect.request_id] = effect.response
                continue
            if (src, effect.peer) in self.blocked:
                continue
            # round-trip through the real wire encoding: what the test
            # exercises is what actually crosses the network
            frame = json.loads(wire.encode_frame(effect.envelope))
            self.frames_delivered += 1
            reactions = self.cores[effect.peer].on_envelope(frame)
            queue.extend((effect.peer, e) for e in reactions)

    def request(self, uid: str, frame: dict):
        request_id = (uid, self._next_request)
        self._next_request += 1
        self._pump(uid, self.cores[uid].on_client_request(request_id, frame))
        return self.responses.pop(request_id, None)

    def put(self, uid: str, key: str, value: str):
        return self.request(uid, {"op": "put", "key": key, "value": value})

    def get(self, uid: str, key: str):
        return self.request(uid, {"op": "get", "key": key})

    def tick(self, dt: float = 0.6) -> None:
        self.now += dt
        for uid in self.ids:
            self._pump(uid, self.cores[uid].on_tick(self.now))

    def connect_all(self) -> None:
        for uid in self.ids:
            for peer in self.cores[uid].peers:
                if (uid, peer) not in self.blocked:
                    self._pump(uid, self.cores[uid].on_peer_connected(peer))


@pytest.fixture
def memory_net():
    return MemoryNet()
