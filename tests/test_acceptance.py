"""The release checklist, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL (detail)" line, so the
captured log of this module doubles as the acceptance report. Criteria
with a runtime budget assert the measured wall time as well. Numbers 7
and 8 spawn real server processes; everything else runs in process.
"""

from __future__ import annotations

import io
import json
import random
import time

import pytest

from conftest import (
    BuggyVoting,
    MemoryNet,
    crossed_pairs,
    harvest,
    within_epoch,
)
from prdt import bench, sim
from prdt.kernel import UNDECIDED, Decided, ReplicaContext
from prdt.kv.client import KvClient
from prdt.kv.cluster import kv_cluster
from prdt.kv.wire import Write
from prdt.lattice import Epoch, GrowSet, MergeList, MergeMap
from prdt.protocols import PROTOCOLS, make_protocol
from prdt.protocols.paxos import BallotNum, Paxos, PaxosRound, PaxosState
from prdt.protocols.variants import (
    ConfigRound,
    GenOp,
    MultiPaxos,
    ReconfigurablePaxos,
    SequencePaxos,
)
from prdt.protocols.voting import (
    Membership,
    ParallelVoting,
    ParallelVotingState,
    Voting,
    VotingState,
)

pytestmark = pytest.mark.acceptance


def _verdict(number: str, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


# -- 1: lattice laws ----------------------------------------------------

_IDS = ("id1", "id2", "id3", "id4")
_WORDS = ("val1", "val2", "cat", "dog")


def _grow_set(rng):
    return GrowSet(frozenset(rng.sample(range(12), rng.randrange(5))))


def _member_set(rng):
    return GrowSet(frozenset(rng.sample(_IDS, rng.randrange(len(_IDS) + 1))))


def _merge_map(rng):
    return MergeMap({f"k{i}": _grow_set(rng) for i in rng.sample(range(6), rng.randrange(4))})


def _merge_list(rng):
    return MergeList(tuple(_grow_set(rng) for _ in range(rng.randrange(4))))


def _voting_state(rng):
    pairs = [(rng.choice(_IDS), rng.choice(_WORDS)) for _ in range(rng.randrange(4))]
    return VotingState.of(*pairs)


def _parallel_voting_state(rng):
    return ParallelVotingState(_voting_state(rng), _voting_state(rng))


def _paxos_round(rng):
    return PaxosRound(_voting_state(rng), _voting_state(rng))


def _paxos_state(rng):
    rounds = {
        BallotNum(rng.choice(_IDS), rng.randrange(1, 4)): _paxos_round(rng)
        for _ in range(rng.randrange(3))
    }
    return PaxosState(MergeMap(rounds))


def _gen_op(rng):
    preds = frozenset((rng.choice(_IDS), rng.randrange(1, 3)) for _ in range(rng.randrange(2)))
    return GenOp(_paxos_state(rng), GrowSet(preds))


def _gen_op_map(rng):
    ops = {
        (rng.choice(_IDS), rng.randrange(1, 3)): _gen_op(rng)
        for _ in range(rng.randrange(3))
    }
    return MergeMap(ops)


def _config_round(rng):
    return ConfigRound(_member_set(rng), _paxos_state(rng), _paxos_state(rng))


# Every shipped state type, base and composed: the workhorse collections,
# the product records, and each protocol's full state shape.
_LAW_SAMPLERS = (
    ("GrowSet", _grow_set, GrowSet.bottom()),
    ("MergeMap[str, GrowSet]", _merge_map, MergeMap.bottom()),
    ("MergeList[GrowSet]", _merge_list, MergeList.bottom()),
    ("Epoch[GrowSet]", lambda rng: Epoch(rng.randrange(4), _grow_set(rng)), Epoch(0, GrowSet.bottom())),
    ("VotingState", _voting_state, VotingState.bottom()),
    ("ParallelVotingState", _parallel_voting_state, ParallelVotingState.bottom()),
    ("PaxosRound", _paxos_round, PaxosRound.bottom()),
    ("PaxosState", _paxos_state, PaxosState.bottom()),
    ("Epoch[PaxosState]", lambda rng: Epoch(rng.randrange(3), _paxos_state(rng)), Epoch(0, PaxosState.bottom())),
    ("MergeList[PaxosState]", lambda rng: MergeList(tuple(_paxos_state(rng) for _ in range(rng.randrange(3)))), MergeList.bottom()),
    ("GenOp", _gen_op, GenOp.bottom()),
    ("MergeMap[op id, GenOp]", _gen_op_map, MergeMap.bottom()),
    ("Epoch[ConfigRound]", lambda rng: Epoch(rng.randrange(3), _config_round(rng)), Epoch(0, ConfigRound.bottom())),
)


def test_criterion_1_lattice_laws():
    rng = random.Random(101)
    started = time.perf_counter()
    problems = []
    for name, sample, bottom in _LAW_SAMPLERS:
        found = sim.check_lattice_laws(sample, 1000, rng, bottom=bottom)
        problems.extend(f"{name}: {p}" for p in found)
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    _verdict(
        "1", ok,
        f"{len(_LAW_SAMPLERS)} state types x 1000 triples in {elapsed:.1f}s, "
        f"{len(problems)} violations" + (f"; first: {problems[0]}" if problems else ""),
    )


# -- 2: decision monotonicity --------------------------------------------

def test_criterion_2_decision_monotonicity():
    membership = Membership.of("r1", "r2", "r3")
    protocols = {name: make_protocol(name, membership) for name in PROTOCOLS}
    protocols["parallel"] = ParallelVoting(membership)
    # Epoch advancement deliberately discards the decided instance, so
    # the monotonicity contract for these is per epoch (conftest filter).
    epoch_scoped = {"multipaxos", "reconfig"}
    violations = []
    for index, name in enumerate(sorted(protocols)):
        protocol = protocols[name]
        pool = (("a", "x"), ("b", "y")) if name == "parallel" else ("val1", "val2")
        states, pairs = harvest(protocol, value_pool=pool)
        rng = random.Random(2000 + index)
        crossed = crossed_pairs(states, pairs, rng, extra=600)
        if name in epoch_scoped:
            crossed = within_epoch(crossed)
        sample_pair = lambda r, _pool=crossed: _pool[r.randrange(len(_pool))]
        found = sim.check_monotone(protocol.decision, sample_pair, 1000, rng)
        violations.extend(f"{name}: {p}" for p in found)
    _verdict(
        "2", not violations,
        f"{len(protocols)} protocols x 1000 (state, delta) pairs, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# -- 3: voting safety plus mutation check ---------------------------------

def test_criterion_3_voting_safety():
    total_runs = 0
    failures = 0
    for replica_count, runs in ((3, 3334), (4, 3333), (5, 3333)):
        membership = Membership.of(*(f"r{i + 1}" for i in range(replica_count)))
        config = sim.SimConfig(
            replica_count=replica_count, steps_per_run=50, runs=runs,
            rng_seed=300 + replica_count,
        )
        report = sim.run_random_test(Voting(membership), config, stop_on_failure=False)
        total_runs += report.runs
        failures += report.failures

    # the same harness must be able to fail: drop the has-not-voted
    # guard and an Invalid state has to show up
    buggy_config = sim.SimConfig(replica_count=3, steps_per_run=50, runs=10_000, rng_seed=77)
    buggy = sim.run_random_test(BuggyVoting(Membership.of("r1", "r2", "r3")), buggy_config)
    caught = buggy.failures >= 1 and any(
        "Invalid" in v for v in (buggy.first_failure.violations if buggy.first_failure else [])
    )

    ok = total_runs == 10_000 and failures == 0 and caught
    _verdict(
        "3", ok,
        f"{total_runs} runs over 3-5 replicas, {failures} invalid; "
        f"guard-removed mutant flagged Invalid: {caught}",
    )


# -- 4: paxos agreement ---------------------------------------------------

def test_criterion_4_paxos_agreement():
    started = time.perf_counter()
    failures = 0
    first = None
    decided = {}  # replica count -> runs in which some slot was decided
    for replica_count, seed in ((3, 404), (5, 405)):
        config = sim.SimConfig(
            replica_count=replica_count, steps_per_run=100, runs=5000,
            rng_seed=seed, stall_threshold=8,
        )
        membership = Membership.of(*config.replica_ids())
        report = sim.run_random_test(Paxos(membership), config, stop_on_failure=False)
        failures += report.failures
        decided[replica_count] = report.decided_runs
        if first is None and report.first_failure is not None:
            first = report.first_failure.violations
    elapsed = time.perf_counter() - started
    # agreement holds vacuously in a half that never decided
    ok = failures == 0 and all(decided.values()) and elapsed < 300.0
    _verdict(
        "4", ok,
        f"10000 runs (5000 x 3 replicas, 5000 x 5) x 100 steps in {elapsed:.0f}s, "
        f"{failures} violations, decided_runs {decided[3]} x 3 replicas, {decided[5]} x 5"
        + (f"; first: {first}" if first else ""),
    )


# -- 5: the scripted nine-step walkthrough --------------------------------

def test_criterion_5_scripted_walkthrough():
    ids = ("id1", "id2", "id3")
    protocol = Paxos(Membership.of(*ids))
    steps = [
        sim.Propose(1, "val1"),       # 1: second replica opens a ballot
        sim.MergeAndUpkeep(1, 2),     # 2: third learns it and confirms
        sim.MergeAndUpkeep(2, 1),     # 3: leader election reaches quorum
        sim.Propose(1, "val1"),       # 4: confirmed leader proposes
        sim.MergeAndUpkeep(1, 2),     # 5: third accepts -> decided there
        sim.MergeAndUpkeep(2, 1),     # 6: second sees both accepts
        sim.MergeAndUpkeep(1, 0),     # 7: first catches up, decided
        sim.MergeAndUpkeep(2, 0),     # 8: no new knowledge, no change
        sim.Propose(0, "val2"),       # 9: proposing on a decided state is a no-op
    ]
    snapshots = sim.replay(protocol, steps, ids)
    decisions = [[protocol.decision(s) for s in snap] for snap in snapshots]

    quiet = all(decisions[i] == [UNDECIDED] * 3 for i in range(4))
    third = decisions[4] == [UNDECIDED, UNDECIDED, Decided("val1")]
    second = decisions[5] == [UNDECIDED, Decided("val1"), Decided("val1")]
    first = decisions[6] == [Decided("val1")] * 3
    frozen = snapshots[7] == snapshots[6] and snapshots[8] == snapshots[6]
    ok = quiet and third and second and first and frozen
    _verdict(
        "5", ok,
        "decisions land at steps 5/6/7 on replicas 3/2/1 and steps 8-9 change nothing"
        if ok else
        f"quiet={quiet} third={third} second={second} first={first} frozen={frozen}",
    )


# -- 6: partition with forwarding through the middle ----------------------

def test_criterion_6_partition_forwarding():
    # scripted harness run on a line topology: replicas 0 and 2 never
    # exchange state directly, every step goes through replica 1
    ids = ("r1", "r2", "r3")
    protocol = Paxos(Membership.of(*ids))
    steps = [
        sim.Propose(0, "val1"),
        sim.MergeAndUpkeep(0, 1),
        sim.MergeAndUpkeep(1, 2),
        sim.MergeAndUpkeep(1, 0),
        sim.Propose(0, "val1"),
        sim.MergeAndUpkeep(0, 1),
        sim.MergeAndUpkeep(1, 2),
        sim.MergeAndUpkeep(1, 0),
    ]
    snapshots = sim.replay(protocol, steps, ids)
    script_ok = [protocol.decision(s) for s in snapshots[-1]] == [Decided("val1")] * 3

    # same shape on the server cores: the n1-n3 link is severed both
    # ways and deltas travel via n2
    net = MemoryNet(blocked={("n1", "n3"), ("n3", "n1")})
    put_ok = net.put("n1", "k", "v") == {"status": "ok"}
    logs = [net.cores[uid].decided_ops for uid in net.ids]
    logs_ok = all(log and log[0] == Write("k", "v") for log in logs)
    read_ok = net.get("n3", "k") == {"status": "ok", "value": "v"}

    ok = script_ok and put_ok and logs_ok and read_ok
    _verdict(
        "6", ok,
        f"line-topology script decided everywhere: {script_ok}; "
        f"severed-link cluster decided on all 3 nodes via the middle: {put_ok and logs_ok and read_ok}",
    )


# -- 7: sequential consistency of the store -------------------------------

@pytest.mark.integration
def test_criterion_7_kv_sequential_consistency():
    workload = bench.Workload("mixed", op_count=1000, key_space=25, seed=7)
    expected = {}
    violations = []
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        with KvClient(host, port) as client:
            for index, (kind, key, value) in enumerate(bench.generate_ops(workload)):
                if kind == "put":
                    response = client.put(key, value)
                    if response != {"status": "ok"}:
                        violations.append(f"op {index}: put {key} -> {response}")
                    else:
                        expected[key] = value
                else:
                    response = client.get(key)
                    want = (
                        {"status": "ok", "value": expected[key]}
                        if key in expected else {"status": "not_found"}
                    )
                    if response != want:
                        violations.append(f"op {index}: get {key} -> {response}, want {want}")
    _verdict(
        "7", not violations,
        f"1000 mixed ops on a 3-node cluster, {len(violations)} stale or wrong reads"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# -- 8: local throughput floor and report round-trips ----------------------

@pytest.mark.integration
def test_criterion_8_bench_throughput_and_roundtrip():
    workload = bench.Workload("write", op_count=1000, key_space=50, seed=11)
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        with KvClient(host, port) as client:
            records = bench.run_workload(client, workload)
    summary = bench.summarize(records, warmup_fraction=0.1)
    fast_enough = summary.median_throughput_ops >= 500.0

    written = io.StringIO()
    bench.write_csv(records, written)
    text = written.getvalue()
    rewritten = io.StringIO()
    bench.write_csv(bench.read_csv(io.StringIO(text)), rewritten)
    csv_ok = (
        bench.read_csv(io.StringIO(text)) == records
        and rewritten.getvalue() == text
    )
    summary_ok = bench.Summary(**json.loads(summary.to_json())) == summary

    ok = fast_enough and csv_ok and summary_ok
    _verdict(
        "8", ok,
        f"write workload median {summary.median_throughput_ops:.0f} ops/s "
        f"(floor 500); csv round-trip: {csv_ok}; summary json round-trip: {summary_ok}",
    )


# -- 9: the composed variants ---------------------------------------------

def _leader_of(state: PaxosState, membership: Membership):
    """The confirmed leader of the highest round of ``state`` that has one."""
    for _, round_ in reversed(state.rounds.entries):
        leader = round_.leader(membership)
        if leader is not None:
            return leader
    return None


def test_criterion_9a_multipaxos_leader_stability():
    membership = Membership.of("r1", "r2", "r3")
    protocol = MultiPaxos(membership)
    execution = sim.Execution(protocol, ("r1", "r2", "r3"))
    gossip = [sim.MergeAndUpkeep(s, d) for s in range(3) for d in range(3) if s != d]
    problems = []

    def apply(steps):
        for step in steps:
            execution.apply(step)
            # past epoch 0, the only ballot anyone holds is the leader's
            # seed, and no replica ever sees a leader other than r1
            for slot, state in enumerate(execution.states):
                ballots = [b for b, _ in state.value.rounds.entries]
                if state.counter > 0 and ballots != [BallotNum("r1", 0)]:
                    problems.append(f"slot {slot} opened a ballot in epoch {state.counter}: {ballots}")
                if _leader_of(state.value, membership) not in (None, "r1"):
                    problems.append(f"slot {slot} leader drifted in epoch {state.counter}")

    # instance 0 bootstraps the leader: election round, then the
    # confirmed leader proposes
    apply([sim.Propose(0, "x0")])
    apply(gossip)
    apply([sim.Propose(0, "x0")])
    apply(gossip)
    apply(gossip)
    if execution.decisions != [Decided((0, "x0"))] * 3:
        problems.append(f"instance 0 not decided everywhere: {execution.decisions}")

    # two more decisions ride on the retained leader in 14 steps each:
    # its propose advances and casts its own vote in the seed round
    # (r1, 0); one gossip brings the others' votes for r1, which confirm
    # it; its second propose is phase 2, and one more gossip decides
    for instance, value in ((1, "x1"), (2, "x2")):
        apply([sim.Propose(0, value)])
        apply(gossip)
        apply([sim.Propose(0, value)])
        apply(gossip)
        if execution.decisions != [Decided((instance, value))] * 3:
            problems.append(f"instance {instance} not decided everywhere in 14 steps: {execution.decisions}")
        leaders = {_leader_of(s.value, membership) for s in execution.states}
        if leaders != {"r1"}:
            problems.append(f"instance {instance} leader drifted: {leaders}")

    _verdict(
        "9a", not problems,
        "leader r1 retained across 3 consecutive decided instances; each later "
        "instance holds only the seed ballot (r1, 0) and decides everywhere in 14 steps"
        if not problems else "; ".join(problems[:3]),
    )


def test_criterion_9b_sequence_prefix_discipline():
    membership = Membership.of("r1", "r2", "r3")
    config = sim.SimConfig(
        replica_count=3, steps_per_run=40, runs=1000, rng_seed=909,
        stall_threshold=8,
    )
    report = sim.run_random_test(SequencePaxos(membership), config, stop_on_failure=False)
    detail = f"1000 random runs with per-action order checks, {report.failures} violations"
    if report.first_failure is not None:
        detail += f"; first: {report.first_failure.violations}"
    _verdict("9b", report.ok, detail)


def _spin(protocol, states, ctxs, group, pendings, rounds=8):
    """Gossip to fixpoint within `group`: all-pairs merges, then one
    upkeep per member, repeated."""
    ids = sorted(group)
    for _ in range(rounds):
        for dst in ids:
            for src in ids:
                if src != dst:
                    states[dst] = protocol.merge(states[dst], states[src])
        for uid in ids:
            delta = protocol.upkeep(states[uid], ctxs[uid], pendings.get(uid))
            states[uid] = protocol.merge(states[uid], delta)


def test_criterion_9c_reconfig_quorum_change():
    genesis = Membership.of("r1", "r2", "r3")
    wider = Membership.of("r1", "r2", "r3", "r4")
    protocol = ReconfigurablePaxos(genesis)
    ids = ("r1", "r2", "r3", "r4")
    ctxs = {uid: ReplicaContext(uid) for uid in ids}
    states = {uid: protocol.initial_state() for uid in ids}
    problems = []

    # epoch 0 decides a value under the genesis quorum of 2; r4 is not
    # a member yet and stays out of the gossip
    states["r1"] = protocol.merge(states["r1"], protocol.propose(states["r1"], "v0", ctxs["r1"]))
    _spin(protocol, states, ctxs, ("r1", "r2", "r3"), {"r1": "v0"})
    if any(protocol.decision(states[u]) != Decided((0, "v0")) for u in ("r1", "r2", "r3")):
        problems.append(f"epoch 0 value not decided: {[protocol.decision(states[u]) for u in ids]}")

    # the membership change is itself decided by the old members: one
    # propose to open the ballot, one more once the leader is confirmed
    states["r1"] = protocol.merge(states["r1"], protocol.propose_membership(states["r1"], wider, ctxs["r1"]))
    _spin(protocol, states, ctxs, ("r1", "r2", "r3"), {})
    states["r1"] = protocol.merge(states["r1"], protocol.propose_membership(states["r1"], wider, ctxs["r1"]))
    _spin(protocol, states, ctxs, ("r1", "r2", "r3"), {})

    advanced = protocol.next_decision(states["r1"], ctxs["r1"])
    if advanced.counter != 1:
        problems.append(f"membership decision did not advance the epoch: {advanced.counter}")
    for uid in ids:
        states[uid] = protocol.merge(states[uid], advanced)
    installed = protocol.membership_of(states["r4"])
    if installed != wider or installed.quorum != 3:
        problems.append(f"new epoch membership wrong: {installed}")

    # under the new 4-member quorum of 3, two replicas can no longer
    # decide; with the old rule this pair would have been enough
    states["r1"] = protocol.merge(states["r1"], protocol.propose(states["r1"], "v1", ctxs["r1"]))
    _spin(protocol, states, ctxs, ("r1", "r2"), {"r1": "v1"})
    stalled = [protocol.decision(states[u]) for u in ("r1", "r2")]
    if stalled != [UNDECIDED, UNDECIDED]:
        problems.append(f"two of four decided despite the new quorum: {stalled}")

    # a third participant completes the quorum and the decision lands
    # in epoch 1
    _spin(protocol, states, ctxs, ids, {"r1": "v1"})
    final = [protocol.decision(states[u]) for u in ids]
    if final != [Decided((1, "v1"))] * 4:
        problems.append(f"epoch 1 value not decided everywhere: {final}")

    _verdict(
        "9c", not problems,
        "membership decided in epoch 0 sets the quorum rule of epoch 1"
        if not problems else "; ".join(problems),
    )
