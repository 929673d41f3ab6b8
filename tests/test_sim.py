"""Harness behavior: deterministic replay, convergence, the safety
oracles, and the law/monotonicity checkers the acceptance sweeps use."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import BuggyVoting, harvest
from prdt import codec
from prdt.kernel import Decided, UNDECIDED
from prdt.lattice import GrowSet
from prdt.protocols import PROTOCOLS, make_protocol
from prdt.protocols.paxos import Paxos
from prdt.protocols.variants import MultiPaxos
from prdt.protocols.voting import Membership, Voting, VotingState
from prdt.sim import (
    Execution,
    MergeAndUpkeep,
    Propose,
    RunTrace,
    SimConfig,
    check_lattice_laws,
    check_monotone,
    check_oracles,
    read_trace,
    replay,
    run_one,
    run_random_test,
    run_seed,
    trace_from_json,
    write_trace,
)

IDS3 = ("id1", "id2", "id3")


def paxos3() -> Paxos:
    return Paxos(Membership.of(*IDS3))


def test_replica_ids_are_numbered():
    assert SimConfig(replica_count=4).replica_ids() == ("r1", "r2", "r3", "r4")


def test_run_seed_spreads_indices():
    seeds = {run_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert run_seed(0, 7) != run_seed(1, 7)


def test_same_seed_reproduces_the_trace():
    cfg = SimConfig(replica_count=3, steps_per_run=40, rng_seed=7)
    first = run_one(paxos3(), cfg, 0)
    second = run_one(paxos3(), cfg, 0)
    assert first.trace.to_json() == second.trace.to_json()
    assert first.final_states == second.final_states
    third = run_one(paxos3(), cfg, 1)
    assert third.trace.seed != first.trace.seed


def test_one_ordered_merge_pass_converges():
    # pure merges, no upkeep: after one src-major pass every slot holds
    # the join of all slots
    result = run_one(paxos3(), SimConfig(replica_count=3, steps_per_run=30, rng_seed=5), 0)
    states = list(result.final_states)
    joined = states[0].merge(states[1]).merge(states[2])
    for src in range(3):
        for dst in range(3):
            if dst != src:
                states[dst] = states[dst].merge(states[src])
    assert all(s == joined for s in states)


WALKTHROUGH = [
    Propose(1, "val1"),
    MergeAndUpkeep(1, 2),
    MergeAndUpkeep(2, 1),
    Propose(1, "val1"),
    MergeAndUpkeep(1, 2),
    MergeAndUpkeep(2, 1),
    MergeAndUpkeep(1, 0),
]


def test_finished_steps_stutter():
    execution = Execution(paxos3(), IDS3)
    for step in WALKTHROUGH:
        execution.apply(step)
    assert all(isinstance(d, Decided) for d in execution.decisions)
    # merges of already-absorbed state and proposes against a decided
    # slot are no-ops; a re-propose on an *undecided* slot is not (it
    # may open a fresh ballot), so only these two forms are checked
    assert execution.apply(MergeAndUpkeep(1, 0)) is False
    assert execution.apply(MergeAndUpkeep(2, 1)) is False
    assert execution.apply(Propose(0, "val2")) is False
    assert execution.apply(Propose(1, "val1")) is False


def test_walkthrough_script_runs_from_a_checkout():
    script = Path(__file__).resolve().parent.parent / "scripts" / "walkthrough_paxos.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, str(script)], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    blocks = result.stdout.split("Step ")[1:]
    assert [b.split(":")[0] for b in blocks] == [str(i) for i in range(1, 10)]
    unchanged = [i for i, b in enumerate(blocks, 1) if "[state unchanged]" in b.splitlines()[0]]
    assert unchanged == [8, 9]
    assert blocks[6].count("decision=Decided('val1')") == 3


def test_replay_snapshots_every_step():
    snapshots = replay(paxos3(), WALKTHROUGH, IDS3)
    assert len(snapshots) == len(WALKTHROUGH)
    assert all(len(row) == 3 for row in snapshots)
    decisions = [paxos3().decision(s) for s in snapshots[-1]]
    assert decisions == [Decided("val1")] * 3


def test_replay_reproduces_final_states():
    cfg = SimConfig(replica_count=3, steps_per_run=35, rng_seed=13)
    result = run_one(paxos3(), cfg, 2)
    replayed = replay(paxos3(), result.trace.steps, result.trace.replica_ids)
    assert replayed[-1] == result.final_states


MALFORMED_STEPS = [
    Propose(5, "v"),             # slot out of range
    Propose(-1, "v"),
    Propose(True, "v"),          # a bool is not a slot
    Propose("1", "v"),           # nor is a string
    MergeAndUpkeep(1, 1),        # self merge
    MergeAndUpkeep(0, 9),
    MergeAndUpkeep(0.5, 1),
    MergeAndUpkeep(0, True),
    ("propose", 0, "v"),         # not a step
]


def test_replay_rejects_malformed_traces(tmp_path):
    path = tmp_path / "trace.json"
    for step in MALFORMED_STEPS:
        steps = [Propose(0, "v"), step]
        with pytest.raises(ValueError):
            replay(paxos3(), steps, IDS3)
        try:
            doc = RunTrace(seed=0, replica_ids=IDS3, steps=steps).to_json()
        except TypeError:
            continue  # a float has no codec form; MALFORMED_DOCS has its document
        with pytest.raises(ValueError):
            trace_from_json(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_trace(str(path))


def test_trace_json_roundtrip(tmp_path):
    cfg = SimConfig(replica_count=3, steps_per_run=25, rng_seed=21)
    trace = run_one(paxos3(), cfg, 0).trace
    doc = trace.to_json()
    json.dumps(doc)  # plain JSON, no custom objects
    assert trace_from_json(doc).to_json() == doc
    path = tmp_path / "trace.json"
    write_trace(trace, str(path))
    assert read_trace(str(path)).to_json() == doc


MALFORMED_DOCS = [
    {"t": "teleport", "slot": 0},                  # unknown tag
    {"kind": "propose", "slot": 0, "value": "v"},  # the old format: no tag
    {"t": "merge", "src": 0},                      # missing key
    {"t": "propose", "value": "v"},
    {"t": "merge", "src": 0.5, "dst": 1},          # a float slot
    {"t": "set", "v": ["a"]},                      # a codec value, not a step
    {"t": "tup", "v": 5},
    3,
]


def test_trace_json_rejects_unknown_step_kind(tmp_path):
    path = tmp_path / "trace.json"
    for step_doc in MALFORMED_DOCS:
        doc = {"seed": 0, "replica_ids": list(IDS3), "steps": [step_doc]}
        with pytest.raises(ValueError):
            trace_from_json(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            read_trace(str(path))
    # steps are codec records
    good = {"seed": 0, "replica_ids": list(IDS3), "steps": [
        {"t": "propose", "slot": 2, "value": "v"}, {"t": "merge", "src": 0, "dst": 1}]}
    assert trace_from_json(good).steps == [Propose(2, "v"), MergeAndUpkeep(0, 1)]
    assert trace_from_json(good).to_json()["steps"] == good["steps"]
    for key in good:
        with pytest.raises(ValueError):
            trace_from_json({k: v for k, v in good.items() if k != key})


def test_oracles_flag_invalid_and_disagreement():
    protocol = Voting(Membership.of("a", "b", "c"))

    def oracles(states):
        joined = functools.reduce(protocol.merge, states)
        return check_oracles(protocol, [protocol.decision(s) for s in states],
                             protocol.decision(joined))

    invalid = VotingState.of(("a", "cat"), ("a", "dog"))
    found = oracles([invalid, VotingState.bottom()])
    assert found[0] == "slot 0 is Invalid"
    assert "decision of the join of all slots is Invalid" in found
    split = [
        VotingState.of(("a", "cat"), ("b", "cat")),
        VotingState.of(("a", "dog"), ("b", "dog")),
    ]
    found = oracles(split)
    assert "slots 0 and 1 decided different values: 'cat' vs 'dog'" in found
    assert "decision of the join of all slots is Invalid" in found
    assert oracles([VotingState.bottom()] * 3) == []


def test_reachable_pool_spans_run_depths():
    protocol = Voting(Membership.of("r1", "r2", "r3"))
    pool, _ = harvest(protocol, runs=10, max_steps=5, seed=3)
    assert len(pool) == 1 + 10 * 3
    assert pool[0] == protocol.initial_state()
    assert all(isinstance(s, VotingState) for s in pool)


class _Counter:
    """Deliberately broken: merge adds, so merge(a, a) != a."""

    def __init__(self, n):
        self.n = n

    def merge(self, other):
        return _Counter(self.n + other.n)

    def __eq__(self, other):
        return isinstance(other, _Counter) and self.n == other.n


def test_law_checker_catches_a_broken_merge():
    problems = check_lattice_laws(
        lambda rng: _Counter(rng.randrange(1, 5)), 20, random.Random(0)
    )
    assert problems and "not idempotent" in problems[0]
    clean = check_lattice_laws(
        lambda rng: GrowSet(frozenset(rng.sample(range(6), rng.randrange(4)))),
        200,
        random.Random(0),
        bottom=GrowSet.bottom(),
    )
    assert clean == []


def test_monotonicity_checker_catches_a_regression():
    flaky = lambda s: Decided("x") if len(s.elements) % 2 == 0 else UNDECIDED
    problems = check_monotone(
        flaky,
        lambda rng: (GrowSet.bottom(), GrowSet.of(rng.randrange(3))),
        10,
        random.Random(0),
    )
    assert problems and "decision moved" in problems[0]


def test_stall_injection_forces_proposals():
    cfg = SimConfig(
        replica_count=3, steps_per_run=30, propose_probability=0.0,
        rng_seed=9, stall_threshold=2,
    )
    result = run_one(paxos3(), cfg, 0)
    assert any(isinstance(s, Propose) for s in result.trace.steps)
    quiet = run_one(paxos3(), SimConfig(
        replica_count=3, steps_per_run=30, propose_probability=0.0, rng_seed=9,
    ), 0)
    assert not any(isinstance(s, Propose) for s in quiet.trace.steps)
    assert all(d == UNDECIDED for d in quiet.trace.decisions[-1])


def test_random_report_counts_failures():
    membership = Membership.of("r1", "r2", "r3")
    cfg = SimConfig(replica_count=3, steps_per_run=30, runs=50, rng_seed=77)
    report = run_random_test(BuggyVoting(membership), cfg)
    assert not report.ok
    assert report.failures == 1  # stop_on_failure
    assert report.first_failure is not None
    assert report.first_failure.violations
    # the report counts the runs made: here the first run already fails
    assert report.runs == 1
    assert report.first_failure.seed == run_seed(77, report.runs - 1)
    healthy = run_random_test(Voting(membership), cfg)
    assert healthy.ok and healthy.failures == 0
    assert healthy.runs == 50
    assert healthy.last_trace is not None


def test_sim_cli_runs_and_writes_a_trace(tmp_path, capsys):
    from prdt.cli import main

    out = tmp_path / "last.json"
    code = main([
        "--protocol", "voting", "--runs", "5", "--steps", "20",
        "--seed", "1", "--trace-out", str(out),
    ])
    assert code == 0
    assert "failures=0" in capsys.readouterr().out
    assert read_trace(str(out)).replica_ids == ("r1", "r2", "r3")
    # a run that checks nothing must not pass
    for flag, value in (("--replicas", "0"), ("--runs", "0"), ("--steps", "-4")):
        assert main(["--protocol", "paxos", flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag} ")


def test_random_report_counts_decided_runs():
    membership = Membership.of("r1", "r2", "r3")
    cfg = SimConfig(replica_count=3, steps_per_run=100, runs=30, rng_seed=42, stall_threshold=8)
    report = run_random_test(MultiPaxos(membership), cfg)
    traces = [run_one(MultiPaxos(membership), cfg, i).trace for i in range(cfg.runs)]
    ever = sum(any(isinstance(d, Decided) for row in t.decisions for d in row) for t in traces)
    at_end = sum(any(isinstance(d, Decided) for d in t.decisions[-1]) for t in traces)
    # a MultiPaxos decision resets when its epoch advances, so a run
    # that decided need not end decided
    assert report.decided_runs == ever > at_end
    silent = dataclasses.replace(cfg, steps_per_run=2)
    assert run_random_test(Paxos(membership), silent).decided_runs == 0


# sha256 per registered protocol over codec.canon of every final state
# and every trace decision of 40 runs; any change to what the tester
# does, decides or encodes moves it. Only ``multipaxos`` moved when its
# epoch handoff stopped copying the decided leader election into the
# next epoch and cast the advancing replica's own vote instead.
TESTER_DIGESTS = {
    "gen": "f3435a1d197aa9960437b9f38981a431eccbe5202d6dc150da6377d6cfa26847",
    "multipaxos": "5beb258561b5567ad82c50bbfa219c64accd692b0a6714f81823e6922edddb0a",
    "paxos": "dd6c3ee931ca5d71ead7c1e6c915454b1120dae544f629b424f47e049294955d",
    "reconfig": "0c1acacad02084f9050d2f9cee8000489f6d2c180fe040df7535f88d3ec3c8ad",
    "sequence": "5566e95f241914d1dfb4dcaf321f1779bc904776db06d83b918cae8ccc9d8657",
    "voting": "4c15db82e11f47a255fff39016e1f083cff6edf811926b89548502e58c15fbff",
}


def test_tester_runs_are_pinned():
    config = SimConfig(replica_count=3, steps_per_run=60, value_pool=("a", "b"),
                       rng_seed=5, stall_threshold=8)
    membership = Membership(frozenset(config.replica_ids()))
    digests = {}
    for name in sorted(PROTOCOLS):
        digest = hashlib.sha256()
        protocol = make_protocol(name, membership)
        for run_index in range(40):
            result = run_one(protocol, config, run_index)
            for state in result.final_states:
                digest.update(codec.canon(state).encode() + b"\n")
            for row in result.trace.decisions:
                for d in row:
                    digest.update(codec.canon(d).encode() + b"\n")
        digests[name] = digest.hexdigest()
    assert digests == TESTER_DIGESTS
