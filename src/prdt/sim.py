"""Random testing harness: replicas as an array of states, steps as data.

A run holds one state per replica, all starting at the protocol's
initial state. Each step either proposes a value at one slot or merges
one slot into another and runs upkeep on the target, which mirrors a
replica receiving a peer's knowledge and taking its next protocol step.
After every step three oracles are checked:

* no slot's decision is Invalid,
* no two slots decided in the same instance disagree on the value,
* the decision of the join of all slots is not Invalid.

Runs are deterministic: the per-run RNG is derived from (seed, run
index), and every step, including any stall-recovery step the generator
injects, is recorded in the trace, so replaying a trace is pure
data-driven execution with no RNG involved.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from . import codec
from .kernel import Consensus, Decided, Invalid, ReplicaContext

_RUN_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class SimConfig:
    replica_count: int = 3
    steps_per_run: int = 50
    runs: int = 1
    propose_probability: float = 0.3
    value_pool: Tuple = ("val1", "val2")
    rng_seed: int = 0
    # Consecutive no-progress steps (while nothing is decided) before the
    # generator injects a recovery propose; None disables stall retry.
    stall_threshold: Optional[int] = None

    def replica_ids(self) -> Tuple[str, ...]:
        return tuple(f"r{i + 1}" for i in range(self.replica_count))


@dataclass(frozen=True)
class Propose:
    slot: int
    value: Any


@dataclass(frozen=True)
class MergeAndUpkeep:
    src: int
    dst: int


SimStep = Any


@dataclass
class RunTrace:
    seed: int
    replica_ids: Tuple[str, ...]
    steps: List[SimStep] = field(default_factory=list)
    decisions: List[Tuple] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        steps = []
        for step in self.steps:
            if isinstance(step, Propose):
                steps.append({"kind": "propose", "slot": step.slot, "value": codec.encode(step.value)})
            else:
                steps.append({"kind": "merge", "src": step.src, "dst": step.dst})
        return {
            "seed": self.seed,
            "replica_ids": list(self.replica_ids),
            "steps": steps,
            "decisions": [[codec.encode(d) for d in row] for row in self.decisions],
            "violations": list(self.violations),
        }


def trace_from_json(doc: dict) -> RunTrace:
    trace = RunTrace(seed=doc["seed"], replica_ids=tuple(doc["replica_ids"]))
    for step in doc["steps"]:
        if step["kind"] == "propose":
            trace.steps.append(Propose(step["slot"], codec.decode(step["value"])))
        elif step["kind"] == "merge":
            trace.steps.append(MergeAndUpkeep(step["src"], step["dst"]))
        else:
            raise ValueError(f"malformed step kind {step.get('kind')!r}")
    trace.decisions = [tuple(codec.decode(d) for d in row) for row in doc.get("decisions", [])]
    trace.violations = list(doc.get("violations", []))
    return trace


def write_trace(trace: RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace(path: str) -> RunTrace:
    with open(path, encoding="utf-8") as fh:
        return trace_from_json(json.load(fh))


@dataclass
class RunResult:
    ok: bool
    trace: RunTrace
    final_states: List


class Execution:
    """Applies steps to the replica array and keeps the oracles current."""

    def __init__(self, protocol: Consensus, replica_ids: Sequence[str]):
        self.protocol = protocol
        self.replica_ids = tuple(replica_ids)
        self.ctxs = [ReplicaContext(r) for r in self.replica_ids]
        initial = protocol.initial_state()
        self.states = [initial for _ in self.replica_ids]
        # the join of every slot and its decision, recomputed only when
        # a merge returns a new object, which is when the join grew
        self.merged_all = initial
        self.joined_decision = protocol.decision(initial)
        self.decisions = [protocol.decision(initial) for _ in self.replica_ids]
        # a protocol may state a per-action invariant; it is always checked
        self.action_invariant = getattr(protocol, "check_action_invariant", None)
        self.invariant_violations: List[str] = []

    def _maybe_check(self, pre_state, delta, ctx) -> None:
        if self.action_invariant is None:
            return
        problem = self.action_invariant(pre_state, delta, ctx)
        if problem:
            self.invariant_violations.append(problem)

    def apply(self, step: SimStep) -> bool:
        """Execute one step; returns whether any state changed."""
        protocol = self.protocol
        if isinstance(step, Propose):
            slot = step.slot
            old = self.states[slot]
            delta = protocol.propose(old, step.value, self.ctxs[slot])
            self._maybe_check(old, delta, self.ctxs[slot])
            new = protocol.merge(old, delta)
        else:
            slot = step.dst
            old = self.states[slot]
            merged = protocol.merge(old, self.states[step.src])
            delta = protocol.upkeep(merged, self.ctxs[slot])
            self._maybe_check(merged, delta, self.ctxs[slot])
            new = protocol.merge(merged, delta)
        joined = protocol.merge(self.merged_all, delta)
        if joined is not self.merged_all:
            self.merged_all = joined
            self.joined_decision = protocol.decision(joined)
        if new == old:
            return False
        self.states[slot] = new
        self.decisions[slot] = protocol.decision(new)
        return True

    def any_decided(self) -> bool:
        return any(isinstance(d, Decided) for d in self.decisions)

    def oracle_violations(self) -> List[str]:
        found = check_oracles(self.protocol, self.decisions, self.joined_decision)
        found.extend(self.invariant_violations)
        self.invariant_violations = []
        return found


def check_oracles(protocol: Consensus, decisions: Sequence, joined_decision) -> List[str]:
    """The three safety oracles over the slots' decisions and the
    decision of the join of all slots.

    Agreement is required per consensus instance (see
    Consensus.decision_instance): a replica whose decision belongs to a
    later instance is ahead, not in disagreement.
    """
    found: List[str] = []
    decided: dict = {}
    for i, d in enumerate(decisions):
        if isinstance(d, Invalid):
            found.append(f"slot {i} is Invalid")
        elif isinstance(d, Decided):
            decided.setdefault(protocol.decision_instance(d.value), []).append((i, d.value))
    for group in decided.values():
        for idx in range(1, len(group)):
            i, v1 = group[idx - 1]
            j, v2 = group[idx]
            if v1 != v2:
                found.append(f"slots {i} and {j} decided different values: {v1!r} vs {v2!r}")
    if isinstance(joined_decision, Invalid):
        found.append("decision of the join of all slots is Invalid")
    return found


def run_seed(base_seed: int, run_index: int) -> int:
    return (base_seed * _RUN_SEED_STRIDE + run_index) & 0xFFFFFFFFFFFFFFFF


def run_one(protocol: Consensus, config: SimConfig, run_index: int = 0) -> RunResult:
    """One randomized run; stops at the first oracle violation."""
    seed = run_seed(config.rng_seed, run_index)
    rng = random.Random(seed)
    ids = config.replica_ids()
    execution = Execution(protocol, ids)
    trace = RunTrace(seed=seed, replica_ids=ids)
    n = config.replica_count
    stall = 0
    for _ in range(config.steps_per_run):
        inject = (
            config.stall_threshold is not None
            and stall >= config.stall_threshold
            and not execution.any_decided()
        )
        if inject or (n < 2) or rng.random() < config.propose_probability:
            step: SimStep = Propose(rng.randrange(n), rng.choice(config.value_pool))
        else:
            src = rng.randrange(n)
            dst = rng.randrange(n - 1)
            if dst >= src:
                dst += 1
            step = MergeAndUpkeep(src, dst)
        trace.steps.append(step)
        progressed = execution.apply(step)
        stall = 0 if progressed else stall + 1
        trace.decisions.append(tuple(execution.decisions))
        violations = execution.oracle_violations()
        if violations:
            trace.violations = violations
            return RunResult(False, trace, execution.states)
    return RunResult(True, trace, execution.states)


@dataclass
class SimReport:
    runs: int
    failures: int
    first_failure: Optional[RunTrace]
    last_trace: Optional[RunTrace]
    # runs in which some slot was Decided after some step; not only at
    # the end, since an epoch protocol's decision resets when it advances
    decided_runs: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_random_test(protocol: Consensus, config: SimConfig, stop_on_failure: bool = True) -> SimReport:
    """The top-level verdict over up to `config.runs` independent runs;
    `runs` in the report counts the runs that were made, and
    `decided_runs` those in which some slot was ever Decided."""
    runs = failures = decided_runs = 0
    first_failure = None
    last_trace = None
    for run_index in range(config.runs):
        result = run_one(protocol, config, run_index)
        runs += 1
        last_trace = result.trace
        if any(isinstance(d, Decided) for row in last_trace.decisions for d in row):
            decided_runs += 1
        if not result.ok:
            failures += 1
            if first_failure is None:
                first_failure = result.trace
            if stop_on_failure:
                break
    return SimReport(runs=runs, failures=failures, first_failure=first_failure,
                     last_trace=last_trace, decided_runs=decided_runs)


def run_script(protocol: Consensus, steps: Sequence[SimStep],
               replica_ids: Sequence[str]) -> List[List]:
    """Deterministic scripted execution; returns the state array after each step."""
    execution = Execution(protocol, replica_ids)
    snapshots = []
    for step in steps:
        execution.apply(step)
        snapshots.append(list(execution.states))
    return snapshots


def replay_trace(trace: RunTrace, protocol: Consensus) -> List:
    """Re-run a recorded trace; final states are bit-identical to the run's."""
    for step in trace.steps:
        if isinstance(step, Propose):
            if not (0 <= step.slot < len(trace.replica_ids)):
                raise ValueError(f"slot {step.slot} out of range")
        elif isinstance(step, MergeAndUpkeep):
            if step.src == step.dst:
                raise ValueError("merge step with src == dst")
            if not (0 <= step.src < len(trace.replica_ids) and 0 <= step.dst < len(trace.replica_ids)):
                raise ValueError("merge slot out of range")
        else:
            raise ValueError(f"malformed step {step!r}")
    snapshots = run_script(protocol, trace.steps, trace.replica_ids)
    return snapshots[-1] if snapshots else [protocol.initial_state() for _ in trace.replica_ids]


def run_fairness_epilogue(protocol: Consensus, execution: Execution, rng: random.Random,
                          value_pool: Sequence, max_rounds: Optional[int] = None):
    """Drive a finished run toward decisions everywhere: rounds of all-pairs
    merges plus a recovery propose whenever a round makes no progress and
    nothing is decided yet. Returns (rounds used, all slots decided)."""
    n = len(execution.states)
    if max_rounds is None:
        max_rounds = 10 * n
    for round_index in range(max_rounds):
        if all(isinstance(d, Decided) for d in execution.decisions):
            return round_index, True
        progressed = False
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    progressed |= execution.apply(MergeAndUpkeep(src, dst))
        if not progressed and not execution.any_decided():
            execution.apply(Propose(rng.randrange(n), rng.choice(value_pool)))
    return max_rounds, all(isinstance(d, Decided) for d in execution.decisions)


def lattice_law_problems(a, b, c, bottom=None) -> List[str]:
    """The merge laws the triple breaks: commutativity, associativity,
    idempotence, bottom-neutrality, and that a merge adding nothing
    returns the receiver itself."""
    problems: List[str] = []
    ab = a.merge(b)
    if ab != b.merge(a):
        problems.append("merge not commutative")
    if a.merge(b.merge(c)) != ab.merge(c):
        problems.append("merge not associative")
    if a.merge(a) != a:
        problems.append("merge not idempotent")
    if bottom is not None and bottom.merge(a) != a:
        problems.append("bottom not neutral")
    if not (a.merge(a) is a and ab.merge(a) is ab and ab.merge(b) is ab
            and (bottom is None or a.merge(bottom) is a)):
        problems.append("a merge that adds nothing is not the receiver")
    return problems


def check_lattice_laws(sample: Callable[[random.Random], Any], samples: int,
                       rng: random.Random, bottom=None) -> List[str]:
    """``lattice_law_problems`` over randomized triples drawn from
    `sample`, up to the first triple that breaks a law."""
    for i in range(samples):
        a, b, c = sample(rng), sample(rng), sample(rng)
        problems = lattice_law_problems(a, b, c, bottom)
        if problems:
            return [f"triple {i}: {p}" for p in problems]
    return []


def check_monotone(decide: Callable[[Any], Any],
                   sample_pair: Callable[[random.Random], Tuple[Any, Any]],
                   samples: int, rng: random.Random) -> List[str]:
    """Decision monotonicity over randomized (state, delta) pairs."""
    from .kernel import agreement_leq

    problems: List[str] = []
    for i in range(samples):
        state, delta = sample_pair(rng)
        before = decide(state)
        after = decide(state.merge(delta))
        if not agreement_leq(before, after):
            problems.append(f"pair {i}: decision moved {before!r} -> {after!r}")
            break
    return problems
