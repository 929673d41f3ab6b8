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
data-driven execution with no RNG involved. Steps are codec records
(``{"t": "propose", ...}``, ``{"t": "merge", ...}``), and ``replay`` runs
a step list after rejecting any malformed step.
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


codec.record(Propose, "propose", "slot", "value")
codec.record(MergeAndUpkeep, "merge", "src", "dst")

SimStep = Any


def _check_steps(steps: Sequence[SimStep], replica_count: int) -> None:
    """Raise ``ValueError`` unless every step is a ``Propose`` or a
    ``MergeAndUpkeep`` whose slots are distinct ints in range."""
    for step in steps:
        if type(step) is Propose:
            slots = (step.slot,)
        elif type(step) is MergeAndUpkeep and step.src != step.dst:
            slots = (step.src, step.dst)
        else:
            raise ValueError(f"malformed step {step!r}")
        if not all(type(s) is int and 0 <= s < replica_count for s in slots):
            raise ValueError(f"slot out of range in {step!r}")


@dataclass
class RunTrace:
    seed: int
    replica_ids: Tuple[str, ...]
    steps: List[SimStep] = field(default_factory=list)
    decisions: List[Tuple] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "replica_ids": list(self.replica_ids),
            "steps": [codec.encode(step) for step in self.steps],
            "decisions": [[codec.encode(d) for d in row] for row in self.decisions],
            "violations": list(self.violations),
        }


def trace_from_json(doc: dict) -> RunTrace:
    """Inverse of ``RunTrace.to_json``; ``ValueError`` on a malformed
    document, including a step that ``replay`` would reject."""
    try:
        trace = RunTrace(doc["seed"], tuple(doc["replica_ids"]),
                         [codec.decode(step) for step in doc["steps"]],
                         [tuple(codec.decode(d) for d in row) for row in doc.get("decisions", [])],
                         list(doc.get("violations", [])))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace: {exc!r}") from exc
    _check_steps(trace.steps, len(trace.replica_ids))
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

    def apply(self, step: SimStep) -> bool:
        """Execute one step; returns whether any state changed."""
        protocol = self.protocol
        if isinstance(step, Propose):
            slot = step.slot
            old = pre = self.states[slot]
            delta = protocol.propose(pre, step.value, self.ctxs[slot])
        else:
            slot = step.dst
            old = self.states[slot]
            pre = protocol.merge(old, self.states[step.src])
            delta = protocol.upkeep(pre, self.ctxs[slot])
        if self.action_invariant is not None:
            problem = self.action_invariant(pre, delta, self.ctxs[slot])
            if problem:
                self.invariant_violations.append(problem)
        new = protocol.merge(pre, delta)
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


def replay(protocol: Consensus, steps: Sequence[SimStep],
           replica_ids: Sequence[str]) -> List[List]:
    """Run a step list from the initial states, once every step passes
    ``_check_steps``; returns the state array after each step. Replaying
    a recorded trace reproduces the run's final states exactly."""
    _check_steps(steps, len(replica_ids))
    execution = Execution(protocol, replica_ids)
    snapshots = []
    for step in steps:
        execution.apply(step)
        snapshots.append(list(execution.states))
    return snapshots


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
