"""sim-paxos: the random tester on single-decree Paxos.

Each tester run is one ``sim.run_random_test`` call of one 100-step run
with stall threshold 8 and a value pool of 3. Runs alternate between 3
and 5 replicas, like the acceptance test for Paxos agreement, and each
run has its own RNG seed derived from the workload seed.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time

from prdt import sim
from prdt.kernel import Decided
from prdt.protocols.paxos import Paxos
from prdt.protocols.voting import Membership

from layers import TimedProtocol, protocol_metrics

STEPS = 100
STALL = 8
VALUES = ("val1", "val2", "val3")
REPLICAS = (3, 5)
BATCH = 50
WARMUP_RUNS = 20
NOMINAL_RUNS_PER_S = 110  # sizes a traced run from --seconds; measured on 2 vCPUs

_clock = time.perf_counter


CONFIGS = {
    n: sim.SimConfig(replica_count=n, steps_per_run=STEPS, runs=1,
                     value_pool=VALUES, stall_threshold=STALL)
    for n in REPLICAS
}


def run_seed(seed: int, index: int) -> int:
    return seed * 100_003 + index


class Batch:
    """Timing and coverage of a group of tester runs."""

    def __init__(self):
        self.run_seconds = []
        self.violations = []
        self.decided_runs = 0
        self.first_steps = []

    def record(self, report, seconds: float) -> None:
        self.run_seconds.append(seconds)
        if report.failures:
            self.violations.extend(report.first_failure.violations)
        for step, row in enumerate(report.last_trace.decisions, start=1):
            if any(isinstance(d, Decided) for d in row):
                self.decided_runs += 1
                self.first_steps.append(step)
                break

    def problems(self) -> list:
        found = [f"oracle violation: {v}" for v in self.violations][:5]
        if self.decided_runs == 0:
            found.append("no run decided anything; the oracles checked nothing")
        return found


def run_batch(protocols, seed: int, start: int, count: int, batch: Batch) -> None:
    for index in range(start, start + count):
        n = REPLICAS[index % len(REPLICAS)]
        config = dataclasses.replace(CONFIGS[n], rng_seed=run_seed(seed, index))
        t0 = _clock()
        report = sim.run_random_test(protocols[n], config)
        batch.record(report, _clock() - t0)


# one protocol per replica count, shared by every pass in the process
PROTOCOLS = {n: Paxos(Membership.of(*(f"r{i + 1}" for i in range(n)))) for n in REPLICAS}


def warm_up(workload: str, seed: int) -> None:
    """Untimed runs on a seed no measured run uses: they fill the
    decision caches and let the CPU reach its running clock."""
    run_batch(PROTOCOLS, -1 - seed, 0, WARMUP_RUNS, Batch())
    gc.collect()


def untraced_unit(workload: str, seed: int, b: int) -> float:
    """Batch ``b`` without timers, for the twin; returns its run seconds."""
    batch = Batch()
    run_batch(PROTOCOLS, seed, b * BATCH, BATCH, batch)
    return sum(batch.run_seconds)


def run(workload: str, seed: int, seconds: float, traced: bool, setup_probe, twin) -> dict:
    """Batches until ``seconds`` have passed.

    A traced run instead does a fixed number of batches, sized from
    ``seconds``, so its counts are exact per seed. The twin process runs
    each batch untraced, in alternating order with the traced pass here,
    so the difference is the tracing overhead.
    """
    if traced:
        return _run_traced(seed, seconds, twin)
    untraced = Batch()
    warm_up(workload, seed)
    batch_rates = []
    t0 = _clock()
    b = 0
    while b < 2 or _clock() - t0 < seconds:
        setup_probe.maybe()
        run_batch(PROTOCOLS, seed, b * BATCH, BATCH, untraced)
        batch_rates.append(BATCH / sum(untraced.run_seconds[-BATCH:]))
        b += 1
    setup_probe.fill()
    return {
        "attempted": b * BATCH,
        "failed": 0,
        "setup_samples": setup_probe.samples,
        "problems": untraced.problems(),
        "e2e": {
            "ops_per_s": statistics.median(batch_rates),
            "p50_us": 1e6 * statistics.median(untraced.run_seconds),
        },
    }


def _run_traced(seed: int, seconds: float, twin) -> dict:
    fixed = max(2, int(seconds * NOMINAL_RUNS_PER_S) // BATCH)
    timed = {n: TimedProtocol(p) for n, p in PROTOCOLS.items()}
    with_trace = Batch()
    untraced_s = 0.0
    with twin:
        warm_up("sim-paxos", seed)
        twin.wait_ready()
        for b in range(fixed):
            if b % 2:
                untraced_s += twin.unit(b)
            run_batch(timed, seed, b * BATCH, BATCH, with_trace)
            if not b % 2:
                untraced_s += twin.unit(b)
    runs = fixed * BATCH
    steps = runs * STEPS
    layers = protocol_metrics(timed.values(), steps)
    protocol_s = sum(t.seconds() for t in timed.values())
    first = with_trace.first_steps
    layers.update({
        # the tester's own time: the untraced run minus what the
        # traced run spent inside protocol calls
        "sim.self_us_per_step": 1e6 * (untraced_s - protocol_s) / steps,
        "sim.decided_run_share": with_trace.decided_runs / runs,
        "sim.first_decision_step": statistics.mean(first) if first else 0.0,
        "trace.overhead_share": (sum(with_trace.run_seconds) - untraced_s) / untraced_s,
    })
    return {
        "attempted": runs,
        "failed": 0,
        "problems": with_trace.problems(),
        "layers": layers,
    }


def probe(seed: int) -> None:
    """Set-up as a user pays it: import builds the protocols; finish a
    first run."""
    run_batch(PROTOCOLS, seed, 0, 1, Batch())
