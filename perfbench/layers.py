"""Per-layer timing from the benchmark's side of each layer boundary.

Nothing here reaches into the program: the timers wrap calls the
benchmark makes into public functions, and ``TimedProtocol`` is a
``Consensus`` delegator that the benchmark hands to the tester, or sets
as a ``ServerCore``'s protocol, in place of the real one.
"""

from __future__ import annotations

import time

from prdt.kernel import Consensus

_clock = time.perf_counter


class Timer:
    """Call count and total seconds for one layer boundary."""

    __slots__ = ("calls", "seconds", "units")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.units = 0  # bytes, for the per-KB metrics

    def add(self, seconds: float, units: int = 0) -> None:
        self.calls += 1
        self.seconds += seconds
        self.units += units

    def merge(self, other: "Timer") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.units += other.units

    def us_per_call(self) -> float:
        return 1e6 * self.seconds / self.calls if self.calls else 0.0

    def us_per_kb(self) -> float:
        return 1e6 * self.seconds / (self.units / 1024.0) if self.units else 0.0


class TimedProtocol(Consensus):
    """Times merge, decision, upkeep and propose of the wrapped protocol.

    ``decision`` covers both ``decision`` (the tester) and
    ``inner_decision`` (the store core); ``next_decision`` is forwarded
    untimed as part of the protocol's own upkeep path.
    """

    def __init__(self, inner: Consensus):
        self.inner = inner
        self.merge_t = Timer()
        self.decision_t = Timer()
        self.upkeep_t = Timer()
        self.propose_t = Timer()

    def bottom(self):
        return self.inner.bottom()

    def initial_state(self):
        return self.inner.initial_state()

    def decision_instance(self, value):
        return self.inner.decision_instance(value)

    def merge(self, a, b):
        t0 = _clock()
        out = self.inner.merge(a, b)
        self.merge_t.add(_clock() - t0)
        return out

    def decision(self, state):
        t0 = _clock()
        out = self.inner.decision(state)
        self.decision_t.add(_clock() - t0)
        return out

    def inner_decision(self, state):
        t0 = _clock()
        out = self.inner.inner_decision(state)
        self.decision_t.add(_clock() - t0)
        return out

    def next_decision(self, state, ctx):
        return self.inner.next_decision(state, ctx)

    def upkeep(self, state, ctx, pending=None):
        t0 = _clock()
        out = self.inner.upkeep(state, ctx, pending)
        self.upkeep_t.add(_clock() - t0)
        return out

    def propose(self, state, value, ctx):
        t0 = _clock()
        out = self.inner.propose(state, value, ctx)
        self.propose_t.add(_clock() - t0)
        return out

    def seconds(self) -> float:
        return (self.merge_t.seconds + self.decision_t.seconds
                + self.upkeep_t.seconds + self.propose_t.seconds)


def protocol_metrics(timed, steps: int) -> dict:
    """The lattice/protocols per-layer metrics from one or more delegators."""
    merge, decision, upkeep, propose = Timer(), Timer(), Timer(), Timer()
    for t in timed:
        merge.merge(t.merge_t)
        decision.merge(t.decision_t)
        upkeep.merge(t.upkeep_t)
        propose.merge(t.propose_t)
    return {
        "lattice.merge_us": merge.us_per_call(),
        "protocols.decision_us": decision.us_per_call(),
        "protocols.upkeep_us": upkeep.us_per_call(),
        "protocols.propose_us": propose.us_per_call(),
        "lattice.merge_calls_per_step": merge.calls / steps if steps else 0.0,
        "protocols.decision_calls_per_step": decision.calls / steps if steps else 0.0,
    }

