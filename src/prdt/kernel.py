"""Agreement lattice and the consensus contract.

The agreement lattice orders protocol outcomes::

    Undecided  <  Decided(v)  <  Invalid        (for every v)

with Decided(a) and Decided(b) incomparable when a != b, so the join of
two conflicting decisions is Invalid. A decision function maps a
knowledge state to this lattice and must be monotone: growing the
knowledge state never moves the outcome backwards. That monotonicity is
what lets the same function double as a safety oracle in the random
tester.

Protocol actions are gated by boolean threshold queries: monotone
predicates whose result freezes once the state passes a threshold. Each
protocol tests its queries inline, and an action whose query is false
contributes bottom (the empty delta), never an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar, Union

from . import codec

A = TypeVar("A")


@dataclass(frozen=True)
class Undecided:
    def __repr__(self) -> str:
        return "Undecided"


@dataclass(frozen=True)
class Decided(Generic[A]):
    value: A

    def __repr__(self) -> str:
        return f"Decided({self.value!r})"


@dataclass(frozen=True)
class Invalid:
    def __repr__(self) -> str:
        return "Invalid"


Agreement = Union[Undecided, Decided, Invalid]

UNDECIDED = Undecided()
INVALID = Invalid()


def agreement_join(x: Agreement, y: Agreement) -> Agreement:
    """Least upper bound in the agreement lattice."""
    if isinstance(x, Invalid) or isinstance(y, Invalid):
        return INVALID
    if isinstance(x, Undecided):
        return y
    if isinstance(y, Undecided):
        return x
    if x.value == y.value:
        return x
    return INVALID


def agreement_leq(x: Agreement, y: Agreement) -> bool:
    """Partial-order test: x <= y in the agreement lattice."""
    return agreement_join(x, y) == y


@dataclass(frozen=True)
class ReplicaContext:
    """Identity of the local process; constant for the replica's lifetime."""

    replica_id: str


codec.record(Undecided, "undecided")
codec.record(Decided, "decided", "v")
codec.record(Invalid, "invalid")


class Consensus:
    """Contract every protocol adapter implements.

    ``propose`` and ``upkeep`` return deltas (never full states);
    ``decision`` is a monotone map into the agreement lattice. ``upkeep``
    runs after every merge and applies the next useful protocol step; the
    default is a protocol with no background steps. ``pending`` threads
    the runtime's not-yet-replicated proposal value into upkeep for
    protocols whose leader step needs one.
    """

    def bottom(self):
        raise NotImplementedError

    def initial_state(self):
        """Starting state for a fresh replica; bottom unless the protocol
        needs genesis configuration."""
        return self.bottom()

    def propose(self, state, value, ctx: ReplicaContext):
        raise NotImplementedError

    def decision(self, state) -> Agreement:
        raise NotImplementedError

    def upkeep(self, state, ctx: ReplicaContext, pending=None):
        return self.bottom()

    def decision_instance(self, value):
        """Group key for a decided value: only decisions with the same
        key must agree. A protocol that advances through a sequence of
        instances keys each decision by its instance, so a replica that
        has moved ahead is not mistaken for a disagreement. Protocols
        that decide once keep everything in one group."""
        return None

    def merge(self, a, b):
        return a.merge(b)
