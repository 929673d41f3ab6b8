"""Join-semilattice state types and composition combinators.

Every replicated state in this package is a value of one of these types
(or a frozen dataclass composed from them). The contract is uniform:

* ``merge(a, b)`` is the least upper bound: commutative, associative,
  idempotent.
* ``bottom()`` is the neutral element: ``merge(bottom, a) == a``.
* The partial order is derived: ``leq(a, b)`` iff ``merge(a, b) == b``
  under structural equality.
* A merge that adds nothing returns the receiver: ``b ≤ a ⇒ a.merge(b)
  is a``, so data cached on a value (a vote tally) survives it, and
  identity is a test of "nothing changed" that costs no comparison
  (``sim.lattice_law_problems`` checks this law for every shipped type).
* Sets and product records also return the argument when the receiver
  adds nothing to it (``a < b ⇒ a.merge(b) is b``), and
  ``MergeMap.merge`` is one linear walk over the two key-sorted entry
  tuples that keeps every entry it does not change as the very pair it
  was on its side. So replicas and successive states share their
  unchanged values, and with them whatever those values cache.

All values are immutable (frozen dataclasses over frozensets/tuples), so
they are safe to share across threads and to use as dict keys or cache
keys wherever every payload is hashable.

A new state type is declared once, as a product record: a frozen
dataclass deriving from ``ProductMixin`` whose fields are lattices and
whose field defaults are their bottoms. Its merge is field-wise, and
its ``bottom()`` is the all-defaults instance, built once per class and
shared. One line registers its encoding, keys in field order::

    @dataclass(frozen=True)
    class PaxosRound(ProductMixin):
        leader_election: VotingState = VotingState()
        proposals: VotingState = VotingState()

    codec.record(PaxosRound, "round", "le", "prop")
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Tuple


def merge(a, b):
    """Least upper bound of two lattice values of the same type."""
    return a.merge(b)


def leq(a, b) -> bool:
    """Partial-order test: a <= b iff merging a into b adds nothing."""
    return merge(a, b) == b


class cached:
    """A method read as an attribute, computed on the first read and kept
    on the instance, for values computed from an immutable one.

    The result goes into the instance's ``__dict__``, which later reads
    find before this descriptor (it has no ``__set__``), so a frozen
    dataclass can hold it and its equality and hash ignore it. A first
    read takes no lock. The standard library's cached-property
    descriptor takes, on Python 3.10 and 3.11, a lock shared by every
    instance of the class on each first read, and the store path makes
    about 23 first reads per op. Two threads that race on a first read
    each compute the value; the instance is immutable, so the results
    are equal and either may stay.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class DefaultBottom:
    """Lattice types whose bottom is the all-defaults instance."""

    @classmethod
    @functools.cache
    def bottom(cls):
        """The all-defaults instance, built once per class and shared."""
        return cls()


@dataclass(frozen=True)
class GrowSet(DefaultBottom):
    """Grow-only set; merge is set union."""

    elements: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.elements, frozenset):
            object.__setattr__(self, "elements", frozenset(self.elements))

    @classmethod
    def of(cls, *elements) -> "GrowSet":
        return cls(frozenset(elements))

    def merge(self, other: "GrowSet") -> "GrowSet":
        if other.elements <= self.elements:
            return self
        if self.elements <= other.elements:
            return other
        return GrowSet(self.elements | other.elements)

    def __contains__(self, element) -> bool:
        return element in self.elements

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class MergeMap(DefaultBottom):
    """Map whose merge unions key sets and merges values at shared keys.

    Entries are stored as a key-sorted tuple of pairs, so structural
    equality and iteration order are deterministic, and instances are
    hashable whenever the values are. Keys must be totally ordered.

    An entry whose value is bottom is distinct from an absent entry:
    nothing is ever pruned by merge.
    """

    entries: Tuple[tuple, ...] = ()

    def __post_init__(self):
        entries = self.entries
        if isinstance(entries, Mapping):
            entries = entries.items()
        entries = tuple(sorted(entries, key=lambda kv: kv[0]))
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _of_sorted(cls, entries: Tuple[tuple, ...]) -> "MergeMap":
        """An instance over entries already strictly sorted by key."""
        made = object.__new__(cls)
        object.__setattr__(made, "entries", entries)
        return made

    def merge(self, other: "MergeMap") -> "MergeMap":
        """One walk over both key-sorted entry tuples.

        An entry whose value the merge leaves unchanged is kept as the
        very pair it was on its side, so the values under it (and what
        they cache) are shared, not copied.
        """
        if other is self or not other.entries:
            return self
        if not self.entries:
            return other
        mine, theirs = self.entries, other.entries
        m, n = len(mine), len(theirs)
        out = []
        changed = False
        i = j = 0
        while i < m and j < n:
            a, b = mine[i], theirs[j]
            if a is b:
                out.append(a)
                i += 1
                j += 1
                continue
            key = a[0]
            if key == b[0]:
                joined = a[1].merge(b[1])
                if joined is a[1]:
                    out.append(a)
                else:
                    out.append(b if joined is b[1] else (key, joined))
                    changed = True
                i += 1
                j += 1
            elif key < b[0]:
                out.append(a)
                i += 1
            else:
                out.append(b)
                changed = True
                j += 1
        if j < n:
            out.extend(theirs[j:])
        elif changed:
            out.extend(mine[i:])
        else:
            return self
        return MergeMap._of_sorted(tuple(out))

    def get(self, key, default=None):
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def keys(self) -> Tuple:
        return tuple(k for k, _ in self.entries)

    def max_key(self):
        if not self.entries:
            return None
        return self.entries[-1][0]

    def __contains__(self, key) -> bool:
        return any(k == key for k, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class MergeList(DefaultBottom):
    """Ordered sequence merged index-wise; the longer tail is kept.

    Length never shrinks under merge: len(merge(a, b)) is
    max(len(a), len(b)).
    """

    items: Tuple = ()

    def __post_init__(self):
        if not isinstance(self.items, tuple):
            object.__setattr__(self, "items", tuple(self.items))

    def merge(self, other: "MergeList") -> "MergeList":
        if not other.items:
            return self
        if not self.items:
            return other
        shared = min(len(self.items), len(other.items))
        head = tuple(a.merge(b) for a, b in zip(self.items, other.items))
        if len(self.items) >= len(other.items) and all(h is a for h, a in zip(head, self.items)):
            return self
        tail = self.items[shared:] if len(self.items) > shared else other.items[shared:]
        return MergeList(head + tail)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Epoch:
    """Counter-tagged wrapper where the larger counter wins merges.

    Merging equal counters merges the inner values; merging unequal
    counters returns the larger-counter operand unchanged, discarding the
    other side entirely. There is no generic bottom: the neutral element
    is Epoch(0, bottom-of-inner), which depends on the inner type.
    """

    counter: int
    value: Any

    def merge(self, other: "Epoch") -> "Epoch":
        if self.counter > other.counter:
            return self
        if other.counter > self.counter:
            return other
        value = self.value.merge(other.value)
        return self if value is self.value else Epoch(self.counter, value)


@functools.cache
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


class ProductMixin(DefaultBottom):
    """Field-wise merge for frozen dataclasses whose fields are all lattices.

    The receiver is returned when every merged field is its own, else the
    argument when every merged field is the argument's.
    """

    def merge(self, other):
        if other is self:
            return self
        merged, mine_kept, theirs_kept = [], True, True
        for name in _field_names(type(self)):
            mine = getattr(self, name)
            theirs = getattr(other, name)
            part = mine.merge(theirs)
            mine_kept &= part is mine
            theirs_kept &= part is theirs
            merged.append(part)
        if mine_kept:
            return self
        if theirs_kept:
            return other
        return type(self)(*merged)
