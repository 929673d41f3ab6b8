"""The agreement lattice: join and order."""

from __future__ import annotations

from hypothesis import given, strategies as st

from prdt.kernel import (
    Decided,
    INVALID,
    UNDECIDED,
    agreement_join,
    agreement_leq,
)


agreements = st.one_of(
    st.just(UNDECIDED),
    st.just(INVALID),
    st.sampled_from(["cat", "dog", "fish"]).map(Decided),
)


def test_join_examples():
    assert agreement_join(UNDECIDED, Decided("cat")) == Decided("cat")
    assert agreement_join(Decided("cat"), Decided("dog")) == INVALID
    assert agreement_join(Decided("cat"), Decided("cat")) == Decided("cat")
    assert agreement_join(INVALID, UNDECIDED) == INVALID
    assert agreement_join(INVALID, Decided("cat")) == INVALID


def test_leq_examples():
    assert agreement_leq(UNDECIDED, Decided("v"))
    assert not agreement_leq(Decided("a"), Decided("b"))
    assert agreement_leq(Decided("v"), INVALID)
    assert agreement_leq(UNDECIDED, UNDECIDED)
    assert not agreement_leq(INVALID, Decided("v"))


@given(agreements, agreements, agreements)
def test_agreement_join_is_a_semilattice(a, b, c):
    assert agreement_join(a, b) == agreement_join(b, a)
    assert agreement_join(a, agreement_join(b, c)) == agreement_join(agreement_join(a, b), c)
    assert agreement_join(a, a) == a
    assert agreement_join(UNDECIDED, a) == a
    assert agreement_join(INVALID, a) == INVALID


@given(agreements, agreements)
def test_leq_matches_join(a, b):
    assert agreement_leq(a, b) == (agreement_join(a, b) == b)

