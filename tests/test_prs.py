"""The remainder sequence (polys.euclid) behind divmod_field, gcd_field
and the continued-fraction expansion, checked against Euclid over
Fraction."""

from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracrat import cfe_to_tf, make_tf, rational_to_cfe, tf_equal  # noqa: E402
from fracrat import polys  # noqa: E402

INTS = st.integers(min_value=-30, max_value=30)
RATS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
# lengths 1..8 give every degree gap, negative ones included
POLY = st.one_of(st.lists(INTS, min_size=1, max_size=8), st.lists(RATS, min_size=1, max_size=8)).map(
    polys.trim
).filter(bool)
FACTOR = st.lists(INTS, min_size=2, max_size=4).map(polys.trim).filter(lambda g: len(g) >= 2)


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _euclid_divmod(a, b):
    """Schoolbook long division over Fraction: the reference."""
    a = _trim(Fraction(c) for c in a)
    b = _trim(Fraction(c) for c in b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = _trim(a)
    return tuple(_trim(q)), tuple(a)


def _euclid_gcd(a, b):
    a = _trim(Fraction(c) for c in a)
    b = _trim(Fraction(c) for c in b)
    while b:
        a, b = b, list(_euclid_divmod(a, b)[1])
    return tuple(c / a[-1] for c in a)


def _euclid_steps(num, den):
    """(quotient, remainder) of every division of Euclid over Fraction."""
    steps = []
    a, b = num, den
    while True:
        q, r = _euclid_divmod(a, b)
        steps.append((q, r))
        if not r:
            return steps
        a, b = b, r


def _all_fractions(*seqs):
    return all(type(c) is Fraction for seq in seqs for c in seq)


@settings(max_examples=100, deadline=None)
@given(a=POLY | st.just(()), b=POLY)
@example(a=(1, 0, 0, 0, 5), b=(3, -2))  # degree gap 3
@example(a=(1, 2), b=(0, 0, 1))  # numerator degree below the denominator's
@example(a=(-4, 0, -6), b=(1, -7))  # negative leading coefficients
@example(a=(1,), b=(49,))
def test_divmod_field_matches_fraction_euclid(a, b):
    q, r = polys.divmod_field(a, b)
    assert (q, r) == _euclid_divmod(a, b)
    assert _all_fractions(q, r)


@settings(max_examples=80, deadline=None)
@given(a=POLY, b=POLY, g=FACTOR | st.just((1,)))
@example(a=(2, 1), b=(-5, 1), g=(1, 1))
@example(a=(1, 0, 1), b=(3,), g=(-2, 0, -3))
def test_gcd_field_matches_fraction_euclid_with_a_planted_factor(a, b, g):
    a, b = polys.mul(a, g), polys.mul(b, g)
    got = polys.gcd_field(a, b)
    assert got == _euclid_gcd(a, b)
    assert _all_fractions(got)
    assert len(got) >= len(g)  # the planted factor divides the gcd
    assert not polys.divmod_field(got, g)[1]


@settings(max_examples=80, deadline=None)
@given(num=POLY, den=POLY, g=FACTOR | st.just((1,)))
@example(num=(7, 56, 112, 64), den=(1, 24, 80, 64), g=(1,))
@example(num=(1,), den=(0, 0, 0, 2), g=(1,))  # quotient 0 first
@example(num=(3, 0, 0, -1), den=(-2, 5), g=(1,))  # gap 2, negative leads
@example(num=(1, 1), den=(2, 1), g=(5, -1))
def test_rational_to_cfe_matches_fraction_euclid(num, den, g):
    tf = make_tf(polys.mul(num, g), polys.mul(den, g))
    reference = _euclid_steps(tf.num, tf.den)
    quotients = rational_to_cfe(tf)
    assert quotients == tuple(q or (Fraction(0),) for q, _ in reference)
    assert _all_fractions(*quotients)
    # a zero quotient is (Fraction(0),), never (): the ladder reads q[0]
    assert all(quotients)
    back = cfe_to_tf(quotients)
    # the expansion cannot carry a shared factor, so only a coprime TF
    # comes back identical
    assert tf_equal(back, tf)
    if len(polys.gcd_field(tf.num, tf.den)) == 1:
        assert back == tf
    # the sequence itself: c*r is Euclid's remainder at every step, with c
    # positive and r a primitive int tuple until r ends empty, after at
    # most deg(den) + 1 steps
    steps = list(polys.euclid(tf.num, tf.den))
    assert [(q, tuple(c * x for x in r)) for q, c, r in steps] == reference
    assert all((c > 0) == bool(r) for _, c, r in steps)
    assert all(type(x) is int for _, _, r in steps for x in r)
    assert all(gcd(*r) == 1 for _, _, r in steps if r)
    assert not steps[-1][2] and len(steps) <= len(tf.den)
