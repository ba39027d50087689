"""The closed-form hypergeometric Pade construction, checked against the
generic numeric Pade (approx.pade) and against mpmath's Pade at 50 digits."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracrat import binomial_series, leadlag_kernel_series, make_tf, pade  # noqa: E402
from fracrat.controllers import _binomial_pade, _moebius  # noqa: E402

# |a| < 30; at an integer a with |a| <= n the closed form keeps a factor
# shared by P and Q, so integer exponents are not drawn
NON_INTEGER = st.fractions(min_value=-30, max_value=30, max_denominator=60).filter(
    lambda a: a.denominator != 1
)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=40)


@settings(max_examples=60, deadline=None)
@given(a=NON_INTEGER, n=st.integers(min_value=1, max_value=12))
def test_binomial_closed_form_matches_generic_pade(a, n):
    p, q = _binomial_pade(a, n)
    closed = make_tf(p, q)
    generic = pade(binomial_series(a, 2 * n), n, n)
    assert (closed.num, closed.den, closed.notes) == (generic.num, generic.den, generic.notes)


@settings(max_examples=40, deadline=None)
@given(
    alpha=UNIT.filter(lambda a: 0 < a < 1),
    x=UNIT.filter(lambda x: 0 < x < 1),
    n=st.integers(min_value=1, max_value=6),
)
def test_leadlag_moebius_covariance_matches_generic_pade(alpha, x, n):
    p, q = _binomial_pade(alpha, n)
    closed = make_tf(_moebius(p, x), _moebius(q, x))
    generic = pade(leadlag_kernel_series(alpha, x, 2 * n), n, n)
    assert (closed.num, closed.den, closed.notes) == (generic.num, generic.den, generic.notes)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(37, 100), Fraction(-3, 7), Fraction(-71, 3)])
@pytest.mark.parametrize("n", [1, 5, 12, 20])
def test_binomial_closed_form_against_mpmath(a, n):
    mpmath = pytest.importorskip("mpmath")

    def mp(value: Fraction):
        return mpmath.mpf(value.numerator) / value.denominator

    with mpmath.workdps(50):
        taylor = [mpmath.binomial(mp(a), k) for k in range(2 * n + 1)]
        want_p, want_q = mpmath.pade(taylor, n, n)
        p, q = _binomial_pade(a, n)
        assert want_q[0] == 1 and q[0] == 1
        scale = max(abs(mp(c)) for c in p + q)
        for want, got in ((want_p, p), (want_q, q)):
            assert len(want) == len(got) == n + 1
            for w, g in zip(want, got):
                # the 50-digit solve loses up to ~30 digits at n = 20
                assert abs(w - mp(g)) <= mpmath.mpf("1e-15") * scale
