"""Truncated power series: the binomial, exp and lead-lag kernel generators."""

import random
from fractions import Fraction

import pytest

from fracrat import ParamPoly, PowerSeries, ValidationError, binomial_series
from fracrat.series import exp_series, leadlag_kernel_series


def _truncated_product(a: PowerSeries, b: PowerSeries) -> tuple:
    return tuple(
        sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(a))
    )


def test_series_keeps_trailing_zeros():
    s = PowerSeries((Fraction(1), Fraction(0), Fraction(0)))
    assert s.truncation_order == 2
    assert len(s) == 3
    assert s[2] == 0
    with pytest.raises(ValidationError):
        PowerSeries(())


def test_square_root_series_coefficients():
    s = binomial_series(Fraction(1, 2), 4)
    assert s.coeffs == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 8),
        Fraction(1, 16),
        Fraction(-5, 128),
    )


def test_binomial_series_with_symbolic_exponent():
    lam = ParamPoly.var("lam")
    s = binomial_series("lam", 3)
    assert s[1] == lam
    assert s[2] * 2 == lam**2 - lam
    assert s[3] * 6 == lam * (lam - 1) * (lam - 2)
    # a ParamPoly exponent works the same way
    assert binomial_series(-lam, 3)[1] == -lam


def test_binomial_reciprocal_pair_multiplies_to_one():
    rng = random.Random(23)
    for _ in range(30):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        prod = _truncated_product(binomial_series(a, 6), binomial_series(-a, 6))
        assert prod == (Fraction(1),) + (Fraction(0),) * 6


def test_exp_series_coefficients():
    e = exp_series(5)
    assert e[3] == Fraction(1, 6)
    assert e[5] == Fraction(1, 120)


def test_leadlag_kernel_matches_direct_product():
    # ((1+w)/(1+x*w))^alpha == (1+w)^alpha * (1 + x*w)^(-alpha)
    rng = random.Random(47)
    n = 6
    for _ in range(20):
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(1, 9), 10)
        lead = binomial_series(alpha, n)
        lag = binomial_series(-alpha, n)
        lag_scaled = PowerSeries(tuple(c * x**k for k, c in enumerate(lag.coeffs)))
        want = _truncated_product(lead, lag_scaled)
        got = leadlag_kernel_series(alpha, x, n)
        assert got.coeffs == want


def test_leadlag_kernel_symbolic_specializes():
    sym = leadlag_kernel_series("alpha", "x", 4)
    num = sym.substitute({"alpha": Fraction(1, 2), "x": Fraction(1, 5)})
    want = leadlag_kernel_series(Fraction(1, 2), Fraction(1, 5), 4)
    assert num.coeffs == want.coeffs
    # degenerate x = 1 kills every non-constant coefficient
    flat = sym.substitute({"x": 1})
    assert all(
        c.is_zero() if isinstance(c, ParamPoly) else c == 0 for c in flat.coeffs[1:]
    )
