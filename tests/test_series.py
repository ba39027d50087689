"""Truncated power series: the binomial and lead-lag kernel generators, the
reference series that the closed-form approximants are tested against."""

import random
from fractions import Fraction

import pytest

from fracrat import ParamPoly, PowerSeries, ValidationError, binomial_series
from fracrat.series import leadlag_kernel_series


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
    # a negative order is refused before any coefficient is built
    for build in (lambda: binomial_series(Fraction(1, 2), -1),
                  lambda: leadlag_kernel_series(Fraction(1, 2), Fraction(1, 3), -1)):
        with pytest.raises(ValidationError, match="^series order must be non-negative$"):
            build()


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
    # series are numeric only: a symbolic exponent is refused, in any form
    for exponent in ("lam", ParamPoly.var("lam"), 0.5):
        with pytest.raises(TypeError):
            binomial_series(exponent, 3)
    with pytest.raises(TypeError):
        leadlag_kernel_series(Fraction(1, 2), "x", 3)
    # integer exponents give exact coefficients
    assert binomial_series(-1, 3).coeffs == (1, -1, 1, -1)
    assert all(type(c) is Fraction for c in binomial_series(2, 3).coeffs)


def test_binomial_reciprocal_pair_multiplies_to_one():
    rng = random.Random(23)
    for _ in range(30):
        a = Fraction(rng.randint(-8, 8), rng.randint(1, 9))
        prod = _truncated_product(binomial_series(a, 6), binomial_series(-a, 6))
        assert prod == (Fraction(1),) + (Fraction(0),) * 6


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


def test_leadlag_kernel_solves_its_differential_equation():
    # f = ((1+w)/(1+x*w))^alpha has f'/f = alpha*(1-x)/((1+w)(1+x*w)), so
    # (1 + (1+x)w + x*w^2) f' = alpha*(1-x) f, read coefficient by coefficient
    # through order n - 1 (f' is known through order n - 1)
    rng = random.Random(53)
    n = 8
    for _ in range(20):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        f = leadlag_kernel_series(alpha, x, n).coeffs
        assert f[0] == 1
        df = [(k + 1) * f[k + 1] for k in range(n)]
        for k in range(n):
            lhs = df[k] + (1 + x) * (df[k - 1] if k >= 1 else 0) + x * (df[k - 2] if k >= 2 else 0)
            assert lhs == alpha * (1 - x) * f[k], (alpha, x, k)


def test_leadlag_kernel_degenerate_values():
    # x = 1 makes the kernel 1, and alpha = 0 does too
    for alpha, x in ((Fraction(1, 2), 1), (0, Fraction(1, 5))):
        flat = leadlag_kernel_series(alpha, x, 4)
        assert flat.coeffs == (1, 0, 0, 0, 0)
    # x = 0 leaves the lead alone: (1 + w)^alpha
    assert leadlag_kernel_series(Fraction(1, 2), 0, 4) == binomial_series(Fraction(1, 2), 4)
