"""Truncated formal power series with exact rational coefficients.

Generates the series that the generic Pade construction consumes: the
generalized binomial power (1 + t)^a and the lead-lag kernel
((1 + w)/(1 + x w))^a, each coefficient from the ones before it.
The controller realizations read their approximants off closed forms
instead; these series are the reference those closed forms are checked
against. Parameters and coefficients are exact scalars (Fraction); a
parameter enters through exact._coerce_rat, so a float, a symbol name or
a ParamPoly raises TypeError.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .errors import ValidationError
from .exact import _coerce_rat


class PowerSeries(Value):
    """Coefficients c0..cn of a series truncated at an explicit order.

    Trailing zeros are kept: the truncation order is part of the value, not
    inferred from the data.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        if not coeffs:
            raise ValidationError("a series needs at least the constant term")
        self._set(tuple(coeffs))

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __len__(self):
        return len(self.coeffs)


def binomial_series(exponent, n: int) -> PowerSeries:
    """Series of (1 + t)^exponent through order n.

    The exponent is an exact scalar; coefficient k is the generalized
    binomial coefficient.
    """
    if n < 0:
        raise ValidationError("series order must be non-negative")
    a = _coerce_rat(exponent)
    coeffs = [Fraction(1)]
    term = coeffs[0]
    for k in range(1, n + 1):
        term = term * (a - (k - 1)) / k
        coeffs.append(term)
    return PowerSeries(tuple(coeffs))


def leadlag_kernel_series(alpha, x, n: int) -> PowerSeries:
    """Series of f(w) = ((1 + w)/(1 + x*w))^alpha in w through order n.

    f'/f = alpha*(1 - x)/((1 + w)(1 + x*w)), so (1 + (1 + x)w + x*w^2) f' =
    alpha*(1 - x) f, whose coefficient of w^k gives the recurrence
    c_(k+1) = ((alpha*(1 - x) - (1 + x)*k)*c_k - x*(k - 1)*c_(k-1)) / (k + 1)
    from c_0 = 1: O(n) operations, where the truncated product of the two
    binomial series takes O(n^2).
    """
    if n < 0:
        raise ValidationError("series order must be non-negative")
    a = _coerce_rat(alpha)
    xv = _coerce_rat(x)
    rate = a * (1 - xv)
    coeffs = [Fraction(1)]
    for k in range(n):
        before = coeffs[k - 1] if k else 0
        coeffs.append(((rate - (1 + xv) * k) * coeffs[k] - xv * (k - 1) * before) / (k + 1))
    return PowerSeries(tuple(coeffs))
