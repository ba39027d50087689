"""Truncated formal power series with exact rational coefficients.

Generates the series that the generic Pade construction consumes: the
generalized binomial power (1 + t)^a, exp(t), and the lead-lag kernel
((1 + w)/(1 + x w))^a, the last built as exp(a*(log(1+w) - log(1+x*w))).
The controller realizations read their approximants off closed forms
instead; these series are the reference those closed forms are checked
against. Parameters and coefficients are exact scalars (BigRat); a
parameter enters through exact._coerce_rat, so a float, a symbol name or
a ParamPoly raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .exact import _coerce_rat


@dataclass(frozen=True)
class PowerSeries:
    """Coefficients c0..cn of a series truncated at an explicit order.

    Trailing zeros are kept: the truncation order is part of the value, not
    inferred from the data.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValidationError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

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


def exp_series(n: int) -> PowerSeries:
    """Series of exp(t): coefficient k is 1/k!."""
    if n < 0:
        raise ValidationError("series order must be non-negative")
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] / k)
    return PowerSeries(tuple(coeffs))


def _scalar_exp_recurrence(u_coeffs, n: int):
    """exp of a series with zero constant term, via k*e_k = sum j*u_j*e_{k-j}."""
    e = [Fraction(1)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc = acc + j * u_coeffs[j] * e[k - j]
        e.append(acc / k)
    return e


def leadlag_kernel_series(alpha, x, n: int) -> PowerSeries:
    """Series of ((1 + w)/(1 + x*w))^alpha in w through order n.

    Built as exp(alpha * (log(1+w) - log(1+x*w))); the log difference has
    coefficient (-1)^(k+1) (1 - x^k)/k.
    """
    if n < 0:
        raise ValidationError("series order must be non-negative")
    a = _coerce_rat(alpha)
    xv = _coerce_rat(x)
    u = [Fraction(0)]
    xpow = xv
    for k in range(1, n + 1):
        u.append(a * Fraction((-1) ** (k + 1), k) * (1 - xpow))
        xpow = xpow * xv
    return PowerSeries(tuple(_scalar_exp_recurrence(u, n)))
