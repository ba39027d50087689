"""Truncated formal power series with exact rational coefficients.

Generates the series that the generic Pade construction consumes: the
generalized binomial power (1 + t)^a and the lead-lag kernel
((1 + w)/(1 + x w))^a = (1 + w)^a (1 + x w)^(-a), a product of two of them.
The controller realizations read their approximants off closed forms
instead; these series are the reference those closed forms are checked
against. Parameters and coefficients are exact scalars (Fraction); a
parameter enters through exact._coerce_rat, so a float, a symbol name or
a ParamPoly raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
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


def leadlag_kernel_series(alpha, x, n: int) -> PowerSeries:
    """Series of ((1 + w)/(1 + x*w))^alpha in w through order n.

    Built as the truncated product of (1 + w)^alpha and (1 + x*w)^(-alpha),
    the binomial series of -alpha with coefficient k scaled by x^k.
    """
    lead = binomial_series(alpha, n).coeffs
    xv = _coerce_rat(x)
    lag = [c * xv**k for k, c in enumerate(binomial_series(-_coerce_rat(alpha), n).coeffs)]
    product = polys.mul(lead, lag)[: n + 1]
    return PowerSeries(product + (Fraction(0),) * (n + 1 - len(product)))
