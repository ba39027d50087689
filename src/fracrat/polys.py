"""Univariate polynomial helpers on ascending coefficient sequences.

Coefficients are exact scalars (int, BigRat) or ParamPoly values, and the
ring operations return the ring of their inputs. Division and the GCD take
exact scalars only and work over the rationals. The zero polynomial is the
empty tuple. Used by the Pade construction, the continued-fraction
expansion, the ladder synthesis and the Carlson iteration.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateMathError
from .exact import ParamPoly


def trim(coeffs) -> tuple:
    """Drop trailing (highest-order) zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def degree(coeffs) -> int:
    return len(trim(coeffs)) - 1


def add(a, b) -> tuple:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return trim(out)


def mul(a, b) -> tuple:
    a = trim(a)
    b = trim(b)
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def scale(a, factor) -> tuple:
    return trim(tuple(c * factor for c in a))


def reverse(coeffs, length: int | None = None) -> tuple:
    """Reverse coefficient order, padding with zeros up to `length` first.

    Realizes the substitution s -> 1/s followed by clearing denominators.
    """
    coeffs = list(coeffs)
    if length is not None:
        if length < len(coeffs):
            raise ValueError("length shorter than the coefficient sequence")
        coeffs += [Fraction(0)] * (length - len(coeffs))
    return trim(reversed(coeffs))


def divmod_field(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of exact scalar (int or BigRat) coefficient
    sequences. Every quotient coefficient is a BigRat, so int input never
    turns into floats."""
    a = list(trim(a))
    b = trim(b)
    if not b:
        raise DegenerateMathError("polynomial division by zero")
    lead = b[-1] if isinstance(b[-1], Fraction) else Fraction(b[-1])
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = a[-1] / lead
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] = a[shift + i] - factor * c
        while a and not a[-1]:
            a.pop()
    return trim(q), trim(a)


def gcd_field(a, b) -> tuple:
    """Monic GCD of exact scalar coefficient sequences, with BigRat
    coefficients; (0, 0) is undefined."""
    a = trim(a)
    b = trim(b)
    if not a and not b:
        raise DegenerateMathError("gcd undefined for two zero polynomials")
    while b:
        a, b = b, divmod_field(a, b)[1]
    return scale(a, Fraction(1) / a[-1])


def sequence_content(coeff_sequences) -> Fraction:
    """Positive rational content shared by several coefficient sequences.

    Accepts an iterable of sequences whose entries are BigRat or ParamPoly.
    The content is gcd(numerators)/lcm(denominators) read off the rational
    scalars: each BigRat entry, and every term coefficient of each ParamPoly
    entry. All-zero input yields 0.
    """
    num_gcd = 0
    den_lcm = 1
    for seq in coeff_sequences:
        for c in seq:
            for r in c.terms.values() if isinstance(c, ParamPoly) else (c,):
                num_gcd = gcd(num_gcd, r.numerator)
                den_lcm = den_lcm * r.denominator // gcd(den_lcm, r.denominator)
    return Fraction(num_gcd, den_lcm)
