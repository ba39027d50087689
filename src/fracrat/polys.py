"""Univariate polynomial helpers on ascending coefficient sequences.

Coefficients are exact scalars (int, Fraction) or ParamPoly values, and the
ring operations return the ring of their inputs. The zero polynomial is the
empty tuple. Used by the Pade construction, the continued-fraction
expansion, the ladder synthesis and the Carlson iteration.

Division takes exact scalars only and has one implementation, prs_step: a
step of the primitive polynomial remainder sequence (Collins, J. ACM 1967;
von zur Gathen & Gerhard, Modern Computer Algebra, ch. 6) on int
sequences. A rational polynomial is carried as its content (one Fraction)
times a primitive int sequence. The step multiplies the dividend by L, the
lcm of the quotient's denominators, instead of pseudo-dividing by
lc(b)^(d+1). L divides that power and is usually far smaller, which keeps
the integers short: for the order-300 low-band differintegrator at
lam = 37/100, the power made the continued-fraction expansion take 3.9 s
against 0.14 s (CPython 3.11, one core). divmod_field is one step;
gcd_field, approx.rational_to_cfe and approx.pade loop over it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DegenerateMathError
from .exact import ParamPoly, clear_denominators


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


def reverse(coeffs) -> tuple:
    """Reverse coefficient order: s -> 1/s, then times s^(len(coeffs) - 1)."""
    return trim(reversed(tuple(coeffs)))


def primitive(coeffs) -> tuple[Fraction, tuple]:
    """(content, primitive part) of a nonzero exact scalar sequence: a
    positive Fraction c and ints with gcd 1 whose product with c is the
    input."""
    den, ints = clear_denominators(coeffs)
    g = gcd(*ints)
    return Fraction(g, den), tuple(c // g for c in ints)


def prs_step(a, b) -> tuple[tuple, Fraction, tuple]:
    """One step of the primitive remainder sequence: (q, k, r) with
    a = q*b + k*r over the rationals.

    a and b are trimmed primitive int sequences, b nonzero. q, the
    quotient over Q, has Fraction coefficients, read off the top d+1
    coefficients of a and b (d = deg a - deg b). With L the lcm of their
    denominators, L*a - (L*q)*b is an int sequence; r is it divided by its
    content g (empty when it vanishes) and k = g/L. When deg a < deg b,
    q is empty, k is 1 and r is a.
    """
    m = len(b) - 1
    d = len(a) - 1 - m
    if d < 0:
        return (), Fraction(1), a
    lead = b[-1]
    q = [Fraction(0)] * (d + 1)
    for j in range(d, -1, -1):
        acc = a[m + j]
        for i in range(1, min(d - j, m) + 1):
            acc -= q[j + i] * b[m - i]
        q[j] = Fraction(acc, lead)
    big_l, lq = clear_denominators(q)
    r = [big_l * c for c in a[:m]]
    for j, c in enumerate(lq):
        if c:
            for i in range(j, m):
                r[i] -= c * b[i - j]
    while r and not r[-1]:
        r.pop()
    if not r:
        return tuple(q), Fraction(0), ()
    g = gcd(*r)
    return tuple(q), Fraction(g, big_l), tuple(c // g for c in r)


def divmod_field(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of exact scalar (int or Fraction) coefficient
    sequences over the rationals. One primitive remainder step (prs_step,
    multiplier L) on the primitive parts, with the quotient scaled by the
    ratio of the two contents and the remainder by the dividend's content.
    Every output coefficient is a Fraction."""
    a = trim(a)
    b = trim(b)
    if not b:
        raise DegenerateMathError("polynomial division by zero")
    if not a:
        return (), ()
    sa, a = primitive(a)
    sb, b = primitive(b)
    q, k, r = prs_step(a, b)
    ratio = sa / sb
    scale_r = sa * k
    return tuple(ratio * c for c in q), tuple(scale_r * c for c in r)


def gcd_field(a, b) -> tuple:
    """Monic GCD of exact scalar coefficient sequences, with Fraction
    coefficients; (0, 0) is undefined. Runs the primitive remainder
    sequence (prs_step, multiplier L) on the primitive parts: the contents
    do not matter to a monic GCD, so only the int remainders are kept."""
    a = trim(a)
    b = trim(b)
    if not a and not b:
        raise DegenerateMathError("gcd undefined for two zero polynomials")
    a = primitive(a)[1] if a else ()
    b = primitive(b)[1] if b else ()
    while b:
        a, b = b, prs_step(a, b)[2]
    return tuple(Fraction(c, a[-1]) for c in a)


def sequence_content(coeff_sequences) -> Fraction:
    """Positive rational content shared by several coefficient sequences.

    Accepts an iterable of sequences whose entries are Fraction or ParamPoly.
    The content is gcd(numerators)/lcm(denominators) read off the rational
    scalars: each Fraction entry, and every term coefficient of each ParamPoly
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
