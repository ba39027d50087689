"""Univariate polynomial helpers on ascending coefficient sequences.

Coefficients are exact scalars (int, Fraction) or ParamPoly values, and the
ring operations return the ring of their inputs. The zero polynomial is the
empty tuple. Used by the Pade construction, the continued-fraction
expansion, the ladder synthesis and the Carlson iteration.

sequence_content is the one content rule, and primitive divides by it on
ints for make_tf, euclid and approx.cfe_to_tf; only two hot loops divide
by a content of their own, prs_step's remainder and the lazy denominator
of controllers._exponent_pade.

Division takes exact scalars only and has one implementation, euclid: the
remainder sequence, lazily, as the primitive polynomial remainder sequence
(Collins, J. ACM 1967; von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 6) on int sequences, each rational remainder carried as its content
(one Fraction) times a primitive int sequence. Its step, prs_step,
multiplies the dividend by L, a common denominator of the quotient, which
it builds while it forms the quotient on ints, instead of pseudo-dividing
by lc(b)^(d+1). L divides that power and is usually far smaller, which
keeps the integers short: for the order-300 low-band differintegrator at
lam = 37/100, the power made the continued-fraction expansion take 3.9 s
against 0.14 s (CPython 3.11, one core). divmod_field is its first step
and gcd_field its last nonzero remainder; approx.rational_to_cfe and
approx.pade consume it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from .errors import DegenerateMathError
from .exact import ParamPoly, _poly, _ring


def trim(coeffs) -> tuple:
    """Drop trailing (highest-order) zeros."""
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def degree(coeffs) -> int:
    return len(trim(coeffs)) - 1


def add(a, b) -> tuple:
    return trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


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
    """(content, primitive part) of a nonzero sequence of ints, Fractions
    and ParamPolys: sequence_content, and the input divided by it on ints,
    so every scalar entry and term coefficient is an int and their gcd is
    1. At content 1 the entries come back as given, an integral Fraction as
    its int."""
    content = sequence_content([coeffs])
    if content == 1:
        return content, tuple([_ring(c) for c in coeffs])
    g, den = content.numerator, content.denominator

    def part(r):  # r / content
        return r // g if den == 1 else r.numerator * (den // r.denominator) // g

    return content, tuple([
        _poly({key: part(r) for key, r in c.terms.items()}) if isinstance(c, ParamPoly) else part(c)
        for c in coeffs
    ])


def prs_step(a, b) -> tuple[tuple, Fraction, tuple]:
    """One step of the primitive remainder sequence: (q, k, r) with
    a = q*b + k*r over the rationals.

    a and b are trimmed primitive int sequences, b nonzero. q, the
    quotient over Q, has Fraction coefficients, read off the top d+1
    coefficients of a and b (d = deg a - deg b) on ints: each q_j is
    t_j / L with L > 0 one common denominator, and, from j = d down,
    q_j = (a[m+j]*L - sum over i >= 1 of t_(j+i)*b[m-i]) / (L*lc(b)).
    L grows by lc(b)/g, g the gcd of that numerator and lc(b), with the
    earlier t rescaled to match, so it stays near the lcm of the reduced
    denominators, where lc(b)^(d-j+1) would not: dividing by the order-60
    differintegrator's denominator at a degree gap of 60 took 4 ms, against
    28 ms for a Fraction sum per term and 150 ms over the powers (CPython
    3.11, one core). Each q_j is then one Fraction. L*a - t*b is an int
    sequence; r is it divided by its content g (empty when it vanishes)
    and k = g/L. When deg a < deg b, q is empty, k is 1 and r is a.
    """
    m = len(b) - 1
    d = len(a) - 1 - m
    if d < 0:
        return (), Fraction(1), a
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    big_l = 1
    t = [0] * (d + 1)
    for j in range(d, -1, -1):
        acc = a[m + j] * big_l
        for i in range(1, min(d - j, m) + 1):
            acc -= t[j + i] * b[m - i]
        g = sign * gcd(acc, lead)  # lead // g > 0
        if g != lead:
            f = lead // g
            big_l *= f
            for i in range(j + 1, d + 1):
                t[i] *= f
        t[j] = acc // g
    q = tuple(Fraction(c, big_l) for c in t)
    r = [big_l * c for c in a[:m]]
    for j, c in enumerate(t):
        if c:
            for i in range(j, m):
                r[i] -= c * b[i - j]
    while r and not r[-1]:
        r.pop()
    if not r:
        return q, Fraction(0), ()
    g = gcd(*r)
    return q, Fraction(g, big_l), tuple(c // g for c in r)


def euclid(a, b):
    """The Euclidean remainder sequence of exact scalar (int or Fraction)
    sequences a and b over the rationals, lazily: one (q, c, r) per
    division, q the quotient (Fractions) and c*r the remainder, c a
    positive Fraction and r a primitive int tuple, or c = 0 and r = () at
    the last step. A zero a gives ((), 0, ()); a zero b raises
    DegenerateMathError at the first step. The steps are prs_step on the
    primitive parts, with the contents carried alongside."""
    a = trim(a)
    b = trim(b)
    if not b:
        raise DegenerateMathError("polynomial division by zero")
    if not a:
        yield (), Fraction(0), ()
        return
    (sa, a), (sb, b) = primitive(a), primitive(b)
    while True:
        q, k, r = prs_step(a, b)
        ratio, c = sa / sb, sa * k
        yield tuple(ratio * x for x in q), c, r
        if not r:
            return
        a, b, sa, sb = b, r, sb, c


def divmod_field(a, b) -> tuple[tuple, tuple]:
    """Quotient and remainder of exact scalar (int or Fraction) coefficient
    sequences over the rationals: the first step of euclid. Every output
    coefficient is a Fraction."""
    q, c, r = next(euclid(a, b))
    return q, tuple(c * x for x in r)


def gcd_field(a, b) -> tuple:
    """Monic GCD of exact scalar coefficient sequences, with Fraction
    coefficients: the last nonzero remainder of euclid, or the other
    argument when one is zero; (0, 0) is undefined."""
    a = trim(a)
    b = trim(b)
    if not a and not b:
        raise DegenerateMathError("gcd undefined for two zero polynomials")
    g = b or a
    for _, _, r in euclid(a, b) if b else ():
        g = r or g
    return tuple(Fraction(c, g[-1]) for c in g)


def sequence_content(coeff_sequences) -> Fraction:
    """Positive rational content shared by several coefficient sequences.

    Accepts an iterable of sequences whose entries are int, Fraction or
    ParamPoly. The content is gcd(numerators)/lcm(denominators) over the
    rational scalars: each scalar entry, and every term coefficient of each
    ParamPoly entry. All-zero input yields 0.
    """
    scalars = [r for seq in coeff_sequences for c in seq
               for r in (c.terms.values() if isinstance(c, ParamPoly) else (c,))]
    # an int's denominator is 1, and math.lcm has no fast path for it
    dens = [r.denominator for r in scalars if type(r) is not int]
    return Fraction(gcd(*[r.numerator for r in scalars]), lcm(*dens))
