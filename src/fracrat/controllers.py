"""Rational realizations of the four fractional-order controller families.

Each builder accepts exact numeric parameters or leaves them symbolic
(pass None) and produces a normalized TransferFunction; in every family
an omitted parameter becomes the symbol named after its field, one of
exact.SYMBOLS (Kp, lam, mu, x, ...). A spec admits its fields through
one range rule (_require): a set field outside its range is refused by
name, an omitted, symbolic one passes. Every count (the realizations'
order, the Oustaloup depth N, the Carlson iteration count) goes through
one rule (_check_count): a positive int. Irrational scalar prefactors
(Kp^mu, Kc*x^alpha) are carried as opaque gain tags, read off the spec's
fields by those names and never expanded into coefficients. Every family
takes one route: the diagonal Pade approximant of (1 + z)^a on the integers
(_kernel_pade, read off its hypergeometric closed form rather than solved
for; at a = +1 or -1 it is (1 + z)^a itself), one change of variable (a
scalar one by _homogenize, 1/s by reversal in the low band, the
lead-lag's Moebius map before its scalar one), and a single make_tf at
the end. Both kinds of exponent run one integer recurrence
(_exponent_pade): a number p/q as the constant p over q, a symbol as
itself over 1, substituted once at the end.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

from . import polys
from ._value import Value
from .approx import TransferFunction, _gain_tag, make_tf
from .errors import ValidationError
from .exact import ParamPoly, _combine, _powers

_SIGNS = ("integrator", "differentiator")
_RANGES = ("low", "high")


# the exponent of decimal text such as "1e-5" or "2.5E+1_0"
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")

# an error message echoes at most this many characters of a refused input
_ECHO_CHARS = 40


def _echo(value) -> str:
    """A refused input as an error message quotes it: its repr, or, past
    _ECHO_CHARS characters, the repr of its start and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _ECHO_CHARS:
        return repr(value)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def _parse_rat(text: str, name: str) -> int | Fraction:
    """Fraction(text) in value and in the exceptions it raises, as an int
    when text is an optionally signed run of ASCII digits, which int()
    reads without Fraction's regex (and refuses past the int-to-str digit
    cap with the ValueError Fraction raises there). Other text refuses
    first (ValidationError naming `name`) an exponent larger in magnitude
    than that cap, which int() holds the digits to: Fraction builds
    10**|exponent| before any range check. A cap of 0 sets no bound."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isdigit() and digits.isascii():
        return int(text)
    exponent = _EXPONENT.search(text)
    cap = getattr(sys, "get_int_max_str_digits", int)()  # no cap before CPython 3.10.7
    if exponent and cap and abs(int(exponent[1])) > cap:
        raise ValidationError(f"{name} {_echo(text)} has an exponent past {cap} in magnitude")
    return Fraction(text)


def _rat(value, name: str) -> Fraction:
    """Exact scalar from user input, the one door for spec fields, the
    Carlson exponent and CLI flags.

    Takes an int, a Fraction, a float (read as printed: 0.1 is 1/10) or a
    string such as "1/2" or "0.5" (read by _parse_rat). Anything else, a
    malformed string, a zero denominator or a non-finite float raises
    ValidationError naming `name`.
    """
    source = str(value) if isinstance(value, float) else value
    if isinstance(source, (int, Fraction, str)):
        try:
            return Fraction(_parse_rat(source, name) if isinstance(source, str) else source)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"{name} expects a rational number, got {_echo(value)}")


def _rat_or_none(value, name: str) -> Fraction | None:
    return None if value is None else _rat(value, name)


def _require(spec, names: tuple, ok, text: str):
    """The range rule of every spec: the first of the fields `names`, in
    order, that is set and fails `ok` is refused as "<field> <text>". An
    omitted field (None, a symbol) passes."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and not ok(value):
            raise ValidationError(f"{name} {text}")


def _check_count(value, name: str):
    """The count rule: an order, a recursion depth or an iteration count
    is a positive int (bool is an int, so True counts 1)."""
    if not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer")


class Differintegrator(Value):
    """s^(-lam) (integrator) or s^(+lam) (differentiator) to approximate.

    freq_range picks the generating function: "low" expands (1 + 1/s)^lam
    about s = infinity, "high" expands (1 + sT)^(-lam) about s = 0. The low
    band has no time constant, so T must stay 1 there.
    """

    _fields = ("lam", "sign", "freq_range", "T")

    def __init__(
        self,
        lam: Fraction | None,
        sign: str = "integrator",
        freq_range: str = "low",
        T: Fraction = Fraction(1),
    ):
        self._set(_rat_or_none(lam, "lam"), sign, freq_range, _rat(T, "T"))
        if self.sign not in _SIGNS:
            raise ValidationError(f"sign must be one of {_SIGNS}")
        if self.freq_range not in _RANGES:
            raise ValidationError(f"freq_range must be one of {_RANGES}")
        _require(self, ("T",), lambda v: v > 0, "must be positive")
        if self.freq_range == "low" and self.T != 1:
            raise ValidationError(f"T = {self.T} only applies to the high band, not the low one")
        _require(self, ("lam",), lambda v: 0 < v <= 1, "must lie in (0, 1]")


class FOPID(Value):
    """Kp + Ki/s^lam + Kd*s^mu with fractional integro-differential orders."""

    _fields = ("Kp", "Ki", "Kd", "lam", "mu")

    def __init__(
        self,
        Kp: Fraction | None,
        Ki: Fraction | None,
        Kd: Fraction | None,
        lam: Fraction | None,
        mu: Fraction | None,
    ):
        self._set(*map(_rat_or_none, (Kp, Ki, Kd, lam, mu), self._fields))
        _require(self, ("Kp", "Ki", "Kd"), lambda v: v >= 0, "must be non-negative")
        _require(self, ("lam", "mu"), lambda v: 0 < v < 2, "must lie in (0, 2)")


class FOPDBracket(Value):
    """(Kp + Kd*s)^mu, the bracketed fractional-order PD structure."""

    _fields = ("Kp", "Kd", "mu")

    def __init__(self, Kp: Fraction | None, Kd: Fraction | None, mu: Fraction | None):
        self._set(*map(_rat_or_none, (Kp, Kd, mu), self._fields))
        if self.Kp == 0:
            raise ValidationError("not expandable about s=0")
        _require(self, ("Kp", "Kd"), lambda v: v > 0, "must be positive")
        _require(self, ("mu",), lambda v: 0 < v < 2, "must lie in (0, 2)")


class LeadLag(Value):
    """Kc*x^alpha*((1 + lam*s)/(1 + x*lam*s))^alpha with 0 < x <= 1."""

    _fields = ("Kc", "lam", "x", "alpha")

    def __init__(
        self, Kc: Fraction | None, lam: Fraction | None, x: Fraction | None, alpha: Fraction | None
    ):
        self._set(*map(_rat_or_none, (Kc, lam, x, alpha), self._fields))
        _require(self, ("Kc", "lam"), lambda v: v > 0, "must be positive")
        _require(self, ("x",), lambda v: 0 < v <= 1, "must lie in (0, 1]")
        _require(self, ("alpha",), lambda v: 0 <= v <= 1, "must lie in [0, 1]")


def _values_or_symbols(spec) -> tuple:
    """Each field of spec in order: its value, or where that is None (an
    omitted parameter) the symbol of the field's name."""
    return tuple(ParamPoly.var(name) if v is None else v for name, v in vars(spec).items())


def _kernel_pade(a, n: int) -> tuple:
    """(p, q, notes) of the [n/n] Pade approximant of (1 + z)^a on the
    integers (ints, or ParamPolys with int coefficients), p and q of equal
    length. At a = +1 or -1 the kernel is its own approximant, of length 2,
    and its n - 1 unused degrees, the defect approx.pade reports, go in
    the notes. Otherwise p and q come from _exponent_pade: primitive ints
    for an exact scalar a, and for a ParamPoly a int polynomials in the
    exponent, each lifted once at a through the powers a, ..., a^n: n - 1
    products of ParamPolys for the whole kernel, and none of a ParamPoly
    by a Fraction. The lift has content 1 when the terms of a share no
    factor, as for the symbol or negated symbol every family passes;
    make_tf divides any other. At a = 37/100 the numeric kernel takes
    0.26 / 2.4 ms at n = 60 / 300, where the term ratio on Fractions took
    0.72 / 10.1 ms (CPython 3.11, one core).
    """
    if isinstance(a, Fraction) and abs(a) == 1:
        notes = (f"pade-defect={n - 1}",) if n > 1 else ()
        return ((1, 1), (1, 0), notes) if a == 1 else ((1, 0), (1, 1), notes)
    if isinstance(a, ParamPoly):
        powers = _powers(a, n)
        p, q = (
            [c[0] if len(c) == 1 else _combine(c, powers) for c in side]
            for side in _exponent_pade(n)
        )
    else:
        # [] is a zero coefficient, which only an integer 2 <= |a| <= n gives
        p, q = (
            [c[0] if c else 0 for c in side]
            for side in _exponent_pade(n, (a.numerator, 0), a.denominator)
        )
    return p, q, ()


def _exponent_pade(n: int, t: tuple = (0, 1), r: int = 1) -> tuple[list, list]:
    """P and Q of the [n/n] Pade approximant of (1 + z)^a at
    a = (t0 + t1*s)/r, for ints t = (t0, t1) and r > 0: (0, 1) and 1 for
    the symbol s itself, (p, 0) and r for the number p/r. Each coefficient
    is a list of ints, ascending in s, over the least common denominator,
    so P and Q share no content and P(0) = Q(0) > 0.

    Closed form (Baker & Graves-Morris, Pade Approximants, 2nd ed., 1996):
    P(z) = 2F1(-n, -a-n; -2n; -z) and Q(z) = 2F1(-n, a-n; -2n; -z), so
    coefficient k + 1 is coefficient k times (k-n)(r(k-n) -+ t), the upper
    sign for P, over d = r(k+1)(2n-k). Each step divides by the gcd g of d
    and both new coefficients; the earlier ones owe d/g and are scaled once
    at the end. As in polys.prs_step, the denominator grows only where it
    must; for a symbol it is (2n)!/n!. From r^n (2n)!/n! every step would
    divide exactly, but a number then keeps a content: at a = 37/100 and
    n = 300, 1,797 bits of 602 ints of up to 4,789 bits, whose division
    took 11.5 ms after a 2.8 ms recurrence. For an integer a with
    |a| <= n, P and Q share a factor that is not removed here;
    _kernel_pade handles a = +1 and -1 instead.
    """
    t0, t1 = t
    p_side, q_side = [[1]], [[1]]
    owed = []
    for k in range(n):
        u = k - n
        d = r * (k + 1) * (2 * n - k)
        # polys.mul drops the zero s-term of a number's factor
        x = polys.mul(p_side[-1], (u * (r * u - t0), -u * t1))
        y = polys.mul(q_side[-1], (u * (r * u + t0), u * t1))
        g = gcd(d, *x, *y)
        owed.append(d // g)
        p_side.append([c // g for c in x])
        q_side.append([c // g for c in y])
    scale = 1
    for k in range(n - 1, -1, -1):
        scale *= owed[k]
        p_side[k] = [c * scale for c in p_side[k]]
        q_side[k] = [c * scale for c in q_side[k]]
    return p_side, q_side


def _homogenize(coeffs, u, v, n: int) -> tuple:
    """c(z) at z = (u/v)s with v^n cleared: c_k * (u^k * v^(n-k)), for
    len(coeffs) <= n + 1. A numeric u/v is taken in lowest terms, so
    integer c_k stay ints; a symbolic u or v is used as given.
    """
    if not isinstance(u, ParamPoly) and not isinstance(v, ParamPoly):
        r = Fraction(u, v)
        u, v = r.numerator, r.denominator
    pu, pv = _powers(u, n), _powers(v, n)
    return tuple(c * (pu[k] * pv[n - k]) for k, c in enumerate(coeffs))


def _integrator(lam, freq_range: str, order: int) -> tuple:
    """Unnormalized (num, den, notes) of the [order/order] realization of
    s^(-lam), lam exact or a ParamPoly: the kernel of (1 + v)^lam at
    v = 1/s with s^n cleared, which reverses p and q (low band), or of
    (1 + z)^(-lam) as it is, at z = s and so T = 1 (high band). No range
    check: the differintegrator takes lam in (0,1], the FOPID assembly (0,2).
    """
    if freq_range == "high":
        return _kernel_pade(-lam, order)
    p, q, notes = _kernel_pade(lam, order)
    return polys.reverse(p), polys.reverse(q), notes


def realize_differintegrator(spec: Differintegrator, order: int) -> TransferFunction:
    """[n/n] realization of the differintegrator, numeric or symbolic in lam.

    Built from the closed-form Pade approximant of the band's binomial
    kernel (see _integrator) at the spec's band, at z = sT by _homogenize
    when T != 1, with num and den swapped for the differentiator and one
    make_tf. At lam = 1 the kernel is its own approximant, so the result
    is (s+1)/s or 1/(1+sT) at every order, noted pade-defect=n-1 for
    n >= 2. With lam None, coefficient k of the kernel's approximant is a
    degree-k polynomial in the symbol lam, read off the closed form without
    a symbolic linear solve; orders beyond 5 work but are noted
    beyond-validated-order.
    """
    _check_count(order, "order")
    lam, sign, freq_range, T = _values_or_symbols(spec)
    num, den, notes = _integrator(lam, freq_range, order)
    if T != 1:
        num, den = (_homogenize(c, T, 1, order) for c in (num, den))
    if sign == "differentiator":
        num, den = den, num
    if spec.lam is None and order > 5:
        notes += ("beyond-validated-order",)
    return make_tf(num, den, notes=notes)


def symbolic_differintegrator(
    freq_range: str, order: int, sign: str = "integrator"
) -> TransferFunction:
    """The differintegrator symbolic in lam at T = 1: the same form as
    realize_differintegrator(Differintegrator(None, sign, freq_range), order).
    """
    return realize_differintegrator(Differintegrator(None, sign, freq_range), order)


def realize_fopid(spec: FOPID, freq_range: str, order: int) -> TransferFunction:
    """Kp + Ki*Q_int(lam) + Kd*Q_diff(mu) over the common denominator.

    Q_int is the [n/n] integrator at lam and Q_diff the one at mu with num
    and den swapped, both unnormalized from _integrator; make_tf normalizes
    once. The result has degree 2n (less when a zero gain drops a branch).
    Each branch's Pade notes (an integer order reports its defect) carry
    over prefixed "int:" or "diff:".
    """
    _check_count(order, "order")
    if freq_range not in _RANGES:
        raise ValidationError(f"freq_range must be one of {_RANGES}")
    kp, ki, kd, lam, mu = _values_or_symbols(spec)
    with_i = spec.Ki is None or spec.Ki != 0
    with_d = spec.Kd is None or spec.Kd != 0
    num: tuple = ()
    den: tuple = (1,)
    notes: tuple = ()
    if with_i:
        i_num, den, i_notes = _integrator(lam, freq_range, order)
        num = polys.scale(i_num, ki)
        notes += tuple(f"int:{note}" for note in i_notes)
    if with_d:
        d_den, d_num, d_notes = _integrator(mu, freq_range, order)
        num = polys.add(polys.mul(num, d_den), polys.scale(polys.mul(d_num, den), kd))
        den = polys.mul(den, d_den)
        notes += tuple(f"diff:{note}" for note in d_notes)
    num = polys.add(num, polys.scale(den, kp))
    return make_tf(num, den, notes=notes)


def realize_fopd_bracket(spec: FOPDBracket, order: int) -> TransferFunction:
    """[n/n]-based realization of (Kp + Kd*s)^mu.

    mu splits into integer and fractional parts. The fractional part is the
    kernel approximant of (1 + t)^frac (see _kernel_pade) at t = (Kd/Kp)s,
    homogenized in Kp and Kd; numeric gains are the same construction
    evaluated at their values, and make_tf divides out the scalar this
    leaves. The integer part is an exact factor Kp + Kd*s. The scalar
    Kp^mu stays rational only for integer mu; otherwise it rides along as
    a gain tag.
    """
    _check_count(order, "order")
    kp, kd, mu = _values_or_symbols(spec)
    # mu in (0,2) splits at its floor, 0 or 1; a symbolic mu is treated as
    # purely fractional, since the split needs a numeric value
    mu_int = 0 if spec.mu is None else int(spec.mu)
    exponent = mu - mu_int
    if exponent == 0:
        # mu = 1: plain polynomial, no irrational prefactor
        return make_tf((kp, kd), (1,))
    p, q, _ = _kernel_pade(exponent, order)
    num = _homogenize(p, kd, kp, order)
    den = _homogenize(q, kd, kp, order)
    if mu_int:
        num = polys.mul(num, (kp, kd))
        den = polys.scale(den, kp)
    gain = _gain_tag("Kp^mu", vars(spec))
    return make_tf(num, den, gain=gain)


def realize_leadlag(spec: LeadLag, order: int) -> TransferFunction:
    """[n/n] realization of the fractional lead-lag compensator.

    The kernel ((1+w)/(1+x*w))^alpha equals (1+u)^alpha with
    u = (1-x)w/(1+x*w), and diagonal Pade approximants are covariant under
    that Moebius map: with p, q the closed-form [n/n] coefficients of
    (1+u)^alpha, the numerator is sum_k p_k (1-x)^k w^k (1+x*w)^(n-k) and
    the denominator the same with q_k. At alpha = 1 the kernel
    (1+w)/(1+x*w) is its own approximant; it comes out of the same map from
    (1+u)/1 and is noted pade-defect=n-1 for n >= 2. p and q come from
    _kernel_pade on the integers, and the map clears the denominator of a
    numeric x, so every Moebius product runs on ints; then w = lam*s goes
    through _homogenize, and make_tf normalizes once.
    The value at s = 0 is Kc*x^alpha, carried as a gain tag whose value is
    the float formula once Kc, x and alpha are all numbers, even where the
    product is rational (Kc = 2, x = 1/20, alpha = 1 gives the value 0.1).
    At alpha = 0 or x = 1 the kernel is 1, so the compensator is 1/1 under
    the same tag, whose value is then Kc: the form symbolic-then-substitute
    gives at those values.
    """
    _check_count(order, "order")
    _, lam, x, alpha = _values_or_symbols(spec)
    gain = _gain_tag("Kc*x^alpha", vars(spec))
    degenerate = (spec.alpha is not None and spec.alpha == 0) or (
        spec.x is not None and spec.x == 1
    )
    if degenerate:
        return make_tf((1,), (1,), gain=gain)
    p, q, notes = _kernel_pade(alpha, order)
    num, den = (_homogenize(_moebius(c, x), lam, 1, order) for c in (p, q))
    return make_tf(num, den, gain=gain, notes=notes)


def _moebius(coeffs, x) -> tuple:
    """b^n sum_k c_k (1-x)^k w^k (1+x*w)^(n-k), n = len(coeffs) - 1, where
    x = a/b in lowest terms (a = x, b = 1 for a symbolic x).

    Built by S_k = S_(k-1) * (b + a*w) + c_k (b-a)^k w^k. The scale b^n is
    the same for every coefficient list of one x, so a ratio of two maps is
    unchanged, and integer c_k keep every product on ints.
    """
    a, b = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    out: tuple = ()
    power = 1
    for k, c in enumerate(coeffs):
        out = polys.add(polys.mul(out, (b, a)), (0,) * k + (c * power,))
        power = power * (b - a)
    return out
