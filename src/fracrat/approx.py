"""Pade approximants and continued-fraction expansions of rational functions.

The Pade direction turns a truncated numeric power series into an [m/k]
rational approximant by the extended Euclidean algorithm on it and a power
of z; the inverse direction expands a rational function into a simple
continued fraction, the quotients of Euclid on its numerator and
denominator, which is what ladder synthesis consumes. Both consume the one
remainder sequence of polys (euclid). The controller approximants come
from closed forms instead (controllers._kernel_pade). The TransferFunction
type both directions produce lives here too, with make_tf, which reads its
ring off the coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from . import polys
from ._value import Value
from .errors import DegenerateMathError, ValidationError
from .exact import (
    ParamPoly, _coerce_rat, _monomial, _product, _signed_sum, _substitute, clear_denominators,
)
from .series import PowerSeries


class GainTag(Value):
    """Scalar prefactor that is not rational in the tuning parameters.

    `label` is the closed form (e.g. "Kp^mu"); `value` its numeric value
    when the parameters are numeric, None when they stay symbolic. `fixed`
    holds the (name, value) pairs of the label's parameters that were
    numbers when the TF was realized, which TransferFunction.substitute
    needs to compute the value later; None means they are not known (a tag
    read from a document or built by hand), and substitute leaves the tag
    as it is.
    """

    _fields = ("label", "value", "fixed")
    _compared = ("label", "value")

    def __init__(self, label: str, value: float | None = None, fixed: tuple | None = None):
        self._set(label, value, fixed)


#: label -> (parameter names, float formula): the one place a gain tag's
#: value is computed, by the realizations and by substitute alike.
_GAIN_FORMULAS = {
    "Kp^mu": (("Kp", "mu"), lambda kp, mu: kp**mu),
    "Kc*x^alpha": (("Kc", "x", "alpha"), lambda kc, x, alpha: kc * x**alpha),
}


def _gain_tag(label: str, values: dict) -> GainTag:
    """The tag `label` given its parameters' values (None, or absent, where
    one stays symbolic). It records the exact scalars among them, and its
    value is set once every parameter has one and the formula gives a
    finite real number (a negative base under a fractional exponent does
    not)."""
    names, formula = _GAIN_FORMULAS[label]
    fixed = tuple(
        (name, values[name]) for name in names if isinstance(values.get(name), (int, Fraction))
    )
    value = None
    if len(fixed) == len(names):
        try:
            value = formula(*(float(v) for _, v in fixed))
        except (ZeroDivisionError, OverflowError):
            pass
        if not (isinstance(value, float) and isfinite(value)):
            value = None
    return GainTag(label, value, fixed)


class TransferFunction(Value):
    """Rational function of s with exact or float coefficients.

    num and den hold ascending-power coefficient tuples: the entry at index
    k is the coefficient of s^k, so s never appears as a symbol. The ring
    is read off the coefficients by make_tf and recorded for readers of the
    TF: "float" if any coefficient is a float (baselines only), else
    "symbolic" if any is a ParamPoly in the tuning parameters, else
    "rational". make_tf leaves every rational-ring coefficient, and every
    scalar entry of a symbolic-ring TF, an int. An optional GainTag carries
    an irrational scalar prefactor. Notes record construction caveats (Pade
    defects and the like) and do not take part in equality.
    """

    _fields = ("num", "den", "ring", "gain", "notes")
    _compared = ("num", "den", "ring", "gain")

    def __init__(
        self, num: tuple, den: tuple, ring: str, gain: GainTag | None = None, notes: tuple = ()
    ):
        self._set(num, den, ring, gain, notes)

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def reciprocal(self) -> "TransferFunction":
        if self.gain is not None:
            raise ValidationError("cannot invert past an opaque gain tag")
        return make_tf(self.den, self.num, notes=self.notes)

    def substitute(self, mapping: dict) -> "TransferFunction":
        """Substitute symbols in every coefficient and renormalize.

        Every coefficient, rational ones too, goes through one `_substitute`
        call, which builds each symbol's powers once for the whole TF and
        checks the mapping as ParamPoly.substitute does. When every
        coefficient comes out rational, a common factor in s (left by a
        degenerate value such as an integer exponent) is cancelled, as the
        numeric path does. A gain tag from a realization
        gets its value once the mapping and the parameters fixed at
        realization give every parameter of its label a number, from the
        formula the realizations use; a mapping that gives a fixed
        parameter another value raises ValidationError.
        """
        if self.ring == "float":
            raise ValidationError("float coefficients have no symbols")

        lifted = [ParamPoly._lift(c) for c in self.num + self.den]
        coeffs = [_coerce_exact(c) for c in _substitute(lifted, mapping)]
        num, den = coeffs[: len(self.num)], coeffs[len(self.num):]
        if not any(isinstance(c, ParamPoly) for c in coeffs):
            num, den = _cancel_common_factor(num, den)
        gain = self.gain
        if gain is not None and gain.fixed is not None and gain.label in _GAIN_FORMULAS:
            fixed = dict(gain.fixed)
            for name, value in fixed.items():
                if name in mapping and mapping[name] != value:
                    raise ValidationError(
                        f"{name} = {mapping[name]} contradicts the {name} = {value}"
                        " this TF was realized with"
                    )
            gain = _gain_tag(gain.label, {**mapping, **fixed})
        return make_tf(num, den, gain=gain, notes=self.notes)

    def __str__(self):
        """Descending powers of s. A coefficient whose (leading) sign is
        negative is subtracted, a symbolic one is parenthesized, and a unit
        coefficient of a power of s is left out."""

        def term(c, p):
            negative = _negative(c)
            c = -c if negative else c
            text = f"({c})" if isinstance(c, ParamPoly) else str(c)
            return negative, _product(text, _monomial(("s",), (p,)), c == 1)

        def side(coeffs):
            return _signed_sum(term(c, p) for p, c in reversed(tuple(enumerate(coeffs))) if c)

        text = f"({side(self.num)}) / ({side(self.den)})"
        if self.gain is not None:
            text = f"{self.gain.label} * {text}"
        return text


def _negative(c) -> bool:
    """A TF coefficient's sign: a scalar's own, a ParamPoly's grlex-leading coefficient's."""
    return (c.leading_coeff() if isinstance(c, ParamPoly) else c) < 0


def _coerce_exact(c):
    """A TF coefficient: floats, ints, Fractions and non-constant ParamPolys
    as given, a constant ParamPoly as its Fraction value, anything else
    (a bool, another int subclass) through _coerce_rat."""
    if isinstance(c, (float, Fraction)) or type(c) is int:
        return c
    if isinstance(c, ParamPoly):
        return c.constant_value() if c.is_constant() else c
    return _coerce_rat(c)


def _detect_ring(coeffs) -> str:
    has_float = any(isinstance(c, float) for c in coeffs)
    has_symbol = any(isinstance(c, ParamPoly) for c in coeffs)
    if has_float and has_symbol:
        raise ValidationError("float and symbolic coefficients cannot share a TF")
    return "float" if has_float else "symbolic" if has_symbol else "rational"


def make_tf(num, den, gain=None, notes=()) -> TransferFunction:
    """Build a normalized TransferFunction.

    The ring is read off the coefficients (see TransferFunction): one float
    makes the whole TF float, and a float beside a ParamPoly raises
    ValidationError. Exact rings are scaled to collectively integer-primitive
    coefficients with a positive leading denominator coefficient, and their
    zero TF is the rational (0)/(1); the float ring is only trimmed. A
    zero denominator is rejected. Both exact rings take one
    polys.primitive of num and den together, so every scalar entry and
    every ParamPoly term coefficient comes out an int.
    """
    num = [_coerce_exact(c) for c in num]
    den = [_coerce_exact(c) for c in den]
    den = list(polys.trim(den))
    if not den:
        raise DegenerateMathError("zero denominator")
    num = list(polys.trim(num))
    ring = _detect_ring(num + den)
    if ring == "float":
        return TransferFunction(
            tuple(float(c) for c in num) or (0.0,),
            tuple(float(c) for c in den),
            "float",
            gain,
            tuple(notes),
        )
    if not num:
        return TransferFunction((0,), (1,), "rational", gain, tuple(notes))
    coeffs = polys.primitive(num + den)[1]
    if _negative(coeffs[-1]):
        coeffs = [-c for c in coeffs]
    return TransferFunction(
        tuple(coeffs[: len(num)]), tuple(coeffs[len(num):]), ring, gain, tuple(notes)
    )


def tf_equal(a: TransferFunction, b: TransferFunction) -> bool:
    """Rational-function equality by cross-multiplication (exact rings):
    a.num * b.den == b.num * a.den as polynomials in s.

    Gain tags are ignored; compare them separately when they matter.
    """
    if a.ring == "float" or b.ring == "float":
        raise ValidationError("float coefficients have no exact equality")
    return polys.mul(a.num, b.den) == polys.mul(b.num, a.den)


def pade(series: PowerSeries, m: int, k: int) -> TransferFunction:
    """[m/k] Pade approximant of a truncated series with exact numeric
    coefficients.

    The extended Euclidean algorithm on z^(m+k+1) and the series truncated
    there (Brent, Gustavson & Yun, J. Algorithms 1, 1980) consumes
    polys.euclid, keeps cofactors t with r = t*series mod z^(m+k+1) and
    stops at the first remainder r of degree <= m, where deg t <= k; the
    remainder's content is multiplied in there, once.
    If t(0) = 0, every denominator matching the series through order
    m + k vanishes at the expansion point, so no [m/k] approximant exists
    and DegenerateMathError is raised. Otherwise r/t is the approximant,
    already coprime: a common factor divides z^(m+k+1), and t(0) != 0. Its
    defect, min(m - deg r, k - deg t), or k - deg t when r = 0, goes in
    the notes. A symbolic coefficient raises ValidationError, a float one
    TypeError.

    This is the general route for an arbitrary series, and the reference
    the controller realizations are tested against. They do not take it:
    their binomial and lead-lag kernels have closed-form diagonal
    approximants (controllers._kernel_pade), one int recurrence for a
    numeric or a symbolic exponent (controllers._exponent_pade).
    """
    if m < 0 or k < 0:
        raise ValidationError("Pade degrees must be non-negative")
    if series.truncation_order < m + k:
        raise ValidationError(
            f"series order {series.truncation_order} is below m+k = {m + k}"
        )
    c = [_coerce_exact(v) for v in series.coeffs]
    if any(isinstance(v, ParamPoly) for v in c):
        raise ValidationError("pade needs numeric coefficients; substitute the symbols first")
    c = [_coerce_rat(v) for v in c]
    r = polys.trim(c[: m + k + 1])
    steps = polys.euclid((0,) * (m + k + 1) + (1,), r)
    content, t0, t = 1, (), (1,)
    while len(r) > m + 1:
        q, content, r = next(steps)
        t0, t = t, polys.add(t0, polys.scale(polys.mul(q, t), -1))
    r = polys.scale(r, content)
    if not t[0]:
        raise DegenerateMathError("denominator vanishes at the expansion point")
    defect = k - polys.degree(t)
    if r:
        defect = min(defect, m - polys.degree(r))
    notes = (f"pade-defect={defect}",) if defect else ()
    return make_tf(r, t, notes=notes)


def _cancel_common_factor(num, den):
    """Divide out the field GCD of two coefficient lists of ints and Fractions."""
    if polys.degree(num) < 1 or polys.degree(den) < 1:
        return num, den
    g = polys.gcd_field(num, den)
    if polys.degree(g) < 1:
        return num, den
    return polys.divmod_field(num, g)[0], polys.divmod_field(den, g)[0]


def rational_to_cfe(tf: TransferFunction) -> tuple:
    """Expand a numeric TF into the quotients of q0 + 1/(q1 + 1/(q2 + ...)):
    a tuple of ascending-power Fraction tuples, none of them empty (a zero
    quotient is (Fraction(0),)).

    The quotients are those of polys.euclid on the numerator and the
    denominator, so the expansion ends when the remainder vanishes;
    cfe_to_tf on the result reproduces the input.
    """
    if tf.ring != "rational":
        raise ValidationError("continued-fraction expansion needs exact numeric coefficients")
    if tf.gain is not None:
        raise ValidationError("fold the gain into the numerator before expanding")
    if not polys.trim(tf.num) or not polys.trim(tf.den):
        raise DegenerateMathError("degenerate expansion")
    return tuple(q or (Fraction(0),) for q, _, _ in polys.euclid(tf.num, tf.den))


def cfe_to_tf(quotients) -> TransferFunction:
    """Fold the quotients q0, q1, ... of q0 + 1/(q1 + 1/(q2 + ...)) back
    into a single rational function.

    The quotients must be ascending-power sequences of exact numbers, as
    rational_to_cfe and ladder rungs give; a symbolic or float quotient
    raises ValidationError. The fold runs over int: with q = Q/d_q, d_q the
    lcm of q's denominators, each step maps num/den to
    (Q*num + d_q*den)/(d_q*num) and takes the pair's polys.primitive part;
    without that division the coefficients grow and the fold runs several
    times slower.
    """
    if not quotients:
        raise DegenerateMathError("empty continued fraction")
    if not all(isinstance(c, (int, Fraction)) for q in quotients for c in q):
        raise ValidationError("folding a continued fraction needs exact numeric quotients")
    d, num = clear_denominators(polys.trim(quotients[-1]))
    den: tuple = (d,)
    if not num:
        raise DegenerateMathError("zero trailing quotient")
    for q in reversed(quotients[:-1]):
        d, q = clear_denominators(polys.trim(q))
        num, den = polys.add(polys.mul(q, num), polys.scale(den, d)), polys.scale(num, d)
        pair = polys.primitive(num + den)[1]
        num, den = pair[: len(num)], pair[len(num):]
    return make_tf(num, den)
