"""The invariants of every realization over drawn parameters: each family,
both bands and signs, rational parameters up to 1e+-30 in size, orders 1-8.

- Stability, exactly: for exponents in (0, 1) the numerator and the
  denominator are Hurwitz (every root in Re s < 0), by Routh's test on the
  continued-fraction expansion. The FOPID with an exponent past 1 is not,
  and mpmath's roots agree (ROADMAP item 20).
- Symbolic-then-substitute equals the numeric path in (num, den, gain) over
  each family's exponent domain. The bracket at mu >= 1 is left to item
  20's strict xfail in test_controllers.py.
- Both round trips are exact: a tf-document parses back to the TF, and
  the affine ladder, where every quotient is affine, folds back to it.
  These draws stop at order 4, since the affine FOPID ladder takes up to a
  second a case at orders 7-8 (item 17).
"""

from fractions import Fraction
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracrat import (  # noqa: E402
    FOPID,
    Differintegrator,
    FOPDBracket,
    LeadLag,
    make_tf,
    polys,
    rational_to_cfe,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
)
from fracrat.cli import emit_tf_document, parse_tf_document  # noqa: E402
from fracrat.ladder import ladder_to_tf, synthesize_ladder  # noqa: E402


def _hurwitz(coeffs) -> bool:
    """Whether every root of a nonzero exact polynomial (ascending
    coefficients) lies in Re s < 0. With n its degree, the part of even or
    odd powers that has degree n, over the other part, must expand into n
    continued-fraction quotients, each c*s with c > 0 (Routh, 1877;
    Gantmacher, The Theory of Matrices, vol. 2, ch. XV)."""
    coeffs = polys.trim(coeffs)
    n = len(coeffs) - 1
    even, odd = (tuple(c if i % 2 == j else 0 for i, c in enumerate(coeffs)) for j in (0, 1))
    top, bottom = (even, odd) if n % 2 == 0 else (odd, even)
    if not polys.trim(bottom):
        return n == 0
    quotients = rational_to_cfe(make_tf(top, bottom))
    return len(quotients) == n and all(len(q) == 2 and q[0] == 0 and q[1] > 0 for q in quotients)


def _positive(scale: int):
    return st.builds(
        lambda p, q, e: Fraction(p, q) * Fraction(10) ** e,
        st.integers(1, 99), st.integers(1, 99), st.integers(-scale, scale),
    )


def _exponent(low_closed: bool, high, high_closed: bool):
    """Fractions in the interval from 0 to high, each end in it or not."""
    return st.fractions(min_value=0, max_value=high, max_denominator=1000).filter(
        lambda f: (low_closed or f > 0) and (high_closed or f < high)
    )


_UNIT = _exponent(False, 1, False)


@st.composite
def _realizations(draw, stable: bool, max_order: int = 8):
    """(family, band, sign, parameter values, order). With stable, every
    exponent lies in (0, 1); otherwise in the family's whole domain, but
    for the bracket's mu >= 1."""
    positive = _positive(30)
    family = draw(st.sampled_from(("differintegrator", "fopid", "bracket", "leadlag")))
    band = draw(st.sampled_from(("low", "high"))) if family in ("differintegrator", "fopid") else None
    sign = "integrator"
    if family == "differintegrator":
        sign = draw(st.sampled_from(("integrator", "differentiator")))
        lam = _UNIT if stable else _exponent(False, 1, True)
        values = {"lam": draw(lam), "T": draw(positive) if band == "high" else Fraction(1)}
    elif family == "fopid":
        gain = st.one_of(st.just(Fraction(0)), positive)
        exponent = _UNIT if stable else _exponent(False, 2, False)
        values = {name: draw(gain) for name in ("Kp", "Ki", "Kd")}
        values.update(lam=draw(exponent), mu=draw(exponent))
    elif family == "bracket":
        values = {"Kp": draw(positive), "Kd": draw(positive), "mu": draw(_UNIT)}
    else:
        alpha = _UNIT if stable else _exponent(True, 1, True)
        values = {"Kc": draw(positive), "lam": draw(positive)}
        values.update(x=draw(_exponent(False, 1, True)), alpha=draw(alpha))
    return family, band, sign, values, draw(st.integers(1, max_order))


def _realize(family, band, sign, values, order):
    """The realization at values, where a missing parameter stays symbolic."""
    v = values.get
    if family == "differintegrator":
        return realize_differintegrator(Differintegrator(v("lam"), sign, band, v("T")), order)
    if family == "fopid":
        return realize_fopid(FOPID(v("Kp"), v("Ki"), v("Kd"), v("lam"), v("mu")), band, order)
    if family == "bracket":
        return realize_fopd_bracket(FOPDBracket(v("Kp"), v("Kd"), v("mu")), order)
    return realize_leadlag(LeadLag(v("Kc"), v("lam"), v("x"), v("alpha")), order)


@lru_cache(maxsize=None)
def _symbolic(family, band, sign, T, order):
    return _realize(family, band, sign, {"T": T}, order)


@settings(max_examples=300, deadline=None)
@given(_realizations(stable=True))
def test_every_realization_is_stable_and_minimum_phase(case):
    tf = _realize(*case)
    assert _hurwitz(tf.den)
    assert not any(tf.num) or _hurwitz(tf.num)


@settings(max_examples=150, deadline=None)
@given(_realizations(stable=False))
def test_symbolic_then_substitute_equals_the_numeric_path(case):
    family, band, sign, values, order = case
    mapping = {name: value for name, value in values.items() if name != "T"}
    sym = _symbolic(family, band, sign, values.get("T"), order)
    got = sym.substitute(mapping)
    want = _realize(*case)
    assert (got.num, got.den, got.gain) == (want.num, want.den, want.gain)


@settings(max_examples=100, deadline=None)
@given(_realizations(stable=False, max_order=4))
def test_ladder_and_document_round_trips_are_exact(case):
    tf = _realize(*case)
    back = parse_tf_document(emit_tf_document(tf))[0]
    assert (back.num, back.den, back.gain) == (tf.num, tf.den, tf.gain)
    bare = make_tf(tf.num, tf.den)
    # no affine ladder: the zero TF (every FOPID gain 0) has no expansion,
    # and the low-band FOPID at Ki = Kd and lam = mu a quotient of degree 2
    if any(bare.num) and all(len(q) <= 2 for q in rational_to_cfe(bare)):
        assert ladder_to_tf(synthesize_ladder(bare)) == bare


_GAINS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
_HALF, _THREE_HALVES = Fraction(1, 2), Fraction(3, 2)


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize(
    "band, lam, mu, stable",
    [
        ("low", _HALF, _HALF, True),
        ("high", _HALF, _HALF, True),
        ("low", _THREE_HALVES, _HALF, False),
        ("high", _HALF, _THREE_HALVES, False),
    ],
)
def test_fopid_past_one_is_not_hurwitz_and_mpmath_agrees(band, lam, mu, stable, n):
    den = realize_fopid(FOPID(*_GAINS, lam, mu), band, n).den
    assert _hurwitz(den) is stable
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        roots = mpmath.polyroots(
            [mpmath.mpf(c.numerator) / c.denominator for c in reversed(den)],
            maxsteps=200, extraprec=200,
        )
        assert (max(mpmath.re(r) for r in roots) < 0) is stable
