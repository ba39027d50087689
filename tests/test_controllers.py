"""Controller realizations: differintegrators, FOPID assembly, the
bracketed FO[PD] structure, and the lead-lag compensator."""

import random
import sys
import time
from fractions import Fraction

import pytest

from fracrat import (
    Differintegrator,
    FOPDBracket,
    FOPID,
    GainTag,
    LeadLag,
    ParamPoly,
    PowerSeries,
    ValidationError,
    binomial_series,
    carlson,
    leadlag_kernel_series,
    make_tf,
    pade,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
    symbolic_differintegrator,
    tf_equal,
)
from fracrat import polys
from fracrat.controllers import (
    _EXPONENT, _homogenize, _kernel_pade, _parse_rat,
)
from fracrat.exact import SYMBOLS


HALF = Fraction(1, 2)


def test_half_integrator_low_range_order_3():
    tf = realize_differintegrator(Differintegrator(HALF), 3)
    assert tf.num == (7, 56, 112, 64)
    assert tf.den == (1, 24, 80, 64)


def test_half_differentiator_low_range_order_3():
    tf = realize_differintegrator(Differintegrator(HALF, sign="differentiator"), 3)
    assert tf.num == (1, 24, 80, 64)
    assert tf.den == (7, 56, 112, 64)


def test_half_integrator_high_range_order_3():
    tf = realize_differintegrator(Differintegrator(HALF, freq_range="high"), 3)
    assert tf.num == (64, 80, 24, 1)
    assert tf.den == (64, 112, 56, 7)


def test_differentiator_is_exact_reciprocal():
    for freq_range in ("low", "high"):
        for order in (2, 4):
            integ = realize_differintegrator(
                Differintegrator(Fraction(3, 10), freq_range=freq_range), order
            )
            diff = realize_differintegrator(
                Differintegrator(Fraction(3, 10), sign="differentiator", freq_range=freq_range),
                order,
            )
            assert tf_equal(diff, integ.reciprocal())


def test_high_range_time_constant_scales_s():
    base = realize_differintegrator(Differintegrator(HALF, freq_range="high"), 4)
    T = Fraction(1, 250)
    scaled = realize_differintegrator(
        Differintegrator(HALF, freq_range="high", T=T), 4
    )
    want = make_tf(
        tuple(c * T**j for j, c in enumerate(base.num)),
        tuple(c * T**j for j, c in enumerate(base.den)),
    )
    assert tf_equal(scaled, want)


def test_differintegrator_validation():
    with pytest.raises(ValidationError):
        Differintegrator(Fraction(0))
    with pytest.raises(ValidationError):
        Differintegrator(Fraction(3, 2))
    with pytest.raises(ValidationError):
        Differintegrator(HALF, sign="inverse")
    with pytest.raises(ValidationError):
        Differintegrator(HALF, freq_range="mid")
    with pytest.raises(ValidationError):
        Differintegrator(HALF, T=0)
    with pytest.raises(ValidationError):
        realize_differintegrator(Differintegrator(HALF), 0)
    # lam = None keeps the order symbolic, as every other builder does
    assert realize_differintegrator(Differintegrator(None), 3) == symbolic_differintegrator("low", 3)


def test_low_band_refuses_a_time_constant():
    # the low band's kernel (1 + 1/s)^lam has no T: a T other than 1 there
    # was ignored, and the TF came out as at T = 1
    for lam in (HALF, None):
        for T in (Fraction(7), Fraction(1, 10), "2"):
            with pytest.raises(ValidationError, match=r"^T = \S+ only applies to the high band"):
                Differintegrator(lam, "integrator", "low", T)
        assert Differintegrator(lam, "integrator", "low", Fraction(1)).T == 1
        assert Differintegrator(lam, "integrator", "high", Fraction(7)).T == 7


def test_spec_intake_rejects_non_rational_input():
    # every user-facing scalar enters through one reader: malformed text, a
    # zero denominator and non-finite floats are ValidationErrors
    bad = ("abc", "1/0", float("nan"), float("inf"))
    for value in bad:
        with pytest.raises(ValidationError, match="^lam expects a rational number"):
            Differintegrator(value)
        with pytest.raises(ValidationError, match="^T expects a rational number"):
            Differintegrator(HALF, T=value)
        with pytest.raises(ValidationError, match="^x expects a rational number"):
            LeadLag(Fraction(1), HALF, value, HALF)
        with pytest.raises(ValidationError, match="^lam expects a rational number"):
            carlson(value, 2)
    with pytest.raises(ValidationError, match="^Kp expects a rational number"):
        FOPDBracket([1], HALF, HALF)
    # floats are read as printed, strings as written
    assert Differintegrator(0.5).lam == HALF
    assert LeadLag(1, "1/2", 0.1, "0.5").x == Fraction(1, 10)
    assert carlson("1/2", 1) == carlson(HALF, 1)


def test_spec_intake_refuses_an_exponent_past_the_digit_cap():
    # Fraction would build 10**|exponent| before the range check runs, which
    # takes seconds at 1e9999999; the refusal comes first
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.perf_counter()
        for text in ("1e9999999", "1E-9_999_999", " 5e+4301 "):
            with pytest.raises(ValidationError, match=r"^lam .* has an exponent past 4300"):
                Differintegrator(text)
        with pytest.raises(ValidationError, match=r"^T '1e-4301' has an exponent past 4300"):
            Differintegrator(HALF, "integrator", "high", "1e-4301")
        with pytest.raises(ValidationError, match=r"^lam .* has an exponent past 4300"):
            carlson("1e9999999", 2)
        assert time.perf_counter() - start < 1
        # the cap itself is allowed, and a cap of 0 sets no bound
        assert Differintegrator("1e-4300").lam == Fraction(1, 10**4300)
        sys.set_int_max_str_digits(0)
        assert Differintegrator("1e-4301").lam == Fraction(1, 10**4301)
    finally:
        sys.set_int_max_str_digits(cap)


def _reads_like_fraction(text):
    """_parse_rat(text) equals Fraction(text), or raises the exception type
    Fraction raises; it is an int exactly when text is an optionally signed
    run of ASCII digits. An exponent past the digit cap is refused first
    (the test above), where Fraction would build 10**|exponent|."""
    try:
        value = _parse_rat(text, "c")
    except ValidationError:
        cap = sys.get_int_max_str_digits()
        assert cap and abs(int(_EXPONENT.search(text)[1])) > cap, text
        return
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            Fraction(text)
        return
    assert value == Fraction(text), text
    digits = text[1:] if text[:1] in ("+", "-") else text
    assert type(value) is (int if digits.isascii() and digits.isdigit() else Fraction), text


def test_parse_rat_reads_what_fraction_reads():
    cap = sys.get_int_max_str_digits()
    long_runs = ("9" * cap, "-" + "9" * cap, "9" * (cap + 1), "+" + "1" * (cap + 1),
                 "0" * (cap + 1) + "7", "1/" + "3" * (cap + 1), "1." + "5" * (cap + 1))
    for text in (
        "0", "7", "-0", "+0", "-5", "+5", "007", "-007", "--5", "+-5", "-+5", "", "+", "-",
        " 5", "5 ", " -5 ", "- 5", "1_0", "_1", "1_", "1__0", "1/2", "-3/4", "1/0", "0/0",
        "1/-2", "1.5", ".5", "5.", "-.5", "1e3", "1E-3", "-2.5e+1", "1e", "e3", "0x10",
        "\u0663", "\u0661\u0662", "-\u0667", "\uff11\uff12", "\u00b2", "1\u00b2", "\u0663/4",
        "1\u0663", "5\n", "\t5", "1e99999", "-1e-4301", *long_runs,
    ):
        _reads_like_fraction(text)


def test_parse_rat_reads_drawn_text_like_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cap = sys.get_int_max_str_digits()
    pieces = st.sampled_from(
        ("0", "1", "5", "9", "\u0663", "\uff17", "\u00b2", "+", "-", " ", "_", "/", ".", "e", "E")
    )
    exponent = st.integers(-999, 999).map("e{}".format)
    digit_run = st.integers(cap - 2, cap + 2).map(lambda n: "8" * n)
    texts = st.one_of(
        st.lists(pieces, max_size=12).map("".join),
        st.tuples(st.sampled_from(("", "+", "-", "--")), digit_run).map("".join),
        st.tuples(st.lists(pieces, max_size=6).map("".join), exponent).map("".join),
        st.integers().map(str),
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(texts)
    def check(text):
        _reads_like_fraction(text)

    check()


def test_symbolic_low_integrator_specializes_to_numeric():
    sym = symbolic_differintegrator("low", 3)
    num = realize_differintegrator(Differintegrator(HALF), 3)
    assert tf_equal(sym.substitute({"lam": HALF}), num)


def test_symbolic_order_4_closed_form():
    lam = ParamPoly.var("lam")
    plus = [
        ParamPoly.constant(1680),
        840 * lam + 3360,
        180 * lam**2 + 1260 * lam + 2160,
        20 * lam**3 + 180 * lam**2 + 520 * lam + 480,
        lam**4 + 10 * lam**3 + 35 * lam**2 + 50 * lam + 24,
    ]
    minus = [p.substitute({"lam": -lam}) for p in plus]
    sym = symbolic_differintegrator("low", 4)
    # low-range: ascending powers of s carry the pattern end-to-start
    assert list(sym.num) == list(reversed(plus))
    assert list(sym.den) == list(reversed(minus))
    high = symbolic_differintegrator("high", 4)
    assert list(high.num) == minus
    assert list(high.den) == plus


def test_symbolic_order_5_closed_form():
    lam = ParamPoly.var("lam")
    plus = [
        ParamPoly.constant(30240),
        15120 * lam + 75600,
        3360 * lam**2 + 30240 * lam + 67200,
        420 * lam**3 + 5040 * lam**2 + 19740 * lam + 25200,
        30 * lam**4 + 420 * lam**3 + 2130 * lam**2 + 4620 * lam + 3600,
        lam**5 + 15 * lam**4 + 85 * lam**3 + 225 * lam**2 + 274 * lam + 120,
    ]
    minus = [p.substitute({"lam": -lam}) for p in plus]
    sym = symbolic_differintegrator("low", 5)
    assert list(sym.num) == list(reversed(plus))
    assert list(sym.den) == list(reversed(minus))


def test_symbolic_beyond_validated_order_is_flagged():
    assert "beyond-validated-order" in symbolic_differintegrator("low", 6).notes
    assert "beyond-validated-order" not in symbolic_differintegrator("low", 5).notes


def test_symbolic_differintegrator_validation():
    with pytest.raises(ValidationError):
        symbolic_differintegrator("mid", 3)
    with pytest.raises(ValidationError):
        symbolic_differintegrator("low", 3, sign="inverse")


def test_fopid_assembles_three_branches():
    spec = FOPID(Fraction(2), HALF, Fraction(1, 3), HALF, HALF)
    got = realize_fopid(spec, "low", 2)
    integ = realize_differintegrator(Differintegrator(HALF), 2)
    diff = integ.reciprocal()
    num = polys.add(
        polys.add(
            polys.scale(polys.mul(integ.num, diff.den), spec.Ki),
            polys.scale(polys.mul(diff.num, integ.den), spec.Kd),
        ),
        polys.scale(polys.mul(integ.den, diff.den), spec.Kp),
    )
    den = polys.mul(integ.den, diff.den)
    assert tf_equal(got, make_tf(num, den))
    with pytest.raises(ValidationError, match="^freq_range must be one of"):
        realize_fopid(spec, "mid", 2)


def test_fopid_zero_gains_drop_branches():
    p_only = realize_fopid(FOPID(Fraction(3), 0, 0, HALF, HALF), "low", 3)
    assert p_only.num == (3,)
    assert p_only.den == (1,)
    pi = realize_fopid(FOPID(Fraction(1), Fraction(2), 0, HALF, None), "low", 2)
    integ = realize_differintegrator(Differintegrator(HALF), 2)
    want = make_tf(
        polys.add(polys.scale(integ.num, 2), integ.den), integ.den
    )
    assert tf_equal(pi, want)


def test_fopid_symbolic_gains_specialize():
    sym = realize_fopid(FOPID(None, None, None, HALF, HALF), "low", 2)
    assert sym.ring == "symbolic"
    spec = {"Kp": Fraction(2), "Ki": HALF, "Kd": Fraction(1, 3)}
    numeric = realize_fopid(FOPID(spec["Kp"], spec["Ki"], spec["Kd"], HALF, HALF), "low", 2)
    assert tf_equal(sym.substitute(spec), numeric)


def test_fopid_carries_branch_pade_notes():
    # an integer order makes the branch's Pade system singular; the
    # differintegrator notes the defect, and FOPID keeps it per branch
    one = Fraction(1)
    integ = realize_differintegrator(Differintegrator(one), 3)
    assert integ.notes == ("pade-defect=2",)
    both = realize_fopid(FOPID(one, HALF, HALF, one, one), "low", 3)
    assert both.notes == ("int:pade-defect=2", "diff:pade-defect=2")
    only_i = realize_fopid(FOPID(one, HALF, HALF, one, HALF), "low", 3)
    assert only_i.notes == ("int:pade-defect=2",)
    assert realize_fopid(FOPID(one, HALF, HALF, HALF, HALF), "low", 3).notes == ()


def test_fopid_orders_may_exceed_one():
    # integro-differential orders live in (0, 2), wider than the plain
    # differintegrator's (0, 1]
    spec = FOPID(Fraction(1), Fraction(1), Fraction(1), Fraction(3, 2), Fraction(6, 5))
    got = realize_fopid(spec, "low", 2)
    assert got.ring == "rational"
    with pytest.raises(ValidationError):
        FOPID(Fraction(1), Fraction(1), Fraction(1), Fraction(5, 2), Fraction(1))
    with pytest.raises(ValidationError):
        FOPID(Fraction(-1), Fraction(1), Fraction(1), Fraction(1), Fraction(1))


def test_fopd_bracket_numeric_fractional():
    spec = FOPDBracket(Fraction(2), Fraction(3), Fraction(6, 5))
    tf = realize_fopd_bracket(spec, 3)
    assert tf.ring == "rational"
    assert tf.gain.label == "Kp^mu"
    assert tf.gain.value == pytest.approx(2.0**1.2)
    # integer part of mu raises the numerator degree above [3/3]
    assert tf.num == (5000, 19500, 25920, 13068, 1782)
    assert tf.den == (5000, 10500, 5670, 567)
    # value at s = 0 is Kp^mu: the rational part contributes exactly 1
    assert Fraction(tf.num[0], tf.den[0]) == 1
    tf = realize_fopd_bracket(FOPDBracket(Fraction(3, 7), Fraction(5), HALF), 4)
    assert tf.num == (20736, 544320, 4762800, 15435000, 13505625)
    assert tf.den == (20736, 423360, 2646000, 5145000, 1500625)
    assert tf.gain.value == pytest.approx((3 / 7) ** 0.5)


def test_fopd_bracket_integer_power_is_polynomial():
    tf = realize_fopd_bracket(FOPDBracket(Fraction(2), Fraction(3), Fraction(1)), 4)
    assert tf.gain is None
    assert tf.num == (2, 3)
    assert tf.den == (1,)


def test_fopd_bracket_symbolic_homogenizes():
    sym = realize_fopd_bracket(FOPDBracket(None, None, None), 2)
    assert sym.ring == "symbolic"
    mu = ParamPoly.var("mu")
    kp = ParamPoly.var("Kp")
    kd = ParamPoly.var("Kd")
    base = [
        ParamPoly.constant(12),
        6 * mu + 12,
        mu**2 + 3 * mu + 2,
    ]
    want_num = [c * kd**j * kp ** (2 - j) for j, c in enumerate(base)]
    want_den = [
        c.substitute({"mu": -mu}) * kd**j * kp ** (2 - j) for j, c in enumerate(base)
    ]
    # [2/2] of (1+t)^mu over the mirrored denominator, homogenized in Kp, Kd
    assert tf_equal(sym, make_tf(want_num, want_den))
    assert sym.gain.label == "Kp^mu"
    assert sym.gain.value is None


def test_fopd_bracket_symbolic_specializes_to_numeric():
    sym = realize_fopd_bracket(FOPDBracket(None, None, HALF), 3)
    numeric = realize_fopd_bracket(FOPDBracket(Fraction(2), Fraction(3), HALF), 3)
    assert tf_equal(sym.substitute({"Kp": 2, "Kd": 3}), numeric)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="at mu >= 1 the numeric bracket splits off Kp + Kd*s (at mu = 1 it is that "
    "factor, untagged); the symbolic one keeps (1 + t)^mu whole (ROADMAP item 20)",
)
@pytest.mark.parametrize("mu", (Fraction(1), Fraction(13, 10), Fraction(3, 2)))
@pytest.mark.parametrize("n", range(1, 5))
def test_fopd_bracket_symbolic_specializes_to_numeric_from_mu_1(mu, n):
    sym = realize_fopd_bracket(FOPDBracket(None, None, None), n)
    numeric = realize_fopd_bracket(FOPDBracket(Fraction(2), Fraction(3), mu), n)
    got = sym.substitute({"Kp": 2, "Kd": 3, "mu": mu})
    assert (got.num, got.den, got.gain) == (numeric.num, numeric.den, numeric.gain)


def test_fopd_bracket_validation():
    with pytest.raises(ValidationError):
        FOPDBracket(Fraction(0), Fraction(1), Fraction(1))
    with pytest.raises(ValidationError):
        FOPDBracket(Fraction(1), Fraction(-1), Fraction(1))
    with pytest.raises(ValidationError):
        FOPDBracket(Fraction(1), Fraction(1), Fraction(2))


def test_leadlag_numeric_realization():
    spec = LeadLag(Fraction(2), HALF, Fraction(1, 4), HALF)
    tf = realize_leadlag(spec, 2)
    assert tf.ring == "rational"
    assert tf.gain.label == "Kc*x^alpha"
    assert tf.gain.value == pytest.approx(2.0 * 0.25**0.5)
    # kernel equals 1 at w = 0, so the rational part is 1 at s = 0
    assert Fraction(tf.num[0], tf.den[0]) == 1


def test_leadlag_kernel_scaling_in_lam():
    # changing lam only rescales s: coefficients pick up lam^j
    a = realize_leadlag(LeadLag(Fraction(1), Fraction(1), Fraction(1, 4), HALF), 2)
    b = realize_leadlag(LeadLag(Fraction(1), Fraction(3), Fraction(1, 4), HALF), 2)
    want = make_tf(
        tuple(c * Fraction(3) ** j for j, c in enumerate(a.num)),
        tuple(c * Fraction(3) ** j for j, c in enumerate(a.den)),
    )
    assert tf_equal(b, want)


def test_leadlag_degenerate_cases_flatten():
    # the kernel is 1; Kc rides in the tag, as for every other lead-lag
    flat_alpha = realize_leadlag(LeadLag(Fraction(5), Fraction(2), HALF, Fraction(0)), 3)
    assert (flat_alpha.num, flat_alpha.den) == ((1,), (1,))
    assert flat_alpha.gain == GainTag("Kc*x^alpha", 5.0)
    flat_x = realize_leadlag(LeadLag(Fraction(5), Fraction(2), Fraction(1), HALF), 3)
    assert (flat_x.num, flat_x.den) == ((1,), (1,))
    assert flat_x.gain == GainTag("Kc*x^alpha", 5.0)


def test_leadlag_symbolic_specializes_to_numeric():
    sym = realize_leadlag(LeadLag(None, None, None, None), 2)
    assert sym.ring == "symbolic"
    assert sym.gain.value is None
    values = {"lam": HALF, "x": Fraction(1, 4), "alpha": HALF}
    numeric = realize_leadlag(LeadLag(Fraction(2), HALF, Fraction(1, 4), HALF), 2)
    assert tf_equal(sym.substitute(values), numeric)


def test_substitution_fills_in_the_gain_tag():
    # the tag gets its value from the formula the numeric path uses, once
    # every parameter its label names has one
    values = {"Kc": 2, "x": Fraction(1, 20), "alpha": HALF}
    sym = realize_leadlag(LeadLag(None, None, None, None), 3)
    numeric = realize_leadlag(LeadLag(2, Fraction(1, 10), values["x"], HALF), 3)
    assert numeric.gain.value == pytest.approx(0.447, abs=5e-4)
    assert sym.substitute({**values, "lam": Fraction(1, 10)}).gain == numeric.gain
    assert sym.substitute(values).gain == numeric.gain
    assert sym.substitute({"x": values["x"], "alpha": HALF}).gain.value is None
    bracket = realize_fopd_bracket(FOPDBracket(None, None, None), 3)
    bracket_gain = realize_fopd_bracket(FOPDBracket(2, 3, HALF), 3).gain
    assert bracket.substitute({"Kp": 2, "Kd": 3, "mu": HALF}).gain == bracket_gain
    assert bracket.substitute({"Kd": 3, "mu": HALF}).gain.value is None
    # a negative base under a fractional exponent has no real value
    assert bracket.substitute({"Kp": -2, "Kd": 3, "mu": HALF}).gain.value is None
    assert sym.substitute({"Kc": 2, "x": -values["x"], "alpha": HALF}).gain.value is None
    # nor has a parameter past float range
    assert realize_fopd_bracket(FOPDBracket(10**400, 1, HALF), 2).gain.value is None


def test_substitution_keeps_the_parameters_fixed_at_realization():
    # a parameter of the tag's label that was a number at realization is
    # baked into the coefficients: substitute reads it from the tag, and a
    # mapping that gives it another value is refused
    values = {"Kc": 2, "x": Fraction(1, 20), "alpha": HALF}
    numeric = realize_leadlag(LeadLag(2, Fraction(1, 10), values["x"], HALF), 3)
    part_x = realize_leadlag(LeadLag(None, None, values["x"], None), 3)
    assert part_x.substitute({"Kc": 2, "alpha": HALF}).gain == numeric.gain
    assert part_x.substitute(values).gain == numeric.gain
    with pytest.raises(ValidationError, match="contradicts"):
        part_x.substitute({**values, "x": HALF})
    part_alpha = realize_leadlag(LeadLag(2, Fraction(1, 10), values["x"], None), 3)
    assert part_alpha.substitute({"alpha": HALF}).gain == numeric.gain
    assert tf_equal(part_alpha.substitute({"alpha": HALF}), numeric)
    with pytest.raises(ValidationError, match="contradicts"):
        part_alpha.substitute({"Kc": 7, "alpha": HALF})

    part_kp = realize_fopd_bracket(FOPDBracket(2, None, None), 3)
    numeric = realize_fopd_bracket(FOPDBracket(2, 3, HALF), 3)
    assert part_kp.substitute({"Kd": 3, "mu": HALF}).gain == numeric.gain
    assert tf_equal(part_kp.substitute({"Kd": 3, "mu": HALF}), numeric)
    with pytest.raises(ValidationError, match="contradicts"):
        part_kp.substitute({"Kp": 5, "Kd": 3, "mu": HALF})
    # a tag whose fixed parameters are not known (read from a document or
    # built by hand) keeps its value as it is
    bare = make_tf((1,), (1,), gain=GainTag("Kp^mu"))
    assert bare.substitute({"Kp": 2, "mu": HALF}).gain.value is None


def test_leadlag_symbolic_order_12_specializes_to_numeric():
    sym = realize_leadlag(LeadLag(None, None, None, None), 12)
    values = {"lam": Fraction(1, 10), "x": Fraction(1, 20), "alpha": Fraction(2, 7)}
    numeric = realize_leadlag(LeadLag(Fraction(2), values["lam"], values["x"], values["alpha"]), 12)
    specialized = sym.substitute(values)
    assert (specialized.num, specialized.den) == (numeric.num, numeric.den)
    assert numeric.num_degree == numeric.den_degree == 12


def test_leadlag_validation():
    with pytest.raises(ValidationError):
        LeadLag(Fraction(0), Fraction(1), HALF, HALF)
    with pytest.raises(ValidationError):
        LeadLag(Fraction(1), Fraction(0), HALF, HALF)
    with pytest.raises(ValidationError):
        LeadLag(Fraction(1), Fraction(1), Fraction(2), HALF)
    with pytest.raises(ValidationError):
        LeadLag(Fraction(1), Fraction(1), HALF, Fraction(3, 2))


# A valid spec of each family, and each range its fields are admitted
# through, in the order the spec checks them: a field, values it refuses,
# values at the edge it admits, and the text of the refusal. sign and
# freq_range are choices, not ranges, and None is not one of them.
_VALID = {
    Differintegrator: {"lam": HALF, "sign": "integrator", "freq_range": "high", "T": 1},
    FOPID: {"Kp": 1, "Ki": 1, "Kd": 1, "lam": HALF, "mu": HALF},
    FOPDBracket: {"Kp": 1, "Kd": 1, "mu": HALF},
    LeadLag: {"Kc": 1, "lam": 1, "x": HALF, "alpha": HALF},
}
_RANGES = [
    (Differintegrator, "T", (0, -1), (Fraction(1, 1000),), "T must be positive"),
    (Differintegrator, "lam", (0, -HALF, Fraction(1001, 1000)), (1,), "lam must lie in (0, 1]"),
    (FOPID, "Kp", (-1, -Fraction(1, 1000)), (0,), "Kp must be non-negative"),
    (FOPID, "Ki", (-1,), (0,), "Ki must be non-negative"),
    (FOPID, "Kd", (-1,), (0,), "Kd must be non-negative"),
    (FOPID, "lam", (0, 2, -1), (Fraction(1999, 1000),), "lam must lie in (0, 2)"),
    (FOPID, "mu", (0, 2, 3), (Fraction(1, 1000),), "mu must lie in (0, 2)"),
    (FOPDBracket, "Kp", (-1,), (Fraction(1, 1000),), "Kp must be positive"),
    (FOPDBracket, "Kd", (0, -1), (Fraction(1, 1000),), "Kd must be positive"),
    (FOPDBracket, "mu", (0, 2), (1, Fraction(1999, 1000)), "mu must lie in (0, 2)"),
    (LeadLag, "Kc", (0, -1), (Fraction(1, 1000),), "Kc must be positive"),
    (LeadLag, "lam", (0, -1), (Fraction(1, 1000),), "lam must be positive"),
    (LeadLag, "x", (0, Fraction(1001, 1000)), (1,), "x must lie in (0, 1]"),
    (LeadLag, "alpha", (-Fraction(1, 1000), Fraction(1001, 1000)), (0, 1), "alpha must lie in [0, 1]"),
]


def _spec(cls, **fields):
    return cls(**{**_VALID[cls], **fields})


@pytest.mark.parametrize(
    "cls, field, refused, admitted, text", _RANGES, ids=[f"{r[0].__name__}-{r[1]}" for r in _RANGES]
)
def test_each_spec_field_is_refused_outside_its_range(cls, field, refused, admitted, text):
    for value in refused:
        with pytest.raises(ValidationError) as info:
            _spec(cls, **{field: value})
        assert str(info.value) == text, value
    for value in admitted:
        assert getattr(_spec(cls, **{field: value}), field) == value


def test_the_first_field_out_of_range_is_refused():
    # two fields out of range: the spec refuses the one it checks first
    for i, (cls, first, refused, _, text) in enumerate(_RANGES):
        for later_cls, later, later_refused, _, _ in _RANGES[i + 1:]:
            if later_cls is cls:
                with pytest.raises(ValidationError) as info:
                    _spec(cls, **{first: refused[0], later: later_refused[0]})
                assert str(info.value) == text, later
    # Kp = 0 has no expansion about s = 0, whatever else is out of range
    with pytest.raises(ValidationError, match="^not expandable about s=0$"):
        FOPDBracket(0, -1, 3)
    # the differintegrator checks T > 0, then T = 1 in the low band, then lam
    with pytest.raises(ValidationError, match="^T must be positive$"):
        Differintegrator(0, "integrator", "low", -1)
    with pytest.raises(ValidationError, match=r"^T = 2 only applies to the high band"):
        Differintegrator(0, "integrator", "low", 2)
    # the choices come before every range
    with pytest.raises(ValidationError, match="^sign must be one of"):
        Differintegrator(0, None, "high", 0)
    with pytest.raises(ValidationError, match="^freq_range must be one of"):
        Differintegrator(0, "integrator", None, 0)


def test_an_omitted_field_passes_every_range():
    # None leaves a field symbolic; T and the two choices are never omitted
    for cls, valid in _VALID.items():
        omitted = dict.fromkeys(name for name in valid if name not in ("sign", "freq_range", "T"))
        for name in omitted:
            assert getattr(_spec(cls, **{name: None}), name) is None
        spec = _spec(cls, **omitted)
        assert all(getattr(spec, name) is None for name in omitted)


@pytest.mark.parametrize("order", (0, -1, 2.5, Fraction(3), "3", None))
def test_every_realization_takes_a_positive_int_order(order):
    realizations = (
        lambda n: realize_differintegrator(Differintegrator(HALF), n),
        lambda n: realize_fopid(FOPID(1, 1, 1, HALF, HALF), "low", n),
        lambda n: realize_fopd_bracket(FOPDBracket(1, 1, HALF), n),
        lambda n: realize_leadlag(LeadLag(1, 1, HALF, HALF), n),
    )
    for realize in realizations:
        with pytest.raises(ValidationError, match="^order must be a positive integer$"):
            realize(order)
        # True is the int 1
        assert realize(True) == realize(1)


def test_float_parameters_are_read_as_decimals():
    # 0.5 means exactly 1/2, not the nearest binary double
    spec = Differintegrator(0.5)
    assert spec.lam == HALF
    tf = realize_differintegrator(spec, 3)
    assert tf.num == (7, 56, 112, 64)


def test_random_cross_paths_symbolic_vs_numeric():
    rng = random.Random(5)
    sym_low = symbolic_differintegrator("low", 3)
    sym_high = symbolic_differintegrator("high", 3)
    for _ in range(20):
        lam = Fraction(rng.randint(1, 9), 10)
        low = realize_differintegrator(Differintegrator(lam), 3)
        high = realize_differintegrator(Differintegrator(lam, freq_range="high"), 3)
        assert tf_equal(sym_low.substitute({"lam": lam}), low)
        assert tf_equal(sym_high.substitute({"lam": lam}), high)


@pytest.mark.parametrize("sign", ("integrator", "differentiator"))
def test_symbolic_high_band_keeps_its_time_constant(sign):
    # the high band is symbolic in lam at any T, and substituting lam gives
    # the numeric realization at that T
    for T in (Fraction(1, 10), Fraction(7, 3), Fraction(1)):
        for n in (1, 3, 6):
            sym = realize_differintegrator(Differintegrator(None, sign, "high", T), n)
            assert ("beyond-validated-order" in sym.notes) == (n > 5)
            for lam in (Fraction(37, 100), HALF, Fraction(1)):
                numeric = realize_differintegrator(Differintegrator(lam, sign, "high", T), n)
                assert tf_equal(sym.substitute({"lam": lam}), numeric), (T, n, lam)


_POINT = {
    "lam": Fraction(37, 100), "mu": Fraction(7, 10), "alpha": Fraction(2, 7), "x": Fraction(1, 20),
    "Kp": Fraction(3, 2), "Ki": Fraction(2), "Kd": Fraction(1, 3), "Kc": Fraction(5, 4),
}


@pytest.mark.parametrize("n", range(3, 9))
def test_symbolic_case_set_specializes_to_numeric(n):
    # every family with all of its parameters symbolic, at the north-star
    # orders 3-8 and both bands where a family has them, substituted at one
    # point where no exponent is an integer
    p = _POINT
    cases = []
    for band in ("low", "high"):
        for sign in ("integrator", "differentiator"):
            cases.append((
                realize_differintegrator,
                Differintegrator(None, sign, band),
                Differintegrator(p["lam"], sign, band),
            ))
        cases.append((
            lambda spec, order, band=band: realize_fopid(spec, band, order),
            FOPID(None, None, None, None, None),
            FOPID(p["Kp"], p["Ki"], p["Kd"], p["lam"], p["mu"]),
        ))
    cases += [
        (realize_fopd_bracket, FOPDBracket(None, None, None), FOPDBracket(p["Kp"], p["Kd"], p["mu"])),
        (realize_leadlag, LeadLag(None, None, None, None), LeadLag(p["Kc"], p["lam"], p["x"], p["alpha"])),
    ]
    for realize, symbolic, numeric in cases:
        sym, num = realize(symbolic, n), realize(numeric, n)
        got = sym.substitute(p)
        assert sym.ring == "symbolic" and got.ring == "rational"
        assert tf_equal(got, num) and got.gain == num.gain, (symbolic, n)


def _degenerate_substitutions(n: int):
    """(symbolic tf, substitution, numeric tf) at integer exponents, where
    the symbolic form specializes to a ratio with a common factor in s."""
    one = Fraction(1)
    for band in ("low", "high"):
        for sign in ("integrator", "differentiator"):
            yield (
                symbolic_differintegrator(band, n, sign),
                {"lam": one},
                realize_differintegrator(Differintegrator(one, sign=sign, freq_range=band), n),
            )
        gains = (Fraction(2), Fraction(1, 3), Fraction(5))
        sym = realize_fopid(FOPID(*gains, None, None), band, n)
        for lam, mu in ((one, one), (one, HALF), (HALF, one)):
            numeric = realize_fopid(FOPID(*gains, lam, mu), band, n)
            yield sym, {"lam": lam, "mu": mu}, numeric
    # the lead-lag at alpha = 1, and where its kernel is 1: alpha = 0 or x = 1
    kc, lam, zero = Fraction(2), Fraction(1, 10), Fraction(0)
    sym = realize_leadlag(LeadLag(kc, lam, None, None), n)
    cases = ((one, Fraction(1, 20)), (one, HALF), (zero, HALF), (HALF, one), (zero, one), (one, one))
    for alpha, x in cases:
        yield sym, {"alpha": alpha, "x": x}, realize_leadlag(LeadLag(kc, lam, x, alpha), n)


@pytest.mark.parametrize("n", range(1, 7))
def test_symbolic_substitution_at_integer_exponents_matches_numeric(n):
    for sym, values, numeric in _degenerate_substitutions(n):
        got = sym.substitute(values)
        assert (got.num, got.den, got.gain) == (numeric.num, numeric.den, numeric.gain), values


def _generic_integrator(band: str, T, n: int):
    """s^-1 through the generic Pade solve of its band's kernel: (1 + v)^1
    in v = 1/s with s^n cleared, or (1 + sT)^-1."""
    if band == "high":
        series = binomial_series(-1, 2 * n)
        return pade(PowerSeries(tuple(c * T**k for k, c in enumerate(series))), n, n)
    ref = pade(binomial_series(1, 2 * n), n, n)
    width = max(len(ref.num), len(ref.den))
    num, den = (side + (0,) * (width - len(side)) for side in (ref.num, ref.den))
    return make_tf(polys.reverse(num), polys.reverse(den), notes=ref.notes)


def _same(tf, ref):
    assert (tf.num, tf.den, tf.notes) == (ref.num, ref.den, ref.notes)


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_exponents_match_the_generic_pade(n):
    one = Fraction(1)
    for band, T in (("low", one), ("high", one), ("high", Fraction(1, 10))):
        ref = _generic_integrator(band, T, n)
        for sign, want in (("integrator", ref), ("differentiator", ref.reciprocal())):
            spec = Differintegrator(one, sign=sign, freq_range=band, T=T)
            _same(realize_differintegrator(spec, n), want)
    for band in ("low", "high"):
        integ = _generic_integrator(band, one, n)
        diff = integ.reciprocal()
        for gains in ((Fraction(2), Fraction(1, 3), Fraction(5)), (None, None, None)):
            kp, ki, kd = (
                ParamPoly.var(name) if g is None else g for name, g in zip(("Kp", "Ki", "Kd"), gains)
            )
            num = polys.add(
                polys.add(
                    polys.scale(polys.mul(integ.num, diff.den), ki),
                    polys.scale(polys.mul(diff.num, integ.den), kd),
                ),
                polys.scale(polys.mul(integ.den, diff.den), kp),
            )
            notes = tuple(f"int:{x}" for x in integ.notes) + tuple(f"diff:{x}" for x in diff.notes)
            want = make_tf(num, polys.mul(integ.den, diff.den), notes=notes)
            _same(realize_fopid(FOPID(*gains, one, one), band, n), want)
    lam = Fraction(1, 10)

    def leadlag(x):
        kernel = pade(leadlag_kernel_series(1, x, 2 * n), n, n)
        return make_tf(
            tuple(c * lam**k for k, c in enumerate(kernel.num)),
            tuple(c * lam**k for k, c in enumerate(kernel.den)),
            notes=kernel.notes,
        )

    want = leadlag(Fraction(1, 4))
    _same(realize_leadlag(LeadLag(Fraction(2), lam, Fraction(1, 4), one), n), want)
    assert want.notes == ((f"pade-defect={n - 1}",) if n > 1 else ())
    # x left symbolic: every coefficient has degree <= 1 in x, and
    # coefficient i of the kernel series degree <= i, so coefficient
    # i <= 2n of Q*f - P has degree <= 2n + 1 in x
    sym = realize_leadlag(LeadLag(Fraction(2), lam, None, one), n)
    assert _max_degree(sym, "x") <= 1
    _agrees_at_points(sym, "x", 2 * n + 1, leadlag)


def _max_degree(tf, symbol: str) -> int:
    i = SYMBOLS.index(symbol)
    return max(
        max(exponents[i] for exponents, _ in c.items()) if isinstance(c, ParamPoly) and c else 0
        for c in tf.num + tf.den
    )


def _agrees_at_points(sym, symbol: str, degree: int, reference):
    """Point oracle for a symbolic approximant P/Q of a series f.

    Substitutes `symbol` at degree + 1 distinct rationals in (0, 1) and
    requires tf_equal with the numeric approximant reference(value), notes
    included; the references here match f through order 2n. Equality then
    means that Q*f - P vanishes through order 2n at each point, and when
    its coefficients are polynomials of degree <= `degree` in the symbol,
    they vanish identically.
    """
    for t in range(degree + 1):
        value = Fraction(1, t + 2)
        ref = reference(value)
        assert tf_equal(sym.substitute({symbol: value}), ref), value
        assert sym.notes == ref.notes, value


@pytest.mark.parametrize("n", range(1, 6))
def test_symbolic_pade_agrees_with_the_closed_form(n):
    """The hypergeometric closed form of (1 + z)^a at [n/n], with a left
    symbolic, is the generic Pade approximant at every a.

    Each closed-form coefficient has degree <= n in a (asserted), and
    coefficient i of the series has degree i, so coefficient i <= 2n of
    Q*f - P has degree <= n + i <= 3n: D = 3n, checked at 3n + 1 points
    against the numeric solve of the Toeplitz system, an independent route.
    """
    p, q, notes = _kernel_pade(ParamPoly.var("lam"), n)
    closed = make_tf(p, q, notes=notes)
    assert _max_degree(closed, "lam") <= n
    _agrees_at_points(closed, "lam", 3 * n, lambda a: pade(binomial_series(a, 2 * n), n, n))


def _term_ratio_pade(a, n: int) -> tuple[list, list]:
    """The reference [n/n] Pade approximant of (1 + z)^a, p[0] = q[0] = 1:
    P(z) = 2F1(-n, -a-n; -2n; -z) and Q(z) = 2F1(-n, a-n; -2n; -z) by the
    term ratio of the series, on Fractions, or on ParamPolys for a
    ParamPoly a (coefficient k then has degree k in it)."""
    sides = []
    for b in (-a - n, a - n):
        c = Fraction(1)
        coeffs = [c]
        for k in range(n):
            c = c * ((k + b) * Fraction(k - n, (2 * n - k) * (k + 1)))
            coeffs.append(c)
        sides.append(coeffs)
    return sides[0], sides[1]


# the integers 2 and -3 zero the tail of q and of p from n >= 2 and n >= 3 on
_GRID_EXPONENTS = [Fraction(1, 2), Fraction(37, 100), Fraction(-37, 100), Fraction(1, 10),
                   Fraction(9, 10), Fraction(-71, 3), Fraction(123457, 1000000),
                   Fraction(2), Fraction(-3)]


@pytest.mark.parametrize("a", _GRID_EXPONENTS, ids=str)
def test_numeric_kernel_is_the_primitive_term_ratio(a):
    """The int recurrence at a = p/q is the Fraction term ratio divided by
    the content of p and q together, entry for entry and as ints."""
    for n in [*range(1, 21), 40, 60, 120, 300]:
        p, q, notes = _kernel_pade(a, n)
        ref_p, ref_q = _term_ratio_pade(a, n)
        want = polys.primitive(ref_p + ref_q)[1]
        assert (tuple(p), tuple(q), notes) == (want[: n + 1], want[n + 1:], ()), n
        assert all(type(c) is int for c in p + q), n


def _exponents():
    lam, mu, x = (ParamPoly.var(name) for name in ("lam", "mu", "x"))
    # the last two have terms that share a factor, so their lift keeps a
    # content, which make_tf divides out
    return {
        "lam": lam,
        "-lam": -lam,
        "mu": mu,
        "mu-1": mu - 1,
        "2lam+x": 2 * lam + x,
        "2lam": 2 * lam,
        "lam/2": lam / 2,
    }


def _ring_types(c):
    if isinstance(c, ParamPoly):
        return ("ParamPoly", sorted({type(v).__name__ for v in c.terms.values()}))
    return type(c).__name__


@pytest.mark.parametrize("name", list(_exponents()))
@pytest.mark.parametrize("n", range(1, 21))
def test_symbolic_kernel_matches_the_generic_recurrence(name, n):
    """The kernel built on ints in the exponent and lifted at a equals the
    Fraction recurrence at a up to content, and has content 1 unless the
    terms of a share a factor. With content 1 it is on the integers: an int
    constant entry, then ParamPolys with int coefficients."""
    a = _exponents()[name]
    p, q, notes = _kernel_pade(a, n)
    ref_p, ref_q = _term_ratio_pade(a, n)
    content = polys.sequence_content([ref_p, ref_q])
    kept = polys.sequence_content([p, q])
    assert kept == 1 or name in ("2lam", "lam/2")
    assert notes == ()
    for got, ref in ((p, ref_p), (q, ref_q)):
        assert len(got) == n + 1
        assert list(got) == [c * kept / content for c in ref]
        assert type(got[0]) is int
        if kept == 1:
            assert [_ring_types(c) for c in got[1:]] == [("ParamPoly", ["int"])] * n


@pytest.mark.parametrize("n", (1, 2, 6))
def test_homogenize_matches_the_termwise_product(n):
    mu, kp, kd = (ParamPoly.var(name) for name in ("mu", "Kp", "Kd"))
    p, _, _ = _kernel_pade(mu, n)
    for u, v in ((kd, kp), (kd, Fraction(3, 2)), (Fraction(5), kp)):
        want = tuple(c * u**k * v ** (n - k) for k, c in enumerate(p))
        got = _homogenize(p, u, v, n)
        assert got == want
        assert [_ring_types(c) for c in got] == [_ring_types(c) for c in want]
    # a numeric u/v is read in lowest terms: 6/4 as 3/2, so ints stay ints
    p, _, _ = _kernel_pade(Fraction(1, 3), n)
    got = _homogenize(p, 6, 4, n)
    assert got == tuple(c * 3**k * 2 ** (n - k) for k, c in enumerate(p))
    assert all(type(c) is int for c in got)
    # a shorter list, as for the a = -1 kernel, keeps v^n
    assert _homogenize((1, 1), kd, kp, n) == (kp**n, kd * kp ** (n - 1))
