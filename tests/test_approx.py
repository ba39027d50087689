"""Pade approximants, transfer-function normalization, and the
continued-fraction expansion round trip."""

import math
import random
from fractions import Fraction

import pytest

from fracrat import (
    DegenerateMathError,
    GainTag,
    ParamPoly,
    PowerSeries,
    TransferFunction,
    ValidationError,
    cfe_to_tf,
    make_tf,
    pade,
    polys,
    rational_to_cfe,
    tf_equal,
)
from fracrat.errors import InconsistentSystemError
from fracrat.exact import solve_particular
from fracrat.series import binomial_series


def _exp_series(n: int) -> PowerSeries:
    """Series of exp(t) through order n: coefficient k is 1/k!."""
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        coeffs.append(coeffs[-1] / k)
    return PowerSeries(tuple(coeffs))


def _random_series(rng: random.Random, order: int) -> PowerSeries:
    coeffs = [Fraction(rng.randint(1, 6))]
    coeffs += [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
    ]
    return PowerSeries(tuple(coeffs))


def _match_order(series: PowerSeries, tf) -> int:
    """Highest order through which den*series and num agree.

    Independent check of the defining Pade property; works directly on the
    coefficient convolution so it does not share code with the solver.
    """
    c = series.coeffs
    num = tf.num
    den = tf.den
    for i in range(len(c)):
        conv = sum(
            den[j] * c[i - j] for j in range(len(den)) if 0 <= i - j < len(c)
        )
        want = num[i] if i < len(num) else Fraction(0)
        if conv != want:
            return i - 1
    return len(c) - 1


def test_pade_exponential_2_2():
    t = pade(_exp_series(4), 2, 2)
    assert t.num == (12, 6, 1)
    assert t.den == (12, -6, 1)
    assert t.notes == ()


def test_pade_matches_series_through_m_plus_k():
    # random draws are rarely singular; (1 + t)^a at an integer a is a
    # rational function, so most of its [m/k] systems have a defect, and the
    # particular solution must come out reduced and still match through
    # m + k (pade cancels no common factor)
    rng = random.Random(77)
    cases = []
    for _ in range(60):
        m = rng.randint(0, 3)
        k = rng.randint(0, 3)
        cases.append((_random_series(rng, m + k), m, k))
    for a in (1, -1, 2, -2, 3, -3):
        for m in range(5):
            for k in range(5):
                cases.append((binomial_series(a, m + k), m, k))
    defects = 0
    for s, m, k in cases:
        t = pade(s, m, k)
        defects += any(n.startswith("pade-defect") for n in t.notes)
        assert t.num_degree <= m and t.den_degree <= k
        assert _match_order(s, t) >= m + k
        assert polys.degree(polys.gcd_field(t.num, t.den)) < 1
    assert defects >= 40


def test_pade_unequal_degrees():
    t = pade(_exp_series(3), 2, 1)
    s = _exp_series(3)
    assert t.num_degree == 2 and t.den_degree == 1
    assert _match_order(s, t) >= 3


def test_pade_collapses_rational_input():
    # (1 + 2t)/(1 + t) expanded, then over-fitted at [2/2]: the solver hits
    # a rank-deficient system and must fall back to the reduced approximant
    s = PowerSeries((Fraction(1), Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)))
    t = pade(s, 2, 2)
    assert tf_equal(t, make_tf((1, 2), (1, 1)))
    assert "pade-defect=1" in t.notes


def test_pade_rejects_vanishing_denominator():
    one, zero = Fraction(1), Fraction(0)
    # 1 + t^2 at [1/1] has a nonzero constant term, yet its q0 = 1 system
    # is inconsistent
    for coeffs, m, k in (((zero, one), 0, 1), ((one, zero, one), 1, 1)):
        with pytest.raises(DegenerateMathError, match="^denominator vanishes at the expansion point$"):
            pade(PowerSeries(coeffs), m, k)


def test_pade_rejects_symbolic_series():
    # symbolic approximants come from the closed forms in controllers; the
    # generic solve is numeric only, at every degree
    lam = ParamPoly.var("lam")
    for coeffs, m, k in (((1, 0, lam), 1, 1), ((1, lam), 1, 0), ((lam, 1, 1), 0, 2)):
        with pytest.raises(ValidationError, match="numeric coefficients"):
            pade(PowerSeries(coeffs), m, k)


def test_pade_refuses_a_float_series_at_every_degree():
    # the message binomial_series(0.5, n) gives, whether or not the
    # approximant needs a division
    for coeffs, m, k in (((0.5, 1.0), 1, 0), ((1.0, 0.5, 0.25), 1, 1), ((1.0, 0.5, 0.25), 0, 2)):
        with pytest.raises(TypeError, match="^expected an exact scalar, got float$"):
            pade(PowerSeries(coeffs), m, k)


def _toeplitz_pade(c, m: int, k: int):
    """The [m/k] approximant from its definition Q*c - P = O(z^(m+k+1)):
    the k x k Toeplitz system for q_1..q_k with q_0 = 1, solved with free
    variables zeroed, and the numerator read off the product. None when
    the system is inconsistent (every solution has q_0 = 0)."""
    z = [Fraction(0)] * k + list(c)  # z[k + i] = c_i, and 0 for i < 0
    q, defect = [Fraction(1)], 0
    if k:
        rows = [[z[k + m + r - j] for j in range(k)] for r in range(k)]
        try:
            sol, defect = solve_particular(rows, [-c[m + 1 + r] for r in range(k)])
        except InconsistentSystemError:
            return None
        q += sol
    num = polys.mul(q, c[: m + 1])[: m + 1]
    return make_tf(num, q, notes=(f"pade-defect={defect}",) if defect else ())


def _pade_draws(rng: random.Random):
    """(coefficients through order m + k, m, k) with m, k <= 5: a dense
    series, a sparse one, or the expansion of a rational function of
    degrees <= 3, which makes defects and vanishing denominators common."""
    m, k = rng.randint(0, 5), rng.randint(0, 5)
    order = m + k
    kind = rng.randrange(3)
    if kind == 0:
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order + 1)]
    elif kind == 1:
        c = [
            Fraction(rng.randint(-3, 3)) if rng.random() < 0.3 else Fraction(0)
            for _ in range(order + 1)
        ]
    else:
        p = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3) + 1)]
        q = [Fraction(rng.choice((1, -1, 2, 3)))]
        q += [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))]
        c = []
        for i in range(order + 1):
            acc = p[i] if i < len(p) else 0
            acc -= sum(q[j] * c[i - j] for j in range(1, min(i, len(q) - 1) + 1))
            c.append(acc / q[0])
    return c, m, k


def test_pade_matches_the_toeplitz_definition():
    rng = random.Random(26)
    defects = degenerate = 0
    for _ in range(5000):
        c, m, k = _pade_draws(rng)
        want = _toeplitz_pade(c, m, k)
        if want is None:
            degenerate += 1
            with pytest.raises(DegenerateMathError, match="^denominator vanishes"):
                pade(PowerSeries(tuple(c)), m, k)
            continue
        got = pade(PowerSeries(tuple(c)), m, k)
        defects += bool(want.notes)
        assert (got.num, got.den, got.notes) == (want.num, want.den, want.notes), (c, m, k)
    assert defects >= 500 and degenerate >= 300


def test_pade_preconditions():
    with pytest.raises(ValidationError):
        pade(_exp_series(3), -1, 1)
    with pytest.raises(ValidationError):
        pade(_exp_series(2), 2, 2)


def test_make_tf_normalizes_exact_coefficients():
    t = make_tf((2, 4), (6, 8))
    assert t.num == (1, 2)
    assert t.den == (3, 4)
    assert t.ring == "rational"
    t = make_tf((2, 4), (6,))
    assert (t.num, t.den) == ((1, 2), (3,))
    assert all(type(c) is int for c in t.num + t.den)
    # trailing zeros drop, leading denominator coefficient stays positive
    t = make_tf((1, 0), (-2, -4, 0))
    assert t.num == (-1,)
    assert t.den == (2, 4)
    # zero numerator collapses to the canonical zero function
    t = make_tf((0,), (5,))
    assert t.num == (0,)
    assert t.den == (1,)
    # a bool is the int it stands for; a str or None is no coefficient
    t = make_tf((True, 3), (2,))
    assert (t.num, t.den) == ((1, 3), (2,))
    assert all(type(c) is int for c in t.num + t.den)
    for bad in ("1", None):
        with pytest.raises(TypeError, match=f"^expected an exact scalar, got {type(bad).__name__}$"):
            make_tf((bad,), (1,))


def _scalars(entries):
    """Each scalar entry, and each term coefficient of a ParamPoly entry."""
    out = []
    for c in entries:
        out += [v for _, v in c.items()] if isinstance(c, ParamPoly) else [c]
    return out


def _reference_content(entries):
    """gcd of the numerators over lcm of the denominators, on Fractions."""
    g, den = 0, 1
    for r in map(Fraction, _scalars(entries)):
        g, den = math.gcd(g, r.numerator), math.lcm(den, r.denominator)
    return Fraction(g, den)


def _divided(c, content):
    if isinstance(c, ParamPoly):
        return ParamPoly({e: Fraction(v) / content for e, v in c.items()})
    return Fraction(c) / content


def _leading(c):
    """A scalar, or the coefficient of a ParamPoly's graded-lex greatest term."""
    if isinstance(c, ParamPoly):
        return max(c.items(), key=lambda t: (sum(t[0]), t[0]))[1]
    return c


def _content_normalized(num, den):
    """The reference for make_tf on an exact TF, on Fractions: divide by the
    content, then flip the sign to a positive leading denominator
    coefficient; a zero numerator is (0)/(1). Constant ParamPolys are
    their values."""

    def side(coeffs):
        coeffs = [c.constant_value() if isinstance(c, ParamPoly) and c.is_constant() else c
                  for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return coeffs

    num, den = side(num), side(den)
    if not num:
        return (0,), (1,)
    content = _reference_content(num + den)
    if _leading(den[-1]) < 0:
        content = -content
    return tuple(_divided(c, content) for c in num), tuple(_divided(c, content) for c in den)


def _assert_coprime_ints(coeffs, context):
    """Every scalar entry and every term coefficient is an int, and their gcd is 1."""
    ints = _scalars(coeffs)
    assert all(type(v) is int for v in ints), context
    assert math.gcd(*ints) == 1, context


def test_make_tf_matches_the_content_normalization():
    rng = random.Random(30)
    symbols = [ParamPoly.var(name) for name in ("lam", "mu", "Kp")]

    def coeff():
        n = rng.choice((0, rng.randint(-50, 50), rng.randint(-10**30, 10**30)))
        return n if rng.random() < 0.5 else Fraction(n, rng.randint(1, 10**rng.randint(1, 12)))

    def symbolic():
        """A non-constant ParamPoly with int and Fraction term coefficients."""
        p = (coeff() or 1) * rng.choice(symbols) ** rng.randint(1, 3)
        for _ in range(rng.randint(0, 3)):
            p = p + coeff() * rng.choice(symbols) ** rng.randint(0, 2) * rng.choice(symbols)
        return symbolic() if p.is_constant() else p

    def side(low, p_symbolic=0.0):
        return tuple(
            symbolic() if rng.random() < p_symbolic else coeff()
            for _ in range(rng.randint(low, 6))
        )

    # a zero numerator, and a negative leading denominator coefficient
    cases = [((0,), (-3,)), ((), (Fraction(-2, 3), 5)), ((2, 4), (0, -6))]
    cases += [((Fraction(1, 2),), (-1,))]
    # integral Fractions at content 1, in both rings
    lam = symbols[0]
    cases += [((Fraction(3), Fraction(2)), (Fraction(5),))]
    cases += [((Fraction(3, 1), lam), (Fraction(-2, 1), Fraction(5, 1) * lam - 1))]
    cases += [((Fraction(6), 2 * lam), (Fraction(-4), 3 * lam**2))]
    cases += [(side(0), side(1)) for _ in range(400)]
    cases += [(side(0, 0.4), side(1, 0.4)) for _ in range(400)]
    # a negative leading symbolic coefficient on the denominator
    cases += [(side(0, 0.4), side(0, 0.4) + (-symbolic() if rng.random() < 0.5 else symbolic(),))
              for _ in range(200)]
    symbolic_cases = flipped = 0
    for num, den in cases:
        if not polys.trim(den):
            continue
        t = make_tf(num, den)
        symbolic_cases += t.ring == "symbolic"
        flipped += t.ring == "symbolic" and _leading(polys.trim(den)[-1]) < 0
        assert (t.num, t.den) == _content_normalized(num, den), (num, den)
        _assert_coprime_ints(t.num + t.den, (num, den))
        assert _leading(t.den[-1]) > 0
    assert symbolic_cases >= 400 and flipped >= 150, (symbolic_cases, flipped)
    # a scalar entry of a symbolic TF is an int too
    t = make_tf((Fraction(4, 3),), (Fraction(2, 3) * ParamPoly.var("lam"), Fraction(-8, 3)))
    assert t.num == (-2,) and type(t.num[0]) is int


def test_primitive_divides_param_poly_entries_by_their_content():
    rng = random.Random(33)
    lam, mu = ParamPoly.var("lam"), ParamPoly.var("mu")

    def scalar():
        return Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 12)))

    for _ in range(300):
        entries = [
            scalar() * lam**2 + scalar() * lam * mu + scalar() + lam if rng.random() < 0.5
            else scalar()
            for _ in range(rng.randint(1, 5))
        ]
        entries.append(rng.choice((1, 6, Fraction(3, 4))) * lam + scalar())
        content, part = polys.primitive(entries)
        assert content == _reference_content(entries) > 0, entries
        assert [content * c for c in part] == entries, entries
        _assert_coprime_ints(part, entries)
    # content 1 returns each entry as given, an integral Fraction as its int
    entries = (Fraction(3), 2 * lam, Fraction(-5, 1))
    content, part = polys.primitive(entries)
    assert content == 1 and part == (3, 2 * lam, -5)
    assert type(content) is Fraction and [type(c) for c in part] == [int, ParamPoly, int]
    assert part[1] is entries[1]


def test_make_tf_normalizes_symbolic_coefficients():
    lam = ParamPoly.var("lam")
    # content 2 divides out, and the denominator's graded-lex greatest
    # term (-4*lam) is made positive
    t = make_tf((2 * lam,), (6 - 4 * lam,))
    assert t.ring == "symbolic"
    assert t.num == (-lam,)
    assert t.den == (2 * lam - 3,)
    # every term bounds the content: here the -3*lam term leaves it at 1
    t = make_tf((2 * lam,), (6 - 3 * lam,))
    assert t.num == (-2 * lam,)
    assert t.den == (3 * lam - 6,)
    # the content spans scalar and polynomial entries, at either sign
    p = Fraction(4, 3) * lam**2 - Fraction(2, 3) * lam
    for sign in (1, -1):
        t = make_tf((Fraction(2, 9),), (sign * p,))
        assert t.num == (sign,)
        assert t.den == (6 * lam**2 - 3 * lam,)


@pytest.mark.parametrize(
    "num, den, gain",
    [
        ((Fraction(1, 2), 3), (2, 5), GainTag("Kp^mu", 2.0)),
        ((ParamPoly.var("lam"), 1), (2 * ParamPoly.var("lam"), 3), GainTag("Kp^mu")),
        ((0.5, 1.0), (2.0, 3.0), None),
    ],
)
def test_make_tf_returns_a_normalized_tf_unchanged(num, den, gain):
    tf = make_tf(num, den, gain=gain, notes=("pade-defect=1",))
    again = make_tf(tf.num, tf.den, gain=tf.gain, notes=tf.notes)
    assert (again.num, again.den, again.ring, again.gain, again.notes) == (
        tf.num, tf.den, tf.ring, tf.gain, tf.notes
    )
    assert [type(c) for c in again.num + again.den] == [type(c) for c in tf.num + tf.den]


def test_make_tf_rejects_zero_denominator():
    with pytest.raises(DegenerateMathError):
        make_tf((1,), (0, 0))


def test_make_tf_ring_rules():
    # the ring is read off the coefficients
    assert make_tf((1.0,), (2.0,)).ring == "float"
    assert make_tf((ParamPoly.var("lam"),), (1,)).ring == "symbolic"
    assert make_tf((1,), (Fraction(1, 2),)).ring == "rational"
    # a constant ParamPoly is a rational scalar
    t = make_tf((ParamPoly.constant(3),), (ParamPoly.constant(6),))
    assert t.ring == "rational"
    assert t.num == (1,) and t.den == (2,)
    # floats are only trimmed, never rescaled
    t = make_tf((2.0, 4.0), (6.0, 8.0))
    assert t.num == (2.0, 4.0)
    assert t.den == (6.0, 8.0)
    # one float makes the whole TF float, exact entries included
    t = make_tf((Fraction(1, 2), 0), (2, 1.0))
    assert t.ring == "float"
    assert t.num == (0.5,) and t.den == (2.0, 1.0)
    assert all(type(c) is float for c in t.num + t.den)
    # a float beside a symbol has no ring
    with pytest.raises(ValidationError):
        make_tf((1.0,), (ParamPoly.var("lam"),))


def test_tf_equality_ignores_notes():
    assert make_tf((1,), (2,)) == make_tf((1,), (2,), notes=("pade-defect=1",))


def test_tf_equal_cross_multiplies():
    a = make_tf((2, 4), (1, 2))
    b = make_tf((1, 2), (Fraction(1, 2), 1))
    assert tf_equal(a, b)
    assert not tf_equal(a, make_tf((1,), (1,)))
    # a zero numerator on either side
    zero = make_tf((0,), (1,))
    assert tf_equal(zero, make_tf((0,), (3, 1)))
    assert not tf_equal(zero, a) and not tf_equal(a, zero)
    # a Fraction entry against a constant ParamPoly entry built directly
    lam = ParamPoly.var("lam")
    sym = make_tf((lam, 1), (2,))
    assert tf_equal(sym, TransferFunction((lam, ParamPoly.constant(1)), (Fraction(2),), "symbolic"))
    assert tf_equal(sym, make_tf((2 * lam, 2), (4,)))
    assert not tf_equal(sym, make_tf((lam, 2), (2,)))
    # tuples of unequal length: the same function, and a different one
    assert tf_equal(make_tf((1, 1), (1,)), make_tf((1, 2, 1), (1, 1)))
    assert not tf_equal(make_tf((1, 1), (1,)), make_tf((1, 1, 0, 1), (1,)))
    with pytest.raises(ValidationError):
        tf_equal(a, make_tf((1.0,), (1.0,)))
    with pytest.raises(ValidationError):
        tf_equal(make_tf((1.0,), (1.0,)), a)


def test_reciprocal_swaps_sides():
    t = make_tf((1, 2), (3, 4))
    r = t.reciprocal()
    assert r.num == (3, 4)
    assert r.den == (1, 2)
    tagged = make_tf((1,), (1,), gain=GainTag("Kp^mu", 2.0))
    with pytest.raises(ValidationError):
        tagged.reciprocal()


def test_substitute_specializes_symbolic_tf():
    lam = ParamPoly.var("lam")
    t = make_tf((lam, 1), (lam + 1,))
    s = t.substitute({"lam": Fraction(1, 2)})
    assert s.ring == "rational"
    assert s.num == (1, 2)
    assert s.den == (3,)
    # a rational TF checks its mapping through the same path
    for tf in (t, make_tf((1, 2), (3,))):
        with pytest.raises(ValidationError):
            tf.substitute({"bogus": 1})
        with pytest.raises(TypeError):
            tf.substitute({"lam": 1.5})
    with pytest.raises(ValidationError):
        make_tf((1.0,), (1.0,)).substitute({"lam": 1})


def test_str_rendering():
    assert str(make_tf((1, 2), (3, 4))) == "(2*s + 1) / (4*s + 3)"
    # a negative coefficient after the first prints as a subtraction
    assert str(make_tf((-1, 2, -3), (Fraction(-1, 2), 1))) == "(-6*s^2 + 4*s - 2) / (2*s - 1)"
    tagged = make_tf((1,), (1,), gain=GainTag("Kp^mu", None))
    assert str(tagged).startswith("Kp^mu * ")
    # a symbolic coefficient with a negative leading term is subtracted too,
    # and a unit coefficient of a power of s is left out
    lam = ParamPoly.var("lam")
    assert str(make_tf((-lam, 1), (1, lam))) == "(s - (lam)) / ((lam)*s + 1)"
    assert str(make_tf((-lam, -1), (1, 1 - lam, 1))) == "(-s - (lam)) / (s^2 - (lam - 1)*s + 1)"


def test_cfe_quotients_of_half_differentiator():
    tf = make_tf((7, 56, 112, 64), (1, 24, 80, 64))
    quotients = rational_to_cfe(tf)
    assert quotients == (
        (Fraction(1),),
        (Fraction(1, 2), Fraction(2)),
        (Fraction(-4), Fraction(-8)),
        (Fraction(1), Fraction(2)),
    )
    assert cfe_to_tf(quotients) == tf


def test_cfe_round_trip_on_random_functions():
    rng = random.Random(11)
    for _ in range(40):
        quotients = []
        for i in range(rng.randint(1, 5)):
            g = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            h = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            quotients.append((g, h))
        tf = cfe_to_tf(tuple(quotients))
        assert cfe_to_tf(rational_to_cfe(tf)) == tf


def test_cfe_preconditions():
    sym = make_tf((ParamPoly.var("lam"),), (1,))
    with pytest.raises(ValidationError):
        rational_to_cfe(sym)
    tagged = make_tf((1,), (1, 1), gain=GainTag("Kc*x^alpha", 1.0))
    with pytest.raises(ValidationError):
        rational_to_cfe(tagged)
    with pytest.raises(DegenerateMathError, match="^degenerate expansion$"):
        rational_to_cfe(make_tf((0,), (1,)))
    with pytest.raises(DegenerateMathError):
        cfe_to_tf(())


def test_cfe_to_tf_folds_simple_fraction():
    # 1 + 1/2 = 3/2
    t = cfe_to_tf(((Fraction(1),), (Fraction(2),)))
    assert t.num == (3,)
    assert t.den == (2,)
    # only exact quotients fold, as only an exact TF expands
    lam = ParamPoly.var("lam")
    with pytest.raises(ValidationError, match="exact numeric quotients"):
        cfe_to_tf(((Fraction(1),), (lam,)))
    with pytest.raises(ValidationError, match="exact numeric quotients"):
        cfe_to_tf(((1.0,), (2.0,)))
