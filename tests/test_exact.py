"""Exact arithmetic layer: the multivariate polynomial ring, univariate
division and gcd, and the exact linear solvers."""

import random
from fractions import Fraction

import pytest

from fracrat import (
    FOPID,
    DegenerateMathError,
    Differintegrator,
    FOPDBracket,
    LeadLag,
    ParamPoly,
    ValidationError,
    polys,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
    symbolic_differintegrator,
)
from fracrat.errors import InconsistentSystemError
from fracrat.exact import SYMBOLS, solve_fraction_free, solve_particular

_ZERO = (0,) * len(SYMBOLS)


def _random_poly(rng: random.Random, symbols=("lam", "mu"), terms=4) -> ParamPoly:
    total = ParamPoly.zero()
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        term = ParamPoly.constant(coeff)
        for sym in symbols:
            term = term * ParamPoly.var(sym) ** rng.randint(0, 3)
        total = total + term
    return total


def test_symbol_alphabet_is_closed():
    # s is the index of a coefficient tuple, never a symbol
    for name in ("omega", "s"):
        with pytest.raises(ValidationError):
            ParamPoly.var(name)


def test_ring_axioms_hold_on_random_polynomials():
    rng = random.Random(101)
    for _ in range(200):
        p = _random_poly(rng)
        q = _random_poly(rng)
        r = _random_poly(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p - p == ParamPoly.zero()
        assert p * ParamPoly.one() == p
        assert p * ParamPoly.zero() == ParamPoly.zero()


def test_integer_scalars_mix_into_polynomials():
    lam = ParamPoly.var("lam")
    assert 50 * lam == ParamPoly.constant(50) * lam
    assert 24 + lam == lam + 24
    assert lam - 4 == -(4 - lam)
    assert (lam / 2) * 2 == lam
    assert (lam + 1) ** 3 == lam**3 + 3 * lam**2 + 3 * lam + 1
    # a float is no exact scalar, and a zero divisor has no quotient
    with pytest.raises(TypeError, match="^expected an exact scalar, got float$"):
        ParamPoly({_ZERO: 1.5})
    with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
        lam / 0


def test_constants_hash_like_the_scalars_they_equal():
    for value in (0, 2, Fraction(1, 2)):
        const = ParamPoly.constant(value)
        assert const == value and hash(const) == hash(value)
        assert len({const, value}) == 1
    # a non-constant polynomial still hashes, consistently with its equality
    p = ParamPoly.var("lam") + 2
    assert hash(p) == hash(2 + ParamPoly.var("lam"))
    assert len({p, 2 + ParamPoly.var("lam"), ParamPoly.var("lam")}) == 2
    with pytest.raises(ValidationError, match="^polynomial is not constant$"):
        p.constant_value()


def test_evaluate_and_substitute():
    lam = ParamPoly.var("lam")
    mu = ParamPoly.var("mu")
    p = 3 * lam**2 * mu - mu + 7
    assert p.substitute({"lam": 2, "mu": Fraction(1, 2)}) == 6 - Fraction(1, 2) + 7
    # substitution may map a symbol to another polynomial
    mirrored = p.substitute({"lam": -lam})
    assert mirrored == p  # even in lam
    shifted = p.substitute({"mu": mu + 1})
    assert shifted.substitute({"lam": 1, "mu": 0}) == p.substitute({"lam": 1, "mu": 1})


def test_substitute_leaves_untouched_symbols_alone():
    p = ParamPoly.var("x") * 2 + ParamPoly.var("alpha")
    q = p.substitute({"x": 3})
    assert q == ParamPoly.var("alpha") + 6


def test_poly_gcd_is_monic_and_catches_common_factor():
    g = (Fraction(1), Fraction(1))  # s + 1
    a = polys.scale(polys.mul(g, (2, 1)), 3)
    b = polys.scale(polys.mul(g, (-5, 1)), Fraction(1, 2))
    assert polys.gcd_field(a, b) == g
    assert polys.gcd_field((2, 1), (3, 1)) == (1,)
    assert polys.gcd_field((6,), (4,)) == (1,)
    # one zero argument: gcd is the monic form of the other
    assert polys.gcd_field((), (2, 2)) == g
    assert polys.gcd_field((2, 2), ()) == g
    assert polys.gcd_field((3, Fraction(3, 2)), (0, 0)) == (2, 1)


def test_field_division_of_int_sequences_stays_exact():
    # a float quotient 1/49 leaves 1 - (1/49)*49 != 0, and the loop never ends
    assert polys.divmod_field((1,), (49,)) == ((Fraction(1, 49),), ())
    q, r = polys.divmod_field((1, 0, 3), (2, 7))
    assert polys.add(polys.mul(q, (2, 7)), r) == (1, 0, 3)
    assert q == (Fraction(-6, 49), Fraction(3, 7)) and r == (Fraction(61, 49),)
    # the whole sequence: quotient, content c and primitive int r of each
    # remainder c*r, ending at c = 0, r = ()
    assert list(polys.euclid((1, 0, 3), (2, 7))) == [
        ((Fraction(-6, 49), Fraction(3, 7)), Fraction(61, 49), (1,)),
        ((Fraction(98, 61), Fraction(343, 61)), 0, ()),
    ]
    assert list(polys.euclid((0, 0), (2, 7))) == [((), 0, ())]
    assert polys.divmod_field((), (2, 7)) == ((), ())
    with pytest.raises(DegenerateMathError, match="division by zero"):
        next(polys.euclid((1, 2), (0,)))
    with pytest.raises(DegenerateMathError, match="division by zero"):
        polys.divmod_field((1, 2), ())
    for out in (q, r, polys.gcd_field((2, 1), (3, 1)), polys.gcd_field((6, 12), (4, 8))):
        assert all(isinstance(c, (int, Fraction)) for c in out), out
    assert polys.gcd_field((2, 1), (3, 1)) == (Fraction(1),)
    assert polys.gcd_field((6, 12), (4, 8)) == (Fraction(1, 2), Fraction(1))


def test_poly_gcd_preconditions():
    with pytest.raises(DegenerateMathError):
        polys.gcd_field((), ())


def test_grlex_ordering_picks_total_degree_first():
    lam = ParamPoly.var("lam")
    mu = ParamPoly.var("mu")
    p = lam * mu**2 + lam**2  # total degrees 3 and 2
    assert p.leading_coeff() == 1
    (lead,) = (lam * mu**2).terms
    assert p.leading_key() == lead
    with pytest.raises(ValidationError, match="^zero polynomial has no leading term$"):
        ParamPoly.zero().leading_key()
    # str prints the terms in the same order, descending
    assert str(p) == "lam*mu^2 + lam^2"
    x = ParamPoly.var("x")
    assert str(mu**2 + lam * mu + lam**2 + x * mu * lam + 1) == "lam*mu*x + lam^2 + lam*mu + mu^2 + 1"


def test_exponents_are_non_negative_ints_below_the_field_bound():
    # each term is one packed key of 16-bit fields, so an exponent must be a
    # non-negative int and a total degree must stay below 2^16; one-term
    # polynomials reach the bound without building anything large
    bound = 2**16
    for bad in (-1, Fraction(3, 2), 1.5, bound):
        with pytest.raises(ValidationError):
            ParamPoly({(bad,) + _ZERO[1:]: 1})
    with pytest.raises(ValidationError):
        ParamPoly({(bound // 2, bound // 2) + _ZERO[2:]: 1})  # each field fits, their sum does not
    with pytest.raises(ValueError):
        ParamPoly({(1, 2): 1})
    top = ParamPoly({(bound - 1,) + _ZERO[1:]: 1})
    assert str(top) == f"lam^{bound - 1}"
    assert list(top.items()) == [((bound - 1,) + _ZERO[1:], 1)]
    half = ParamPoly({(0, bound // 2) + _ZERO[2:]: 3})
    below = ParamPoly({(0, bound // 2 - 1) + _ZERO[2:]: 2})
    assert half * below == 6 * ParamPoly.var("mu") ** (bound - 1)
    t, kd = ParamPoly.var("T"), ParamPoly.var("Kd")
    for left, right in ((half, half), (top, kd), (t + 1, top + 1)):
        with pytest.raises(ValidationError):
            left * right
    with pytest.raises(ValidationError):
        ParamPoly.var("x") ** bound
    with pytest.raises(ValidationError, match="^polynomial powers must be non-negative integers$"):
        ParamPoly.var("x") ** -1


def test_items_give_exponent_tuples_back():
    lam, mu = ParamPoly.var("lam"), ParamPoly.var("mu")
    p = 3 * lam**12 * mu - Fraction(1, 2) * mu**20 + 7
    assert dict(p.items()) == {
        (12, 1) + _ZERO[2:]: 3,
        (0, 20) + _ZERO[2:]: Fraction(-1, 2),
        _ZERO: 7,
    }
    assert ParamPoly(dict(p.items())) == p
    assert str(p) == "-1/2*mu^20 + 3*lam^12*mu + 7"


def test_str_rendering_is_stable():
    lam = ParamPoly.var("lam")
    assert str(840 * lam + 3360) == "840*lam + 3360"
    assert str(lam**2 - 1) == "lam^2 - 1"
    assert str(ParamPoly.zero()) == "0"
    # a negative first term with a unit coefficient keeps only its sign
    mu = ParamPoly.var("mu")
    assert str(3 * lam - lam**2 * mu - 1) == "-lam^2*mu + 3*lam - 1"


# -- the coefficient ring: int where integral, Fraction otherwise --------------
#
# The reference below does the same arithmetic with every coefficient a
# Fraction: terms are dicts from exponent tuples to nonzero Fractions.


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def _ref_scale(a, factor):
    return {key: c * factor for key, c in a.items() if c * factor}


def _ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _ref_pow(a, e):
    out = {(0,) * len(SYMBOLS): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_str(ref) -> str:
    """The printed form of a reference: terms in descending graded
    lexicographic order, each sign written once."""
    parts = []
    for key in sorted(ref, key=lambda k: (sum(k), k), reverse=True):
        c = ref[key]
        mono = "*".join(s if e == 1 else f"{s}^{e}" for s, e in zip(SYMBOLS, key) if e)
        mag = str(c.numerator if c.denominator == 1 else abs(c)).lstrip("-")
        body = mono if mono and abs(c) == 1 else f"{mag}*{mono}" if mono else mag
        parts.append(("-" if c < 0 else "+", body))
    text = " ".join(f"{sign} {body}" for sign, body in parts)
    return "0" if not parts else text[2:] if text[0] == "+" else "-" + text[2:]


def _assert_ring(got, ref):
    items = list(got.items())
    assert dict(items) == ref
    assert len(items) == len(ref)
    for _, c in items:
        assert type(c) in (int, Fraction), c
        assert type(c) is int or c.denominator != 1, c
    assert str(got) == _ref_str(ref)
    assert got == ParamPoly(ref)
    if ref:
        lead = max(ref, key=lambda k: (sum(k), k))
        assert got.leading_key() == ParamPoly({lead: 1}).leading_key()
        assert got.leading_coeff() == ref[lead]


def _ref_substitute(a, images):
    """a with each symbol whose index `images` maps replaced by its image,
    the others kept."""
    out = {}
    for key, c in a.items():
        term = {_ZERO: c}
        for i, e in enumerate(key):
            var = {tuple(int(j == i) for j in range(len(SYMBOLS))): Fraction(1)}
            term = _ref_mul(term, _ref_pow(images.get(i, var), e))
        out = _ref_add(out, term)
    return out


def _strategies(st):
    """(scalars, term dicts) over lam, mu and alpha, exponents up to 2."""
    scalars = st.one_of(
        st.integers(min_value=-40, max_value=40),
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
    )
    keys = st.tuples(*(st.integers(0, 2),) * 3).map(lambda k: k + (0,) * (len(SYMBOLS) - 3))
    return scalars, st.dictionaries(keys, scalars, max_size=5)


def _ref(terms):
    return {k: Fraction(v) for k, v in terms.items() if v}


def test_coefficient_ring_matches_the_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars, polys_ = _strategies(st)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys_, polys_, scalars, st.integers(0, 3))
    def check(ta, tb, c, e):
        ra, rb = _ref(ta), _ref(tb)
        a, b = ParamPoly(ta), ParamPoly(tb)
        _assert_ring(a, ra)
        _assert_ring(a + b, _ref_add(ra, rb))
        _assert_ring(a - b, _ref_add(ra, _ref_scale(rb, Fraction(-1))))
        _assert_ring(a * b, _ref_mul(ra, rb))
        _assert_ring(a**e, _ref_pow(ra, e))
        _assert_ring(a * c, _ref_scale(ra, Fraction(c)))
        _assert_ring(c * a, _ref_scale(ra, Fraction(c)))
        _assert_ring(a + c, _ref_add(ra, {(0,) * len(SYMBOLS): Fraction(c)} if c else {}))
        if c:
            _assert_ring(a / c, _ref_scale(ra, 1 / Fraction(c)))
        value = ParamPoly.constant(c).constant_value()
        assert type(value) is Fraction and value == c
        point = {name: Fraction(i + 2, 3) for i, name in enumerate(SYMBOLS[:3])}
        total = a.substitute(point).constant_value()
        assert type(total) is Fraction
        assert total == sum(
            (v * point["lam"] ** k[0] * point["mu"] ** k[1] * point["alpha"] ** k[2]
             for k, v in ra.items()),
            Fraction(0),
        )

    check()


def test_substitution_composes_like_the_fraction_reference():
    # images that leave symbols free, then a point, give what the composed
    # point gives at once, and both match the reference
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars, polys_ = _strategies(st)
    names = SYMBOLS[:3]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(
        polys_, st.dictionaries(st.sampled_from(names), polys_, max_size=2), st.tuples(*(scalars,) * 3)
    )
    def check(ta, timages, values):
        a = ParamPoly(ta)
        images = {name: ParamPoly(t) for name, t in timages.items()}
        point = dict(zip(names, values))
        partial = a.substitute(images)
        ref_images = {SYMBOLS.index(name): _ref(t) for name, t in timages.items()}
        _assert_ring(partial, _ref_substitute(_ref(ta), ref_images))
        composed = {
            name: images[name].substitute(point).constant_value() if name in images else value
            for name, value in point.items()
        }
        ref_point = {SYMBOLS.index(name): _ref({_ZERO: v}) for name, v in composed.items()}
        want = _ref_substitute(_ref(ta), ref_point)
        _assert_ring(partial.substitute(point), want)
        _assert_ring(a.substitute(composed), want)

    check()


def test_numeric_transfer_functions_keep_bigrat_tuples():
    # ParamPoly keeps ints; the normalized tuples of a numeric TF stay Fraction,
    # whether realized directly or substituted from the symbolic form
    half, tenth, twentieth = Fraction(1, 2), Fraction(1, 10), Fraction(1, 20)
    tfs = [
        realize_differintegrator(Differintegrator(half), 4),
        realize_differintegrator(Differintegrator(half, "differentiator", "high", 3), 4),
        realize_differintegrator(Differintegrator(1), 3),
        realize_fopid(FOPID(1, 2, 3, half, Fraction(3, 2)), "low", 3),
        realize_fopid(FOPID(1, 2, 3, 1, 1), "high", 3),
        realize_fopd_bracket(FOPDBracket(2, 3, half), 3),
        realize_fopd_bracket(FOPDBracket(2, 3, 1), 3),
        realize_leadlag(LeadLag(2, tenth, twentieth, half), 3),
        realize_leadlag(LeadLag(2, tenth, twentieth, 1), 3),
        realize_leadlag(LeadLag(2, tenth, twentieth, 0), 3),
        symbolic_differintegrator("low", 4).substitute({"lam": half}),
        symbolic_differintegrator("high", 4, "differentiator").substitute({"lam": 1}),
        realize_fopid(FOPID(None, None, None, None, None), "low", 3).substitute(
            {"Kp": 1, "Ki": 2, "Kd": 3, "lam": half, "mu": Fraction(3, 2)}
        ),
        realize_fopd_bracket(FOPDBracket(None, None, None), 3).substitute(
            {"Kp": 2, "Kd": 3, "mu": half}
        ),
        realize_leadlag(LeadLag(None, None, None, None), 3).substitute(
            {"Kc": 2, "lam": tenth, "x": twentieth, "alpha": half}
        ),
    ]
    for tf in tfs:
        assert tf.ring == "rational"
        assert all(type(c) is int for c in tf.num + tf.den), tf


def test_solver_reproduces_known_solution():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        want = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        matrix = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        rhs = [sum(matrix[i][j] * want[j] for j in range(n)) for i in range(n)]
        numerators, det, defect = solve_fraction_free(matrix, rhs)
        if defect:
            continue  # singular draw: covered by the dedicated tests below
        assert [Fraction(v, det) for v in numerators] == want


def test_solver_handles_symbolic_entries():
    # the solver takes exact scalars only; symbolic approximants come from
    # closed forms, not from elimination over ParamPoly
    lam = ParamPoly.var("lam")
    with pytest.raises(TypeError):
        solve_fraction_free([[lam, 1], [0, 1]], [lam**2 + lam + 1, lam + 1])
    with pytest.raises(TypeError):
        solve_particular([[1.5]], [1])


def test_solver_classifies_singular_systems():
    numerators, det, defect = solve_fraction_free([[1, 1], [2, 2]], [3, 6])
    assert defect == 1
    assert (numerators, det) == ([3, 0], 1)
    with pytest.raises(InconsistentSystemError):
        solve_fraction_free([[1, 1], [2, 2]], [3, 7])
    with pytest.raises(ValidationError):
        solve_fraction_free([[1, 1]], [1])
    with pytest.raises(ValidationError):
        solve_fraction_free([[1]], [1, 2])


def _mat_mul(a, b):
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for row in a]


def test_fraction_free_solver_on_random_symbolic_systems():
    # A = B C has rank r: the columns of C listed in `pivots` are random and
    # every other column combines the pivot columns before it, so the
    # elimination must skip exactly the other columns and leave their
    # unknowns, the free variables, at zero. Entries are ints, the only
    # ring the solver works in since symbolic systems left it.
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 5)
        r = rng.randint(0, n)
        pivots = sorted(rng.sample(range(n), r))
        cols = []
        for j in range(n):
            if j in pivots:
                cols.append([rng.randint(-9, 9) for _ in range(r)])
            else:
                earlier = [(rng.randint(-3, 3), cols[i]) for i in pivots if i < j]
                cols.append([sum(f * col[k] for f, col in earlier) for k in range(r)])
        if r:
            b_mat = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(n)]
            matrix = _mat_mul(b_mat, [[col[k] for col in cols] for k in range(r)])
        else:
            matrix = [[0] * n for _ in range(n)]
        y = [[rng.randint(-9, 9)] for _ in range(n)]
        rhs = [row[0] for row in _mat_mul(matrix, y)]
        numerators, det, defect = solve_fraction_free(matrix, rhs)
        assert defect == n - r
        assert det
        assert all(numerators[j] == 0 for j in range(n) if j not in pivots)
        for row, b in zip(matrix, rhs):
            assert sum(a * v for a, v in zip(row, numerators)) == det * b
        if r < n:
            off = list(rhs)
            off[rng.randrange(n)] += 1000
            with pytest.raises(InconsistentSystemError):
                solve_fraction_free(matrix, off)


def test_particular_solution_zeroes_free_variables():
    sol, defect = solve_particular(
        [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
        [Fraction(3), Fraction(6)],
    )
    assert defect == 1
    assert sol[0] + sol[1] == 3
    assert sol[1] == 0  # free variable pinned to zero
    with pytest.raises(InconsistentSystemError):
        solve_particular(
            [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
            [Fraction(1), Fraction(2)],
        )
