"""Exact arithmetic layer: the multivariate polynomial ring, univariate
division and gcd, and the exact linear solvers."""

import random
from fractions import Fraction

import pytest

from fracrat import DegenerateMathError, ParamPoly, ValidationError, polys
from fracrat.errors import InconsistentSystemError
from fracrat.exact import solve_fraction_free, solve_particular


def _random_poly(rng: random.Random, symbols=("lam", "mu"), terms=4) -> ParamPoly:
    total = ParamPoly.zero()
    for _ in range(rng.randint(1, terms)):
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        term = ParamPoly.constant(coeff)
        for sym in symbols:
            term = term * ParamPoly.var(sym, rng.randint(0, 3))
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


def test_field_division_of_int_sequences_stays_exact():
    # a float quotient 1/49 leaves 1 - (1/49)*49 != 0, and the loop never ends
    assert polys.divmod_field((1,), (49,)) == ((Fraction(1, 49),), ())
    q, r = polys.divmod_field((1, 0, 3), (2, 7))
    assert polys.add(polys.mul(q, (2, 7)), r) == (1, 0, 3)
    assert q == (Fraction(-6, 49), Fraction(3, 7)) and r == (Fraction(61, 49),)
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
    assert p.degree() == 3
    assert p.degree("lam") == 2


def test_str_rendering_is_stable():
    lam = ParamPoly.var("lam")
    assert str(840 * lam + 3360) == "840*lam + 3360"
    assert str(lam**2 - 1) == "lam^2 - 1"
    assert str(ParamPoly.zero()) == "0"


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
