"""Exact arithmetic substrate.

Arbitrary-precision rationals (`BigRat`, backed by `fractions.Fraction`);
sparse multivariate polynomials over the controller-parameter symbols
(`ParamPoly`, whose coefficients are int where integral and BigRat
otherwise, so symbolic products of integer polynomials never touch
`Fraction`), each built by `_poly`, combined linearly by `_combine` and
raised by `_powers`, which the symbolic Pade kernel shares; the one
coercion every exact scalar of a numeric TF passes through (`_coerce_rat`,
always to a BigRat); and the exact linear solver behind the generic Pade
construction: fraction-free (Bareiss) elimination on exact scalars, with
each row cleared to integers first, so every step is an exact integer
division and the solution is formed by one division at the end.

Everything here is immutable after construction and safe to share between
threads; all operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add

from .errors import InconsistentSystemError, ValidationError

#: Exact rational scalar type used for every coefficient in the package.
BigRat = Fraction

#: Recognized symbols: the controller tuning parameters. The Laplace
#: variable s is not among them; it is the index of a coefficient tuple.
SYMBOLS = ("lam", "mu", "alpha", "x", "Kp", "Ki", "Kd", "Kc", "T")

_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_NVARS = len(SYMBOLS)
_ZERO_KEY = (0,) * _NVARS


def _coerce_rat(value) -> Fraction:
    """An int or BigRat as a BigRat; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _ring(c):
    """An int or BigRat coefficient in ParamPoly's coefficient ring: an
    integral BigRat becomes its int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _grlex_key(exponents):
    # graded lexicographic: total degree first, then the exponent tuple
    return (sum(exponents), exponents)


class ParamPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map exponent tuples (one slot per entry of SYMBOLS) to nonzero
    coefficients: int where integral, BigRat otherwise, so no coefficient
    is a BigRat with denominator 1. Products and sums of integer
    polynomials then run on machine ints without a gcd per operation. The
    zero polynomial has no terms, and `_poly` builds every one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned: dict = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"expected an exact scalar, got {type(coeff).__name__}")
            key = tuple(key)
            if len(key) != _NVARS:
                raise ValueError("exponent tuple has wrong length")
            cleaned[key] = coeff
        self.terms = _poly(cleaned).terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "ParamPoly":
        return cls({_ZERO_KEY: value})

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        if name not in _INDEX:
            raise ValidationError(f"unknown symbol {name!r}; choose from {SYMBOLS}")
        key = [0] * _NVARS
        key[_INDEX[name]] = 1
        return cls({tuple(key): 1})

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def one(cls) -> "ParamPoly":
        return cls.constant(1)

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ZERO_KEY in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a BigRat."""
        if not self.is_constant():
            raise ValidationError("polynomial is not constant")
        return Fraction(self.terms.get(_ZERO_KEY, 0))

    def leading_key(self) -> tuple:
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        return max(self.terms, key=_grlex_key)

    def leading_coeff(self):
        """Coefficient of the grlex-leading term: an int or a BigRat."""
        return self.terms[self.leading_key()]

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return _poly({_ZERO_KEY: other})
        return None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        get = terms.get
        for key, c in other.terms.items():
            terms[key] = get(key, 0) + c
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return _combine((-1,), (self,))

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _combine((1, -1), (self, other))

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return _combine((1, -1), (other, self))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _combine((_ring(other),), (self,))
        if not isinstance(other, ParamPoly):
            return NotImplemented
        terms: dict = {}
        get = terms.get
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                terms[key] = get(key, 0) + c1 * c2
        return _poly(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("polynomial powers must be non-negative integers")
        result = ParamPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_rat(other)
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it too
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- structure ---------------------------------------------------------

    def substitute(self, mapping: dict) -> "ParamPoly":
        """Substitute symbols by exact scalars or polynomials.

        Unmentioned symbols stay symbolic. The result is one `_combine` of
        the coefficients with the monomials, each a product of powers built
        once per symbol. An unknown symbol raises ValidationError; a value
        that is neither an exact scalar nor a ParamPoly, TypeError.
        """
        images = {}
        for name, val in mapping.items():
            if name not in _INDEX:
                raise ValidationError(f"unknown symbol {name!r}")
            lifted = self._lift(val)
            if lifted is None:
                raise TypeError(f"cannot substitute {type(val).__name__}")
            images[_INDEX[name]] = lifted
        powers = [
            _powers(images[i] if i in images else ParamPoly.var(SYMBOLS[i]), top)
            for i, top in enumerate(map(max, zip(*self.terms)))
        ]
        one = ParamPoly.one()
        monomials = [prod((pw[e] for pw, e in zip(powers, key) if e), start=one) for key in self.terms]
        return _combine(self.terms.values(), monomials)

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[key]
            factors = []
            for i, e in enumerate(key):
                if e == 1:
                    factors.append(SYMBOLS[i])
                elif e > 1:
                    factors.append(f"{SYMBOLS[i]}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"ParamPoly({self})"


def _poly(terms: dict) -> ParamPoly:
    """The ParamPoly with these terms, zero coefficients dropped and the
    rest brought into the ring: the one place a term dict is wrapped."""
    out = ParamPoly.__new__(ParamPoly)
    out.terms = {key: _ring(c) for key, c in terms.items() if c}
    return out


def _combine(scalars, polys) -> ParamPoly:
    """sum_i scalars[i] * polys[i] for exact scalars and ParamPolys, in
    one pass over their terms and with no product of ParamPolys."""
    terms: dict = {}
    for s, poly in zip(scalars, polys):
        if s and terms:
            get = terms.get
            for key, c in poly.terms.items():
                terms[key] = get(key, 0) + s * c
        elif s:  # the first term in one comprehension, all a scalar multiple takes
            terms = {key: s * c for key, c in poly.terms.items()}
    return _poly(terms)


def _powers(x, n: int) -> list:
    """[x^0, x, ..., x^n], one product per power past the first."""
    out = [x**0, x]
    while len(out) <= n:
        out.append(out[-1] * x)
    return out


# -- linear solving -----------------------------------------------------------


def clear_denominators(coeffs) -> tuple[int, tuple]:
    """(L, L*coeffs) for exact scalars (int or BigRat), with L the lcm of
    their reduced denominators, so every entry is an int."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def solve_fraction_free(matrix, rhs):
    """Solve A y = b exactly by fraction-free (Bareiss) elimination.

    A is square with exact scalar (int or BigRat) entries; anything else
    raises TypeError. Each row of [A | b] is first scaled to integers, which
    leaves the solution and the pivot choice unchanged. A column with no
    pivot is skipped and its unknown, a free variable, is set to zero.
    Returns (numerators, det, defect) as ints: y_j = numerators[j] / det,
    where det is the last pivot (the determinant of the nonsingular block
    the pivots select, up to the row scales) and defect is the number of
    free variables. No quotient is ever formed: each elimination step
    divides exactly by the previous pivot (Sylvester's identity), and
    back-substitution divides exactly by the row's pivot because det * y_j
    is a Cramer numerator. Raises InconsistentSystemError when b is not in
    the column space of A.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("matrix must be square")
    if len(rhs) != n:
        raise ValidationError("right-hand side length mismatch")
    mat = [
        list(clear_denominators([_coerce_rat(c) for c in (*row, b)])[1])
        for row, b in zip(matrix, rhs)
    ]
    prev = 1
    pivot_cols = []
    for col in range(n):
        r = len(pivot_cols)
        pivot = next((i for i in range(r, n) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        head = mat[r]
        for row in mat[r + 1:]:
            for c in range(col + 1, n + 1):
                row[c] = (head[col] * row[c] - row[col] * head[c]) // prev
            row[col] = 0
        prev = head[col]
        pivot_cols.append(col)
    rank = len(pivot_cols)
    if any(row[n] for row in mat[rank:]):
        raise InconsistentSystemError("no solution")
    numerators = [0] * n
    for i in range(rank - 1, -1, -1):
        row = mat[i]
        acc = prev * row[n]
        for c in pivot_cols[i + 1:]:
            acc -= row[c] * numerators[c]
        numerators[pivot_cols[i]] = acc // row[pivot_cols[i]]
    return numerators, prev, n - rank


def solve_particular(matrix, rhs):
    """Particular solution of a possibly singular square BigRat system.

    Free variables are set to zero. Returns (solution, defect); raises
    InconsistentSystemError when unsolvable. This is solve_fraction_free
    with its numerators divided by the determinant.
    """
    numerators, det, defect = solve_fraction_free(matrix, rhs)
    return [Fraction(v, det) for v in numerators], defect
