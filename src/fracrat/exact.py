"""Exact arithmetic substrate on `fractions.Fraction`.

Sparse multivariate polynomials over the controller-parameter symbols
(`ParamPoly`, whose terms are keyed by packed monomials and whose
coefficients are int where integral and Fraction otherwise, so symbolic
products of integer polynomials never touch `Fraction`), each built by
`_poly`, combined linearly by `_combine`, raised by `_powers`, which the
symbolic Pade kernel shares, and specialized by `_substitute`, which a
transfer function shares among its coefficients; the grammar of a printed
expression (`_signed_sum`, `_product`, `_monomial`, and `_poly_str`, whose
monomial table a document shares among its coefficients); the coercion
of an exact scalar to a Fraction (`_coerce_rat`), for the series kernels
and the solver (approx.make_tf keeps an int or a Fraction as it is and
passes it only a bool or another int subclass); and an exact linear
solver: fraction-free (Bareiss) elimination on exact scalars, with each
row cleared to integers first, so every step is an exact integer division
and the solution is formed by one division at the end. No library route
calls it: it is the Toeplitz reference the tests check approx.pade
against, and perfbench/tracing.py wraps it by name.

Everything here is immutable after construction and safe to share between
threads; all operations return new objects.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .errors import InconsistentSystemError, ValidationError

#: Recognized symbols: the controller tuning parameters. The Laplace
#: variable s is not among them; it is the index of a coefficient tuple.
SYMBOLS = ("lam", "mu", "alpha", "x", "Kp", "Ki", "Kd", "Kc", "T")

_INDEX = {name: i for i, name in enumerate(SYMBOLS)}
_NVARS = len(SYMBOLS)

#: Bits per field of a packed monomial key: every exponent and every total
#: degree stays below 2**_FIELD_BITS.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
# the field of SYMBOLS[i] starts at bit _SHIFTS[i], the first symbol highest;
# the total degree sits above them all, and every key is below _KEY_LIMIT
_SHIFTS = tuple(_FIELD_BITS * (_NVARS - 1 - i) for i in range(_NVARS))
_DEGREE_UNIT = 1 << (_FIELD_BITS * _NVARS)
_KEY_LIMIT = _DEGREE_UNIT << _FIELD_BITS
# the key of each symbol to the first power: a monomial's key is the sum of
# these, each times its exponent, so a product of monomials adds keys
_UNITS = tuple(_DEGREE_UNIT + (1 << shift) for shift in _SHIFTS)
_ZERO_KEY = 0


def _coerce_rat(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _ring(c):
    """An int or Fraction coefficient in ParamPoly's coefficient ring: an
    integral Fraction becomes its int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _pack(exponents) -> int:
    """The packed key of an exponent tuple (see ParamPoly). A wrong length
    raises ValueError; an exponent that is not a non-negative int, or a
    total degree of 2**_FIELD_BITS or more, ValidationError."""
    exponents = tuple(exponents)
    if len(exponents) != _NVARS:
        raise ValueError("exponent tuple has wrong length")
    if not all(isinstance(e, int) and e >= 0 for e in exponents):
        raise ValidationError(f"exponents must be non-negative ints, got {exponents}")
    total = sum(exponents)
    if total > _FIELD_MASK:
        raise ValidationError(f"a total degree must stay below 2^{_FIELD_BITS}, got {total}")
    return sum(e * unit for e, unit in zip(exponents, _UNITS))


def _unpack(key: int) -> tuple:
    """The exponent tuple of a packed key."""
    return tuple([(key >> shift) & _FIELD_MASK for shift in _SHIFTS])


class ParamPoly:
    """Sparse multivariate polynomial with exact rational coefficients.

    `ParamPoly(terms)` takes a dict from exponent tuples (one non-negative
    int per entry of SYMBOLS) to exact scalars, and `items()` gives the
    terms back in that form. `terms` itself maps packed keys to nonzero
    coefficients. A packed key is one int of 16-bit fields (B = 16): the
    total degree in the top field, then one field per entry of SYMBOLS, in
    order. Integer order on keys is then graded lexicographic order on
    monomials (total degree first, then the exponent tuple), and the key of
    a product of monomials is the sum of their keys. Every total degree
    stays below 2^B = 65536: the constructor refuses a term that reaches it
    and a product refuses to form one, with ValidationError. A symbolic
    realization of order n reaches a total degree of 2n + 1, and 3n for
    the lead-lag.

    Coefficients are int where integral, Fraction otherwise, so no
    coefficient is a Fraction with denominator 1. Products and sums of
    integer polynomials then run on machine ints without a gcd per
    operation. The zero polynomial has no terms, and `_poly` builds every
    one.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned: dict = {}
        for exponents, coeff in (terms or {}).items():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(f"expected an exact scalar, got {type(coeff).__name__}")
            cleaned[_pack(exponents)] = coeff
        self.terms = _poly(cleaned).terms

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value) -> "ParamPoly":
        return cls({(0,) * _NVARS: value})

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
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValidationError("polynomial is not constant")
        return Fraction(self.terms.get(_ZERO_KEY, 0))

    def items(self):
        """The terms as (exponent tuple, coefficient) pairs, in the order of `terms`."""
        return ((_unpack(key), c) for key, c in self.terms.items())

    def leading_key(self) -> int:
        """The packed key of the grlex-leading term."""
        if not self.terms:
            raise ValidationError("zero polynomial has no leading term")
        return max(self.terms)

    def leading_coeff(self):
        """Coefficient of the grlex-leading term: an int or a Fraction."""
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
        if type(other) is int and not other:  # the 0 that starts a sum, as in polys.mul
            return self
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
        left, right = self.terms, other.terms
        # the leading keys hold the largest total degrees, and no field carries below it
        if left and right and max(left) + max(right) >= _KEY_LIMIT:
            raise ValidationError(f"a product's total degree must stay below 2^{_FIELD_BITS}")
        terms: dict = {}
        get = terms.get
        for k1, c1 in left.items():
            for k2, c2 in right.items():
                key = k1 + k2
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
            e >>= 1
            if e:  # no square past the last bit: it could pass the degree bound for nothing
                base = base * base
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

        Unmentioned symbols stay symbolic. Each term's scalar images
        multiply its coefficient, and only a polynomial image takes a
        product of ParamPolys. An unknown symbol raises ValidationError; a
        value that is neither an exact scalar nor a ParamPoly, TypeError.
        """
        return _substitute((self,), mapping)[0]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        return _poly_str(self, {})

    def __repr__(self):
        return f"ParamPoly({self})"


def _substitute(polys, mapping: dict) -> list:
    """[p.substitute(mapping) for p in polys], with each symbol's list of
    powers built once for all of them."""
    images = {}
    for name, val in mapping.items():
        if name not in _INDEX:
            raise ValidationError(f"unknown symbol {name!r}")
        if not isinstance(val, (int, Fraction, ParamPoly)):
            raise TypeError(f"cannot substitute {type(val).__name__}")
        images[_INDEX[name]] = _ring(val)
    keys = [key for poly in polys for key in poly.terms]
    fields = []  # (shift, unit, powers, symbolic) of each symbol to replace
    for i, image in images.items():
        shift = _SHIFTS[i]
        top = max([(key >> shift) & _FIELD_MASK for key in keys], default=0)
        if top:
            fields.append((shift, _UNITS[i], _powers(image, top), isinstance(image, ParamPoly)))
    out = []
    for poly in polys:
        terms: dict = {}
        get = terms.get
        for key, c in poly.terms.items():
            factors = []
            for shift, unit, powers, symbolic in fields:
                e = (key >> shift) & _FIELD_MASK
                if e:
                    key -= e * unit
                    if symbolic:
                        factors.append(powers[e])
                    else:
                        c *= powers[e]
            if factors:
                for k, v in prod(factors, start=_poly({key: c})).terms.items():
                    terms[k] = get(k, 0) + v
            else:
                terms[key] = get(key, 0) + c
        out.append(_poly(terms))
    return out


def _poly_str(poly: ParamPoly, monomials: dict) -> str:
    """str(poly): terms in descending grlex order, which is descending key
    order. Each monomial's text is read from `monomials`, keyed by packed
    key, or written there, so that one table serves every coefficient of a
    document."""
    terms = poly.terms
    parts = []
    for key in sorted(terms, reverse=True):
        text = monomials.get(key)
        if text is None:
            text = monomials[key] = _monomial(SYMBOLS, _unpack(key))
        c = terms[key]
        mag = abs(c)
        parts.append((c < 0, _product(str(mag), text, mag == 1)))
    return _signed_sum(parts)


def _signed_sum(terms) -> str:
    """`a - b + c` from (negative, body) pairs with unsigned bodies: a
    negative first term takes a leading '-', and no terms print as '0'."""
    text = "".join([f" - {body}" if negative else f" + {body}" for negative, body in terms])
    if not text:
        return "0"
    return "-" + text[3:] if text[1] == "-" else text[3:]


def _product(coeff: str, monomial: str, unit: bool) -> str:
    """coeff*monomial, leaving out a unit coefficient or an empty monomial."""
    return coeff if not monomial else monomial if unit else f"{coeff}*{monomial}"


def _monomial(bases, exponents) -> str:
    """base^e for each pair, joined by '*': the bare base at e = 1, nothing at e = 0."""
    factors = []  # a loop: before CPython 3.12 a comprehension is one more call per term
    for b, e in zip(bases, exponents):
        if e:
            factors.append(b if e == 1 else f"{b}^{e}")
    return "*".join(factors)


def _poly(terms: dict) -> ParamPoly:
    """The ParamPoly with these terms, zero coefficients dropped and the
    rest brought into the ring: the one place a term dict is wrapped."""
    out = ParamPoly.__new__(ParamPoly)
    # _ring inlined: a call per coefficient would cost more than the test
    out.terms = {
        key: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for key, c in terms.items()
        if c
    }
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
    """(L, L*coeffs) for exact scalars (int or Fraction), with L the lcm of
    their reduced denominators, so every entry is an int."""
    den = lcm(*(c.denominator for c in coeffs))
    return den, tuple(c.numerator * (den // c.denominator) for c in coeffs)


def solve_fraction_free(matrix, rhs):
    """Solve A y = b exactly by fraction-free (Bareiss) elimination.

    A is square with exact scalar (int or Fraction) entries; anything else
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
    """Particular solution of a possibly singular square Fraction system.

    Free variables are set to zero. Returns (solution, defect); raises
    InconsistentSystemError when unsolvable. This is solve_fraction_free
    with its numerators divided by the determinant.
    """
    numerators, det, defect = solve_fraction_free(matrix, rhs)
    return [Fraction(v, det) for v in numerators], defect
