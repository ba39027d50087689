"""Reference analog approximations of s^lambda for comparison sweeps.

Three classical constructions, frozen here so results are reproducible:

* Oustaloup: 2N+1 zero/pole pairs placed geometrically over [omega_b,
  omega_h] with exponents (k+N+(1-lam)/2)/(2N+1) for zeros and
  (k+N+(1+lam)/2)/(2N+1) for poles, k = -N..N; gain fixed so the
  magnitude is exact at the geometric band center omega_u.
* Modified Oustaloup: the same core multiplied by a boundary
  correction biquad that continues the recursion one half-step past
  each band edge, (s + z_lo)(s + z_hi) / ((s + p_lo)(s + p_hi)) with
  the extra zeros and poles placed at the k = -(N+1) and k = N+1 rungs
  of the same geometric pattern. The correction derives from the
  recursion itself rather than from the classical shelf constants b and
  d; the gain anchor at omega_u plays the role of the classical leading
  factor.
* Carlson: the Newton-type fixed-point iteration on H^q = s^m,
  H_{k+1} = H_k * ((q-1)H_k^q + (q+1)s^m) / ((q+1)H_k^q + (q-1)s^m),
  from H_0 = 1, on the numerator alone (the denominator is its reverse).

All three build the differentiator s^{+lambda}; take reciprocal() for
the integrator. The Oustaloup variants are float (numpy), Carlson exact;
each refuses a degree past _MAX_DEGREE before it builds anything.
"""

from __future__ import annotations

import math

from . import polys
from ._value import Value
from .approx import TransferFunction, make_tf
from .controllers import _check_count, _rat
from .errors import ValidationError
from .freqresp import _floats

# Largest degree of any baseline (Carlson at lam = 1/4: 781 at five iterations, 3906 at six)
_MAX_DEGREE = 4096


class BaselineConfig(Value):
    """Band and depth settings shared by the Oustaloup variants."""

    _fields = ("lam", "omega_b", "omega_h", "N")

    def __init__(self, lam: float, omega_b: float, omega_h: float, N: int):
        (lam,) = _floats((lam,), "lam must lie in (0, 1)")
        if not 0 < lam < 1:
            raise ValidationError("lam must lie in (0, 1)")
        wb, wh = _floats((omega_b, omega_h), "need 0 < omega_b < omega_h < inf")
        if not 0 < wb < wh < math.inf:
            raise ValidationError("need 0 < omega_b < omega_h < inf")
        _check_count(N, "N")
        self._set(lam, wb, wh, N)


def _past_float_range(cfg: BaselineConfig) -> ValidationError:
    return ValidationError(f"baseline band [{cfg.omega_b:g}, {cfg.omega_h:g}] rad/s is past float range")


def _core(cfg: BaselineConfig, extend: bool = False):
    """The Oustaloup zeros and poles, rungs k = -N..N, as two numpy arrays.

    With extend=True the rungs k = -(N+1) and k = N+1 are included,
    which is the modified variant's boundary-correction biquad. A degree
    past _MAX_DEGREE is refused before any rung, and so is a rung past
    float range. Each rung is a Python float power: numpy's vectorized
    power differs from it in the last bit.
    """
    import numpy as np

    reach = cfg.N + 1 if extend else cfg.N
    if 2 * reach + 1 > _MAX_DEGREE:
        name = "modified Oustaloup" if extend else "Oustaloup"
        raise ValidationError(f"{name} degree passes {_MAX_DEGREE} at N = {cfg.N}")
    ratio = cfg.omega_h / cfg.omega_b
    span = 2 * cfg.N + 1
    rungs = range(-reach, reach + 1)
    try:
        zeros = [cfg.omega_b * ratio ** ((k + cfg.N + (1 - cfg.lam) / 2) / span) for k in rungs]
        poles = [cfg.omega_b * ratio ** ((k + cfg.N + (1 + cfg.lam) / 2) / span) for k in rungs]
    except OverflowError:
        raise _past_float_range(cfg) from None
    return np.array(zeros), np.array(poles)


def _anchored(zeros, poles, cfg: BaselineConfig) -> TransferFunction:
    """prod (s + z) / prod (s + p) scaled to |H| = omega_u^lam at the band
    center omega_u; a band whose anchor magnitude or finished coefficients
    leave the floats is refused. The anchor values divide as Python
    complex, whose division differs from numpy's in the last bit."""
    import numpy as np

    num = np.poly(-zeros)  # descending coefficients
    den = np.poly(-poles)
    wu = math.sqrt(cfg.omega_b * cfg.omega_h)
    with np.errstate(over="ignore", invalid="ignore"):
        at_wu = complex(np.polyval(den, 1j * wu))
        raw = abs(complex(np.polyval(num, 1j * wu)) / at_wu) if at_wu else math.inf
    gain = wu**cfg.lam / raw if 0 < raw < math.inf else math.nan
    num = tuple(gain * c for c in reversed(num.tolist()))
    den = tuple(reversed(den.tolist()))
    if not all(map(math.isfinite, num + den)):
        raise _past_float_range(cfg)
    return make_tf(num, den)


def oustaloup(cfg: BaselineConfig) -> TransferFunction:
    """Recursive zero/pole approximation of s^lam, order 2N+1."""
    return _anchored(*_core(cfg), cfg)


def modified_oustaloup(cfg: BaselineConfig) -> TransferFunction:
    """Oustaloup core with boundary-correction biquad, order 2N+3.

    The correction pins the phase near both band edges, where the plain
    recursion droops toward zero; inside the band the extra rungs are
    far enough out to leave the fit unchanged.
    """
    return _anchored(*_core(cfg, extend=True), cfg)


def carlson(lam, iterations: int) -> TransferFunction:
    """Fixed-point iterate for s^lam with lam = m/q, q in {2, 3, 4}.

    Runs over Python ints; make_tf returns the exact rational TF. The
    degree grows as d' = (q+1)*d + m, so q = 2 gives degrees 1, 4, 13, ...;
    a final degree past _MAX_DEGREE raises ValidationError before any
    product. Only num is iterated: with den = rev(num) of degree d, keep =
    (q-1)num^q + (q+1)s^m*den^q and move (q-1 and q+1 swapped), padded to
    length qd+m+1, satisfy move = rev(keep), so den*move = rev(num*keep).
    All coefficients stay positive, so no length drops. Each step divides
    num by its content, which leaves H unchanged: keep is homogeneous in num.
    """
    lam = _rat(lam, "lam")
    if lam <= 0:
        raise ValidationError("lam must be positive")
    _check_count(iterations, "iterations")
    m = lam.numerator
    q = lam.denominator
    if q == 1:
        return make_tf((0,) * m + (1,), (1,))
    if q not in (2, 3, 4):
        raise ValidationError(f"Carlson needs lam = m/q with q in {{2, 3, 4}}; got {lam}")
    degree = 0
    for _ in range(iterations):
        degree = (q + 1) * degree + m
        if degree > _MAX_DEGREE:
            raise ValidationError(f"Carlson degree passes {_MAX_DEGREE} at {iterations} iterations")
    num = (1,)
    for _ in range(iterations):
        num_q = _pow(num, q)
        gd = (0,) * m + num_q[::-1]  # s^m * den^q
        keep = polys.add(polys.scale(num_q, q - 1), polys.scale(gd, q + 1))
        num = polys.primitive(polys.mul(num, keep))[1]
    return make_tf(num, num[::-1])


def _pow(coeffs, n: int):
    """coeffs^n for n in {2, 3, 4} by squaring: one product at 2, two at 3 or 4."""
    square = polys.mul(coeffs, coeffs)
    return square if n == 2 else polys.mul(square, square if n == 4 else coeffs)
