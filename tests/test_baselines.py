"""Reference methods: the recursive zero/pole ladder, its band-edge
corrected variant, and the exact fixed-point iterate."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from fracrat import (
    BaselineConfig,
    FrequencyGrid,
    ParamPoly,
    ValidationError,
    bode,
    carlson,
    log_grid,
    make_tf,
    modified_oustaloup,
    oustaloup,
    tf_equal,
)
from fracrat import polys


CFG = BaselineConfig(0.5, 0.01, 100.0, 3)


def _at(tf, w):
    """H(j*w) from a one-point rad sweep: (|H|, arg H in degrees)."""
    sweep = bode(tf, FrequencyGrid((w,), "rad"))
    return 10 ** (sweep.mag_db[0] / 20), sweep.phase_deg[0]


def test_config_validation():
    with pytest.raises(ValidationError):
        BaselineConfig(0.0, 1.0, 10.0, 3)
    with pytest.raises(ValidationError):
        BaselineConfig(1.0, 1.0, 10.0, 3)
    with pytest.raises(ValidationError):
        BaselineConfig(0.5, 10.0, 1.0, 3)
    with pytest.raises(ValidationError):
        BaselineConfig(0.5, 1.0, 10.0, 0)
    # band edges must be finite numbers, or the Oustaloup sweep is all nan
    for wb, wh in ((1.0, math.inf), (0.0, 10.0), (math.nan, 10.0), (1.0, math.nan)):
        with pytest.raises(ValidationError):
            BaselineConfig(0.5, wb, wh, 3)


def test_oustaloup_order_and_ring():
    tf = oustaloup(CFG)
    assert tf.ring == "float"
    assert tf.num_degree == 2 * CFG.N + 1
    assert tf.den_degree == 2 * CFG.N + 1
    assert tf.gain is None  # the anchor gain is folded into the numerator


def test_oustaloup_gain_anchor_at_band_center():
    wu = math.sqrt(CFG.omega_b * CFG.omega_h)
    mag, _ = _at(oustaloup(CFG), wu)
    assert mag == pytest.approx(wu**CFG.lam, rel=1e-12)


def test_oustaloup_zeros_and_poles_are_negative_real_and_geometric():
    tf = oustaloup(CFG)
    for coeffs in (tf.num, tf.den):
        roots = np.roots(list(reversed(coeffs)))
        assert np.all(np.abs(roots.imag) < 1e-9)
        assert np.all(roots.real < 0)
        mags = np.sort(np.abs(roots))
        ratios = mags[1:] / mags[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-6)


def test_oustaloup_tracks_ideal_slope_in_band():
    sweep = bode(oustaloup(CFG), log_grid(0.1, 10.0, 20, unit="rad"))
    for w, mag, phase in zip(sweep.grid.values, sweep.mag_db, sweep.phase_deg):
        assert mag == pytest.approx(10 * math.log10(w), abs=0.6)
        assert phase == pytest.approx(45.0, abs=6.0)


def test_modified_variant_adds_boundary_biquad():
    tf = modified_oustaloup(CFG)
    assert tf.num_degree == 2 * CFG.N + 3
    assert tf.den_degree == 2 * CFG.N + 3


def test_modified_variant_improves_band_edges():
    grid = FrequencyGrid((CFG.omega_b, CFG.omega_h), "rad")
    for lam in (0.3, 0.5, 0.7):
        cfg = BaselineConfig(lam, CFG.omega_b, CFG.omega_h, CFG.N)
        target = 90.0 * lam
        plain = bode(oustaloup(cfg), grid)
        fixed = bode(modified_oustaloup(cfg), grid)
        for i in range(2):
            assert abs(fixed.phase_deg[i] - target) < abs(plain.phase_deg[i] - target)


def test_modified_variant_leaves_band_center_alone():
    wu = math.sqrt(CFG.omega_b * CFG.omega_h)
    grid = FrequencyGrid((wu,), "rad")
    plain = bode(oustaloup(CFG), grid)
    fixed = bode(modified_oustaloup(CFG), grid)
    assert fixed.mag_db[0] == pytest.approx(plain.mag_db[0], abs=1e-9)
    assert fixed.phase_deg[0] == pytest.approx(plain.phase_deg[0], abs=0.5)


def test_reciprocal_gives_the_integrator():
    wu = math.sqrt(CFG.omega_b * CFG.omega_h)
    integ = oustaloup(CFG).reciprocal()
    assert _at(integ, wu)[0] == pytest.approx(wu**-CFG.lam, rel=1e-12)


def test_carlson_first_iterate_is_bilinear():
    tf = carlson(Fraction(1, 2), 1)
    assert tf.ring == "rational"
    assert tf.num == (1, 3)
    assert tf.den == (3, 1)


def test_carlson_degree_growth():
    for iterations, degree in ((1, 1), (2, 4), (3, 13)):
        tf = carlson(Fraction(1, 2), iterations)
        assert tf.num_degree == degree
        assert tf.den_degree == degree


def test_carlson_fixed_point_at_one():
    for q in (2, 3, 4):
        tf = carlson(Fraction(1, q), 2)
        assert sum(tf.num) == sum(tf.den)  # H(1) = 1 exactly


def test_carlson_converges_on_the_unit_circle():
    # |(j)^0.5| = 1 and arg = 45 degrees; three iterations get close
    mag, phase = _at(carlson(Fraction(1, 2), 3), 1.0)
    assert mag == pytest.approx(1.0, abs=1e-3)
    assert phase == pytest.approx(45.0, abs=1.0)


def test_carlson_integer_orders_short_circuit():
    assert tf_equal(carlson(1, 3), make_tf((0, 1), (1,)))
    assert tf_equal(carlson(2, 1), make_tf((0, 0, 1), (1,)))


def test_carlson_preconditions():
    with pytest.raises(ValidationError):
        carlson(Fraction(1, 5), 2)
    with pytest.raises(ValidationError):
        carlson(Fraction(1, 2), 0)
    with pytest.raises(ValidationError):
        carlson(Fraction(-1, 2), 1)
    # binary floats have huge denominators: only exact rationals qualify
    with pytest.raises(ValidationError):
        carlson(0.3 + 1e-17, 1)


def _fraction_carlson(lam, iterations):
    """The fixed-point iteration written out over Fraction."""

    def mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def combine(a, ca, b, cb):
        width = max(len(a), len(b))
        a = a + [Fraction(0)] * (width - len(a))
        b = b + [Fraction(0)] * (width - len(b))
        return [ca * x + cb * y for x, y in zip(a, b)]

    m, q = lam.numerator, lam.denominator
    g = [Fraction(0)] * m + [Fraction(1)]
    num, den = [Fraction(1)], [Fraction(1)]
    for _ in range(iterations):
        num_q, den_q = [Fraction(1)], [Fraction(1)]
        for _ in range(q):
            num_q, den_q = mul(num_q, num), mul(den_q, den)
        gd = mul(g, den_q)
        num, den = mul(num, combine(num_q, q - 1, gd, q + 1)), mul(den, combine(num_q, q + 1, gd, q - 1))
    return make_tf(num, den)


_ORACLE_LAMS = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), Fraction(3, 4),
                Fraction(3, 2), Fraction(5, 4), Fraction(5, 3), Fraction(7, 4)]


@pytest.mark.parametrize(
    "lam, iterations",
    # every case up to five iterations of degree m((q+1)^k - 1)/q <= 500, the
    # sweep's lam = 1/2 and 1/3 at five among them; past that bound (5/4 and
    # 7/4 at four iterations) the oracle takes 2-5 s a case
    [
        pytest.param(lam, k, id=f"{k}-lam{i}")
        for k in (1, 2, 3, 4, 5)
        for i, lam in enumerate(_ORACLE_LAMS)
        if lam.numerator * ((lam.denominator + 1) ** k - 1) // lam.denominator <= 500
    ],
)
def test_carlson_matches_the_fraction_iteration(lam, iterations):
    tf = carlson(lam, iterations)
    ref = _fraction_carlson(lam, iterations)
    assert (tf.num, tf.den) == (ref.num, ref.den)
    assert all(type(c) is int for c in tf.num + tf.den)
    assert tf.den == tuple(reversed(tf.num))


def test_carlson_degree_budget_refuses_before_building():
    # lam = 1/2 at 20 iterations would reach degree (3^20 - 1)/2
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="Carlson degree"):
        carlson(Fraction(1, 2), 20)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ValidationError, match="Carlson degree"):
        carlson(Fraction(1, 4), 7)


@pytest.mark.parametrize(
    "a, b, ring",
    [
        ((1, 2), (3, 0, 1), int),
        ((Fraction(1, 2), Fraction(1)), (Fraction(2, 3), Fraction(3)), Fraction),
        ((0.5, 1.0), (2.0, 0.25), float),
        ((ParamPoly.var("lam"), 1), (ParamPoly.constant(2), ParamPoly.var("lam")), ParamPoly),
    ],
)
def test_mul_keeps_the_ring_of_its_inputs(a, b, ring):
    out = polys.mul(a, b)
    assert len(out) == len(a) + len(b) - 1
    assert all(type(c) is ring for c in out)
