"""Reference methods: the recursive zero/pole ladder, its band-edge
corrected variant, and the exact fixed-point iterate."""

import math
import random
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


def test_an_int_past_float_range_is_refused_where_it_enters():
    # float() raises OverflowError on such an int, where a float input
    # that large is inf; either is refused with the range text
    with pytest.raises(ValidationError, match=r"^need 0 < omega_b < omega_h < inf$"):
        BaselineConfig(Fraction(1, 2), 1, 10**400, 2)
    with pytest.raises(ValidationError, match=r"^need 0 < omega_b < omega_h < inf$"):
        BaselineConfig(Fraction(1, 2), Fraction(-(10**400), 3), 10, 2)
    with pytest.raises(ValidationError, match=r"^lam must lie in \(0, 1\)$"):
        BaselineConfig(10**400, 1, 10, 2)


@pytest.mark.parametrize("count", (0, -1, 2.5, np.int64(2), Fraction(2), "2"), ids=repr)
def test_the_depth_and_the_iteration_count_are_positive_ints(count):
    with pytest.raises(ValidationError, match="^N must be a positive integer$"):
        BaselineConfig(0.5, 1.0, 10.0, count)
    with pytest.raises(ValidationError, match="^iterations must be a positive integer$"):
        carlson(Fraction(1, 2), count)
    # lam is parsed and refused before the count
    with pytest.raises(ValidationError, match="^lam must be positive$"):
        carlson(Fraction(-1, 2), count)
    # and the band before the depth
    with pytest.raises(ValidationError, match="^need 0 < omega_b"):
        BaselineConfig(0.5, 10.0, 1.0, count)
    # True is the int 1
    assert BaselineConfig(0.5, 1.0, 10.0, True).N == 1
    assert carlson(Fraction(1, 2), True) == carlson(Fraction(1, 2), 1)


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


def test_an_anchor_gain_past_float_range_is_refused():
    # the core's coefficients are finite; the gain that anchors it is not
    for build in (oustaloup, modified_oustaloup):
        with pytest.raises(ValidationError, match=r"^baseline band \[1e\+80, 1e\+100\] rad/s is past float range$"):
            build(BaselineConfig(0.5, 1e80, 1e100, 1))


def test_oustaloup_degree_budget_refuses_before_building():
    # the modified variant's degree 2N+3 is 4095 at N = 2046, inside the budget,
    # where coefficients near C(4095, 2047) leave the floats; at N = 2047 it is 4097
    with pytest.raises(ValidationError, match="past float range"):
        modified_oustaloup(BaselineConfig(0.5, 1.0, 10.0, 2046))
    with pytest.raises(ValidationError, match="past float range"):
        oustaloup(BaselineConfig(0.5, 1.0, 10.0, 2047))
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="^modified Oustaloup degree passes 4096 at N = 2047$"):
        modified_oustaloup(BaselineConfig(0.5, 1.0, 10.0, 2047))
    with pytest.raises(ValidationError, match="^Oustaloup degree passes 4096 at N = 10000$"):
        oustaloup(BaselineConfig(0.5, 1.0, 10.0, 10000))
    assert time.perf_counter() - start < 0.5


def _float_oustaloup(cfg, extend):
    """The Oustaloup filter as a product of floats: a Python power per rung,
    polys.mul root by root and a Horner anchor. It raises ValidationError
    where the library refuses a band, for N far inside the degree budget."""
    ratio = cfg.omega_h / cfg.omega_b
    span = 2 * cfg.N + 1
    reach = cfg.N + 1 if extend else cfg.N
    num = den = (1.0,)
    for k in range(-reach, reach + 1):
        try:
            zero = cfg.omega_b * ratio ** ((k + cfg.N + (1 - cfg.lam) / 2) / span)
            pole = cfg.omega_b * ratio ** ((k + cfg.N + (1 + cfg.lam) / 2) / span)
        except OverflowError:
            zero = pole = math.inf
        num = polys.mul(num, (zero, 1.0))
        den = polys.mul(den, (pole, 1.0))

    def horner(coeffs, s):
        value = 0j
        for c in reversed(coeffs):
            value = value * s + c
        return value

    wu = math.sqrt(cfg.omega_b * cfg.omega_h)
    at_wu = horner(den, 1j * wu)
    raw = abs(horner(num, 1j * wu) / at_wu) if at_wu else math.inf
    if not (0 < raw < math.inf and all(map(math.isfinite, num + den))):
        raise ValidationError("past float range")
    num = tuple(wu**cfg.lam / raw * c for c in num)
    if not all(map(math.isfinite, num)):
        raise ValidationError("past float range")
    return make_tf(num, den)


def _random_band(rng, N):
    """Three bands in four lie where the products of 2N+3 rungs reach to
    near the ends of the floats; the rest lie anywhere, most past them."""
    if rng.random() < 0.75:
        center = rng.uniform(-330.0, 330.0) / (2 * N + 3)
        half = rng.choice((rng.uniform(0.005, 2.0), rng.uniform(2.0, 20.0)))
    else:
        center = rng.uniform(-300.0, 300.0)
        half = rng.uniform(0.005, 320.0)
    low = min(max(center - half, -320.0), 307.0)
    high = min(max(center + half, low + (1.0 if low < -307.0 else 0.001)), 308.0)
    return 10.0**low, 10.0**high


def test_oustaloup_equals_the_float_product_bit_for_bit():
    rng = random.Random(20000)
    checked = refused = 0
    for _ in range(10_000):
        lam = rng.random() or 0.5
        if rng.random() < 0.2:
            lam = rng.randint(1, 99) / 100
        N = rng.randint(1, 14)
        cfg = BaselineConfig(lam, *_random_band(rng, N), N)
        for build, extend in ((oustaloup, False), (modified_oustaloup, True)):
            try:
                ref = _float_oustaloup(cfg, extend)
            except ValidationError:
                with pytest.raises(ValidationError, match="past float range"):
                    build(cfg)
                refused += 1
            else:
                tf = build(cfg)
                assert (tf.num, tf.den) == (ref.num, ref.den), (cfg, extend)
            checked += 1
    assert checked == 20_000
    assert 0.1 < refused / checked < 0.5


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
