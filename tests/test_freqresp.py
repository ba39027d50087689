"""Frequency-response evaluation: grids, sweeps, ideal curves, and the
constant-phase band bookkeeping."""

import cmath
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fracrat import (
    BodeSweep,
    Differintegrator,
    FOPDBracket,
    FOPID,
    FrequencyGrid,
    GainTag,
    LeadLag,
    ParamPoly,
    TransferFunction,
    ValidationError,
    bode,
    constant_phase_band,
    fit_report,
    ideal_response,
    log_grid,
    make_tf,
    realize_differintegrator,
)
from fracrat.freqresp import MAX_GRID_POINTS, _unwrap_deg


def test_grid_validation():
    with pytest.raises(ValidationError):
        FrequencyGrid((1.0, 1.0), "hz")
    with pytest.raises(ValidationError):
        FrequencyGrid((2.0, 1.0), "hz")
    with pytest.raises(ValidationError):
        FrequencyGrid((0.0, 1.0), "hz")
    with pytest.raises(ValidationError):
        FrequencyGrid((), "hz")
    with pytest.raises(ValidationError):
        FrequencyGrid((1.0,), "octave")
    nan, inf = float("nan"), float("inf")
    for values in ((1.0, inf), (nan, 1.0), (1.0, nan), (inf,)):
        with pytest.raises(ValidationError, match="finite"):
            FrequencyGrid(values, "hz")
    # finite in hertz, but not in rad/s
    with pytest.raises(ValidationError, match="finite in rad/s"):
        FrequencyGrid((1.0, 1.7e308), "hz")
    assert FrequencyGrid((1.0, 1.7e308), "rad").omega()[-1] == 1.7e308
    # each edge is finite, but fmax/fmin is not
    with pytest.raises(ValidationError, match="fmax/fmin"):
        log_grid(1e-200, 1e200)


def test_an_int_past_float_range_is_refused_where_it_enters():
    # float() raises OverflowError on such an int or Fraction, where a
    # float input that large is inf; either is refused with the range text
    for values in ((1, 10**400), (Fraction(10**400, 3),)):
        with pytest.raises(ValidationError, match="^frequencies must be finite$"):
            FrequencyGrid(values, "hz")
    for fmin, fmax in ((1, 10**400), (-(10**400), 10)):
        with pytest.raises(ValidationError, match="^need 0 < fmin < fmax < inf$"):
            log_grid(fmin, fmax)


def test_grid_units():
    hz = FrequencyGrid((1.0, 10.0), "hz")
    assert hz.omega()[0] == pytest.approx(2 * math.pi)
    rad = FrequencyGrid((1.0, 10.0), "rad")
    assert rad.omega()[1] == 10.0


def test_log_grid_pins_endpoints_and_density():
    grid = log_grid(1e-3, 10, points_per_decade=50, unit="rad")
    assert len(grid) == 201  # 4 decades at 50 points each, plus the start
    assert grid.values[0] == 1e-3
    assert grid.values[-1] == 10.0
    with pytest.raises(ValidationError):
        log_grid(10, 1, 50)
    nan, inf = float("nan"), float("inf")
    for fmin, fmax in ((nan, 10), (1e-3, inf), (1, nan), (inf, inf), (-inf, 1)):
        with pytest.raises(ValidationError, match="fmax < inf"):
            log_grid(fmin, fmax)
    with pytest.raises(ValidationError):
        log_grid(1, 10, 0)


def test_log_grid_refuses_a_grid_past_its_bound():
    assert MAX_GRID_POINTS == 10**6
    # the density bound holds on its own, whatever the band
    with pytest.raises(ValidationError, match="at most 1000000"):
        log_grid(1, 1.000001, MAX_GRID_POINTS + 1)
    assert len(log_grid(1, 1.000001, MAX_GRID_POINTS)) == 2
    # 6 decades at 166667 points each, plus the start: 3 points too many
    with pytest.raises(ValidationError, match="1000003 points is past the bound"):
        log_grid(1e-3, 1e3, 166667)
    with pytest.raises(ValidationError, match="past the bound"):
        log_grid(1e-150, 1e150, 4000)


def test_bode_first_order_lowpass():
    tf = make_tf((1,), (1, 1))
    grid = FrequencyGrid((0.1, 1.0, 10.0), "rad")
    sweep = bode(tf, grid)
    for i, w in enumerate(grid.values):
        assert sweep.mag_db[i] == pytest.approx(-10 * math.log10(1 + w * w))
        assert sweep.phase_deg[i] == pytest.approx(-math.degrees(math.atan(w)))


def test_bode_respects_hz_unit():
    tf = make_tf((1,), (1, 1))
    f = 0.5
    sweep = bode(tf, FrequencyGrid((f,), "hz"))
    w = 2 * math.pi * f
    assert sweep.mag_db[0] == pytest.approx(-10 * math.log10(1 + w * w))


def test_bode_applies_gain_tag():
    tagged = make_tf((1.0,), (1.0,), gain=GainTag("k", 10.0))
    sweep = bode(tagged, FrequencyGrid((1.0,), "rad"))
    assert sweep.mag_db[0] == pytest.approx(20.0)
    assert sweep.phase_deg[0] == pytest.approx(0.0)


def test_bode_rejects_symbolic_inputs():
    with pytest.raises(ValidationError):
        bode(
            make_tf((1,), (1,), gain=GainTag("Kp^mu", None)),
            FrequencyGrid((1.0,), "rad"),
        )
    with pytest.raises(ValidationError):
        bode(make_tf((ParamPoly.var("lam"),), (1,)), FrequencyGrid((1.0,), "rad"))


def test_pole_on_grid_stays_isolated():
    tf = make_tf((1,), (1, 0, 1))  # pole at omega = 1
    sweep = bode(tf, FrequencyGrid((0.5, 1.0, 2.0), "rad"))
    assert math.isinf(sweep.mag_db[1])
    assert math.isnan(sweep.phase_deg[1])
    assert math.isfinite(sweep.mag_db[0]) and math.isfinite(sweep.mag_db[2])
    assert sweep.phase_deg[0] == pytest.approx(0.0)
    assert abs(sweep.phase_deg[2]) == pytest.approx(180.0)


def test_overflowing_sweep_returns_its_rows_without_warning():
    # at n = 60 the coefficient form overflows float over the upper decades;
    # those rows come back non-finite, quietly, with the finite rows unchanged
    tf = realize_differintegrator(Differintegrator(Fraction(37, 100)), 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep = bode(tf, log_grid(1e-4, 1e4, 20))
    assert len(sweep.mag_db) == 161
    assert sum(not math.isfinite(m) for m in sweep.mag_db) == 49
    assert sweep.mag_db[:2] == (23.787238108219086, 23.355824777675185)
    rows = repr((sweep.mag_db, sweep.phase_deg)).encode()
    assert hashlib.sha256(rows).hexdigest() == (
        "118254b6a0777e50e7b39d62a18d22460c361e39a6db151f5ecabbaf64eebe31"
    )


def test_a_coefficient_past_float_range_raises_the_fraction_division_text():
    # the benchmark records `compare lam1_4-n5` (Carlson depth 5 at lam =
    # 1/4) as a known defect by this exact text, which Fraction.__float__
    # gives; an int coefficient must give it too, where float() of an int
    # would say "int too large to convert to float"
    grid = FrequencyGrid((1.0, 10.0))
    as_int = make_tf((10**400,), (1,))
    assert type(as_int.num[0]) is int
    as_fraction = TransferFunction((Fraction(10**400),), (Fraction(1),), "rational")
    for tf in (as_int, as_fraction):
        with pytest.raises(OverflowError) as raised:
            bode(tf, grid)
        assert str(raised.value) == "integer division result too large for a float"


def test_phase_unwraps_past_minus_180():
    tf = make_tf((1,), (1, 3, 3, 1))  # 1/(1+s)^3 ends at -270 degrees
    sweep = bode(tf, log_grid(0.01, 1000, 20, unit="rad"))
    assert sweep.phase_deg[-1] < -180.0
    assert sweep.phase_deg[-1] == pytest.approx(-270.0, abs=1.0)


def _sequential_unwrap(phases):
    """Reference: one pass, adding or removing a turn while the jump from
    the previous finite entry lies outside [-180, 180]."""
    out = phases.copy()
    last = None
    offset = 0.0
    for i, p in enumerate(phases):
        if not np.isfinite(p):
            continue
        if last is not None:
            delta = p + offset - last
            while delta > 180.0:
                offset -= 360.0
                delta -= 360.0
            while delta < -180.0:
                offset += 360.0
                delta += 360.0
        out[i] = p + offset
        last = out[i]
    return out


@pytest.mark.parametrize(
    "phases",
    [
        # the jumps read off the unshifted differences pick other turns
        # than the shifted phases do; the turns must be retaken
        (900.0, 830.6479202235316, 360.0, 0.0, 268.13995869488645, -180.0, 2.0**-45),
        (-417.4785503512246, 179.99999999999997, 180.0, -(2.0**-45), -632.3302251928908),
        (-406.57038185305305, -(2.0**-44), 179.99999999999997, 360.0, -0.0),
        (float("nan"), -0.0, float("inf"), 180.0, -180.0, float("-inf")),
        (float("nan"),),
        (),
    ],
)
def test_unwrap_matches_the_sequential_pass(phases):
    phases = np.array(phases, dtype=float)
    assert _unwrap_deg(phases).tobytes() == _sequential_unwrap(phases).tobytes()


def test_unwrap_matches_the_sequential_pass_on_drawn_phases():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    turns = st.integers(min_value=-4, max_value=4)
    jump = st.one_of(
        st.floats(min_value=-180.0, max_value=180.0),
        st.sampled_from((180.0, -180.0)),
        # several turns, at and off the half-turn edges
        st.builds(lambda k, r: 360.0 * k + r, turns, st.floats(min_value=-180.0, max_value=180.0)),
        st.builds(lambda k, r: 360.0 * k + r, turns, st.sampled_from((180.0, -180.0))),
    )
    step = st.one_of(jump, st.sampled_from((math.nan, math.inf, -math.inf)))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.floats(min_value=-180.0, max_value=180.0), st.lists(step, max_size=30))
    def check(start, steps):
        values = [start]
        for s in steps:
            if math.isfinite(s):
                start = start + s
                values.append(start)
            else:
                values.append(s)
        phases = np.array(values)
        assert _unwrap_deg(phases).tobytes() == _sequential_unwrap(phases).tobytes()

    check()


def test_ideal_differintegrator_lines():
    grid = FrequencyGrid((1.0, 10.0), "rad")
    integ = ideal_response(Differintegrator(Fraction(1, 2)), grid)
    assert integ.mag_db[0] == pytest.approx(0.0)
    assert integ.mag_db[1] == pytest.approx(-10.0)
    assert integ.phase_deg == (pytest.approx(-45.0), pytest.approx(-45.0))
    diff = ideal_response(Differintegrator(Fraction(1, 2), sign="differentiator"), grid)
    assert diff.mag_db[1] == pytest.approx(10.0)
    assert diff.phase_deg[0] == pytest.approx(45.0)


def test_ideal_fopd_bracket_spot_value():
    # Kp + Kd*j*omega = 2 + 2j at omega = 2: modulus (2*sqrt(2))^mu, angle 45*mu
    grid = FrequencyGrid((2.0,), "rad")
    sweep = ideal_response(FOPDBracket(Fraction(2), Fraction(1), Fraction(6, 5)), grid)
    assert sweep.mag_db[0] == pytest.approx(20 * 1.2 * math.log10(2 * math.sqrt(2)))
    assert sweep.phase_deg[0] == pytest.approx(45 * 1.2)


def test_ideal_fopid_spot_value():
    # 1 + (j)^-1 + j = 1 exactly at omega = 1
    grid = FrequencyGrid((1.0,), "rad")
    sweep = ideal_response(
        FOPID(Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1)), grid
    )
    assert sweep.mag_db[0] == pytest.approx(0.0)
    assert sweep.phase_deg[0] == pytest.approx(0.0)


def test_ideal_leadlag_spot_value():
    grid = FrequencyGrid((2.0,), "rad")
    spec = LeadLag(Fraction(2), Fraction(1), Fraction(1, 4), Fraction(1, 2))
    sweep = ideal_response(spec, grid)
    h = 2 * 0.25**0.5 * ((1 + 2j) / (1 + 0.5j)) ** 0.5
    assert sweep.mag_db[0] == pytest.approx(20 * math.log10(abs(h)))
    assert sweep.phase_deg[0] == pytest.approx(math.degrees(cmath.phase(h)))


def test_ideal_response_needs_numbers():
    grid = FrequencyGrid((1.0,), "rad")
    one = Fraction(1)
    for spec in (
        Differintegrator(None),
        FOPID(one, None, one, one, one),
        FOPDBracket(one, one, None),
        LeadLag(one, one, None, one),
    ):
        with pytest.raises(ValidationError, match="needs numeric parameters"):
            ideal_response(spec, grid)
    with pytest.raises(ValidationError):
        ideal_response(make_tf((1,), (1,)), grid)


def test_constant_phase_band_takes_widest_run():
    grid = FrequencyGrid((1.0, 2.0, 4.0, 8.0, 16.0, 32.0), "rad")
    sweep = BodeSweep(grid, (0.0,) * 6, (-51.0, -46.0, -44.0, -43.0, -60.0, -44.0))
    assert constant_phase_band(sweep, -45.0, 5.0) == (2.0, 8.0)
    # equal-length runs: the lowest-frequency one wins
    tie = BodeSweep(grid, (0.0,) * 6, (-45.0, -45.0, 0.0, -45.0, -45.0, 0.0))
    assert constant_phase_band(tie, -45.0, 1.0) == (1.0, 2.0)
    none = BodeSweep(grid, (0.0,) * 6, (0.0,) * 6)
    assert constant_phase_band(none, -45.0, 5.0) is None
    with pytest.raises(ValidationError):
        constant_phase_band(sweep, -45.0, 0.0)


def test_constant_phase_band_skips_non_finite():
    grid = FrequencyGrid((1.0, 2.0, 4.0), "rad")
    sweep = BodeSweep(grid, (0.0,) * 3, (-45.0, float("nan"), -45.0))
    assert constant_phase_band(sweep, -45.0, 5.0) == (1.0, 1.0)


def test_constant_phase_band_matches_the_sequential_scan_on_drawn_sweeps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def sequential_band(sweep, target, tol):
        best, best_len, start = None, 0, None
        for i, p in enumerate(list(sweep.phase_deg) + [math.nan]):
            good = math.isfinite(p) and abs(p - target) <= tol
            if good and start is None:
                start = i
            elif not good and start is not None:
                if i - start > best_len:
                    best_len, best = i - start, (start, i - 1)
                start = None
        return None if best is None else (sweep.grid.values[best[0]], sweep.grid.values[best[1]])

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from((-45.0, -44.0, -50.0, math.nan, math.inf)), min_size=1, max_size=40))
    def check(phases):
        grid = FrequencyGrid(tuple(float(2**i) for i in range(len(phases))), "rad")
        sweep = BodeSweep(grid, (0.0,) * len(phases), tuple(phases))
        assert constant_phase_band(sweep, -45.0, 2.0) == sequential_band(sweep, -45.0, 2.0)

    check()


def test_fit_report_numbers():
    grid = FrequencyGrid((1.0, 2.0, 4.0, 8.0), "rad")
    approx = BodeSweep(grid, (0.0, 1.0, 0.0, -1.0), (-44.0, -43.0, -46.0, -45.0))
    ideal = BodeSweep(grid, (0.0,) * 4, (-45.0,) * 4)
    report = fit_report(approx, ideal, (2.0, 8.0))
    assert report.max_phase_err_deg == pytest.approx(2.0)
    assert report.mean_phase_err_deg == pytest.approx(1.0)
    assert report.max_mag_err_db == pytest.approx(1.0)
    assert report.mean_mag_err_db == pytest.approx(2 / 3)
    assert report.band == (2.0, 8.0)
    assert report.constant_phase_band == (1.0, 8.0)


def test_fit_report_preconditions():
    grid = FrequencyGrid((1.0, 2.0), "rad")
    other = FrequencyGrid((1.0, 3.0), "rad")
    flat = BodeSweep(grid, (0.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValidationError):
        fit_report(flat, BodeSweep(other, (0.0, 0.0), (0.0, 0.0)), (1.0, 2.0))
    with pytest.raises(ValidationError):
        fit_report(flat, flat, (0.5, 2.0))
    with pytest.raises(ValidationError):
        fit_report(flat, flat, (2.0, 1.0))
    # inside the grid, but between two of its points
    with pytest.raises(ValidationError, match="^band contains no grid points$"):
        fit_report(flat, flat, (1.25, 1.5))


def test_sweep_length_must_match_grid():
    grid = FrequencyGrid((1.0, 2.0), "rad")
    with pytest.raises(ValidationError):
        BodeSweep(grid, (0.0,), (0.0, 0.0))
