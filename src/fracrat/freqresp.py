"""Frequency-response evaluation, ideal references, and fit metrics.

Everything numeric here runs in double precision; exact coefficients are
converted at evaluation time. Grids carry an explicit unit (hertz or
rad/s) and the 2*pi conversion is applied exactly once, on entry.

numpy is imported on first evaluation, inside the functions that use it,
so importing fracrat and running the construction commands (realize,
symbolic, ladder) never loads it.
"""

from __future__ import annotations

import math
import operator

from ._value import Value
from .approx import TransferFunction
from .controllers import FOPID, Differintegrator, FOPDBracket, LeadLag, _echo
from .errors import ValidationError

TYPE_CHECKING = False  # typing's flag, without importing typing at run time
if TYPE_CHECKING:
    import numpy as np

_UNITS = ("hz", "rad")

#: Half-width, in degrees, of fit_report's constant-phase band around its target.
PHASE_TOL_DEG = 5.0

#: Most points log_grid builds, and most points per decade it takes.
MAX_GRID_POINTS = 10**6


class FrequencyGrid(Value):
    """Strictly increasing, positive evaluation frequencies in a stated
    unit, finite in that unit and in rad/s."""

    _fields = ("values", "unit")

    def __init__(self, values: tuple, unit: str = "hz"):
        if unit not in _UNITS:
            raise ValidationError(f"unit must be one of {_UNITS}")
        values = tuple(map(float, values))
        if not values:
            raise ValidationError("empty frequency grid")
        if not all(map(math.isfinite, values)):
            raise ValidationError("frequencies must be finite")
        if not all(map(operator.lt, values, values[1:])):
            raise ValidationError("grid must be strictly increasing")
        if values[0] <= 0:
            raise ValidationError("frequencies must be positive")
        if unit == "hz" and values[-1] * (2 * math.pi) == math.inf:
            raise ValidationError("frequencies must be finite in rad/s")
        self._set(values, unit)

    def omega(self) -> np.ndarray:
        """Angular frequencies in rad/s."""
        import numpy as np

        scale = 2 * math.pi if self.unit == "hz" else 1.0
        return np.asarray(self.values) * scale

    def __len__(self):
        return len(self.values)


def log_grid(fmin, fmax, points_per_decade: int = 50, unit: str = "hz") -> FrequencyGrid:
    """Logarithmic grid over [fmin, fmax] at the given density. More than
    MAX_GRID_POINTS (10^6) points, or points per decade, raise
    ValidationError before a float product or an allocation."""
    import numpy as np

    fmin = float(fmin)
    fmax = float(fmax)
    if not 0 < fmin < fmax < math.inf:
        raise ValidationError("need 0 < fmin < fmax < inf")
    if points_per_decade < 1:
        raise ValidationError("points_per_decade must be at least 1")
    if points_per_decade > MAX_GRID_POINTS:
        raise ValidationError(f"points_per_decade must be at most {MAX_GRID_POINTS}")
    ratio = fmax / fmin
    if ratio == math.inf:
        raise ValidationError("band too wide: fmax/fmin overflows")
    decades = math.log10(ratio)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    if count > MAX_GRID_POINTS:
        raise ValidationError(f"a grid of {count} points is past the bound of {MAX_GRID_POINTS}")
    values = np.logspace(math.log10(fmin), math.log10(fmax), count)
    values[0] = fmin
    values[-1] = fmax
    return FrequencyGrid(tuple(values.tolist()), unit)


class BodeSweep(Value):
    """Magnitude (dB) and phase (degrees) over a grid.

    Points where the evaluation hit a pole are non-finite rather than
    dropped, so indices always line up with the grid.
    """

    _fields = ("grid", "mag_db", "phase_deg")

    def __init__(self, grid: FrequencyGrid, mag_db: tuple, phase_deg: tuple):
        if not (len(grid) == len(mag_db) == len(phase_deg)):
            raise ValidationError("sweep arrays must match the grid length")
        self._set(grid, mag_db, phase_deg)


def _tf_gain_value(tf: TransferFunction) -> float:
    """The value of tf's gain tag, 1.0 without one. A tag without a value
    (symbolic, or past float range) is a ValidationError naming its label."""
    if tf.gain is None:
        return 1.0
    if tf.gain.value is None:
        raise ValidationError(f"gain tag {_echo(tf.gain.label)} has no numeric value")
    return tf.gain.value


def _unwrap_deg(phases: np.ndarray) -> np.ndarray:
    """Unwrap in degrees, starting at the lowest frequency, skipping
    non-finite entries so a single pole does not poison the tail. Each
    jump takes the fewest whole turns into [-180, 180]; as the offsets
    move the jumps by rounding, the turns are retaken from the shifted
    phases until they stop changing, which equals a sequential pass."""
    import numpy as np

    out = phases.copy()
    finite = np.isfinite(phases)
    p = phases[finite]
    offset = np.zeros(len(p))
    while True:
        shifted = p + offset
        d = (p[1:] + offset[:-1]) - shifted[:-1]
        k = np.where(d > 180.0, -np.ceil((d - 180.0) / 360.0), 0.0)
        k = np.where(d < -180.0, np.ceil((-180.0 - d) / 360.0), k)
        turned = 360.0 * np.concatenate(([0.0], np.cumsum(k)))
        if np.array_equal(turned, offset):
            out[finite] = shifted
            return out
        offset = turned


def _float(c) -> float:
    """A TF coefficient as a float: an exact one (int or Fraction) as
    numerator / denominator (see bode)."""
    return c if isinstance(c, float) else c.numerator / c.denominator


def bode(tf: TransferFunction, grid: FrequencyGrid) -> BodeSweep:
    """Sweep H(j*omega) over the grid with unwrapped phase.

    The coefficients must be numeric: a symbolic TF is a ValidationError.
    An exact coefficient becomes a float as numerator / denominator, the
    division Fraction.__float__ makes, so one past float range raises the
    same OverflowError ("integer division result too large for a float")
    whether it is an int or a Fraction; float() of an int would raise
    another text.
    """
    import numpy as np

    if tf.ring == "symbolic":
        raise ValidationError("substitute symbols before evaluating")
    gain = _tf_gain_value(tf)
    w = grid.omega()
    s = 1j * w
    # overflow and 0/0 leave inf or nan points, which the sweep returns as
    # values rather than warning about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        num = np.polyval([_float(c) for c in reversed(tf.num)], s)
        den = np.polyval([_float(c) for c in reversed(tf.den)], s)
        h = gain * num / den
        mag = 20.0 * np.log10(np.abs(h))
    pole = den == 0
    phase = np.degrees(np.angle(h))
    mag[pole] = np.inf
    phase[pole] = np.nan
    phase = _unwrap_deg(phase)
    return BodeSweep(grid, tuple(mag.tolist()), tuple(phase.tolist()))


def ideal_response(spec, grid: FrequencyGrid) -> BodeSweep:
    """Analytic sweep of the ideal (irrational) controller.

    Every field of the spec must be a number. Uses principal-branch closed
    forms; no unwrapping is involved.
    """
    import numpy as np

    w = grid.omega()
    if not isinstance(spec, (Differintegrator, FOPDBracket, LeadLag, FOPID)):
        raise ValidationError(f"no ideal response for {type(spec).__name__}")
    if None in vars(spec).values():
        raise ValidationError("ideal response needs numeric parameters")
    if isinstance(spec, Differintegrator):
        lam = float(spec.lam)
        sign = -1.0 if spec.sign == "integrator" else 1.0
        mag = sign * 20.0 * lam * np.log10(w)
        phase = np.full_like(w, sign * 90.0 * lam)
        return BodeSweep(grid, tuple(mag.tolist()), tuple(phase.tolist()))
    if isinstance(spec, FOPDBracket):
        h = (float(spec.Kp) + 1j * w * float(spec.Kd)) ** float(spec.mu)
    elif isinstance(spec, LeadLag):
        lam = float(spec.lam)
        x = float(spec.x)
        core = (1 + 1j * w * lam) / (1 + 1j * w * x * lam)
        h = float(spec.Kc) * x ** float(spec.alpha) * core ** float(spec.alpha)
    else:
        jw = 1j * w
        h = (
            float(spec.Kp)
            + float(spec.Ki) * jw ** -float(spec.lam)
            + float(spec.Kd) * jw ** float(spec.mu)
        )
    mag = 20.0 * np.log10(np.abs(h))
    phase = np.degrees(np.angle(h))
    return BodeSweep(grid, tuple(mag.tolist()), tuple(phase.tolist()))


class FitReport(Value):
    """Error summary of an approximation against its ideal over a band."""

    _fields = (
        "max_phase_err_deg", "mean_phase_err_deg", "max_mag_err_db", "mean_mag_err_db",
        "band", "constant_phase_band",
    )

    def __init__(
        self,
        max_phase_err_deg: float,
        mean_phase_err_deg: float,
        max_mag_err_db: float,
        mean_mag_err_db: float,
        band: tuple,
        constant_phase_band: tuple | None,
    ):
        self._set(
            max_phase_err_deg, mean_phase_err_deg, max_mag_err_db, mean_mag_err_db,
            band, constant_phase_band,
        )


def constant_phase_band(sweep: BodeSweep, target_deg: float, tol_deg: float):
    """Widest contiguous frequency run with |phase - target| <= tol.

    Returns (f_lo, f_hi) in the sweep's grid unit, or None when no point
    qualifies. Ties go to the lowest-frequency run.
    """
    import numpy as np

    if tol_deg <= 0:
        raise ValidationError("tol_deg must be positive")
    phases = np.asarray(sweep.phase_deg)
    ok = np.isfinite(phases) & (np.abs(phases - target_deg) <= tol_deg)
    edges = np.diff(np.concatenate(([0], ok.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    if not starts.size:
        return None
    lengths = np.flatnonzero(edges == -1) - starts
    best = int(np.argmax(lengths))  # the first of the longest runs
    return (sweep.grid.values[starts[best]], sweep.grid.values[starts[best] + lengths[best] - 1])


def fit_report(
    approx: BodeSweep,
    ideal: BodeSweep,
    band: tuple,
) -> FitReport:
    """Compare two sweeps over a band of the shared grid.

    The constant-phase band is measured on the approximation against the
    ideal sweep's phase at the band's low edge (the ideal phase of every
    controller in scope is flat wherever it is used as a target), within
    PHASE_TOL_DEG.
    """
    import numpy as np

    if approx.grid != ideal.grid:
        raise ValidationError("sweeps must share one grid")
    lo, hi = float(band[0]), float(band[1])
    values = np.asarray(approx.grid.values)
    if lo < values[0] or hi > values[-1] or lo >= hi:
        raise ValidationError("band outside the evaluated grid")
    mask = (values >= lo) & (values <= hi)
    if not mask.any():
        raise ValidationError("band contains no grid points")
    dphase = np.abs(np.asarray(approx.phase_deg) - np.asarray(ideal.phase_deg))[mask]
    dmag = np.abs(np.asarray(approx.mag_db) - np.asarray(ideal.mag_db))[mask]
    target = float(np.asarray(ideal.phase_deg)[mask][0])
    cpb = constant_phase_band(approx, target, PHASE_TOL_DEG)
    return FitReport(
        max_phase_err_deg=float(np.max(dphase)),
        mean_phase_err_deg=float(np.mean(dphase)),
        max_mag_err_db=float(np.max(dmag)),
        mean_mag_err_db=float(np.mean(dmag)),
        band=(lo, hi),
        constant_phase_band=cpb,
    )
