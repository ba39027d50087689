"""Rational approximations of fractional-order operators and controllers.

The library turns irrational operators s^lam and the controllers built
from them into finite-order rational transfer functions via Pade
approximation of their generating series, numerically or with the tuning
parameters kept symbolic, and expands numeric results into domino-ladder
networks realizable with passive components and negative impedance
converters. Recursive zero/pole and fixed-point baselines plus frequency
response tooling round out the comparison workflow; the `fracrat` command
exposes all of it.
"""

from .approx import (
    ContinuedFraction,
    GainTag,
    TransferFunction,
    cfe_to_tf,
    make_tf,
    pade,
    rational_to_cfe,
    tf_equal,
)
from .baselines import BaselineConfig, carlson, modified_oustaloup, oustaloup
from .controllers import (
    FOPID,
    Differintegrator,
    FOPDBracket,
    LeadLag,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
    symbolic_differintegrator,
)
from .errors import (
    DegenerateMathError,
    FracratError,
    InconsistentSystemError,
    ValidationError,
)
from .exact import ParamPoly
from .freqresp import (
    BodeSweep,
    FitReport,
    FrequencyGrid,
    bode,
    constant_phase_band,
    fit_report,
    ideal_response,
    log_grid,
)
from .ladder import (
    CircuitElement,
    LadderElement,
    LadderNetwork,
    export_netlist,
    ladder_to_tf,
    map_elements,
    synthesize_ladder,
)
from .series import PowerSeries, binomial_series, leadlag_kernel_series

__all__ = [
    "BaselineConfig",
    "BodeSweep",
    "CircuitElement",
    "ContinuedFraction",
    "DegenerateMathError",
    "Differintegrator",
    "FOPDBracket",
    "FOPID",
    "FitReport",
    "FracratError",
    "FrequencyGrid",
    "GainTag",
    "InconsistentSystemError",
    "LadderElement",
    "LadderNetwork",
    "LeadLag",
    "ParamPoly",
    "PowerSeries",
    "TransferFunction",
    "ValidationError",
    "binomial_series",
    "bode",
    "carlson",
    "cfe_to_tf",
    "constant_phase_band",
    "export_netlist",
    "fit_report",
    "ideal_response",
    "ladder_to_tf",
    "leadlag_kernel_series",
    "log_grid",
    "make_tf",
    "map_elements",
    "modified_oustaloup",
    "oustaloup",
    "pade",
    "rational_to_cfe",
    "realize_differintegrator",
    "realize_fopd_bracket",
    "realize_fopid",
    "realize_leadlag",
    "symbolic_differintegrator",
    "synthesize_ladder",
    "tf_equal",
]

__version__ = "0.1.0"
