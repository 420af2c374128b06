"""UWB ranging and localization simulation toolkit.

Error-distribution models and fitting, SS-TWR timing math, regularized
Gauss-Newton multilateration, floor-plan link classification, radio
energy accounting, and a deterministic Monte Carlo deployment engine.
"""

from .distributions import BurrXII, ErrorDistribution, Gaussian, LogNormal
from .energy import BUILTIN_PROFILES, PowerProfile, average_power, energy_per_sstwr
from .errors import ConvergenceError, DataError, ParameterError, SingularGeometryError
from .fitting import EmpiricalPdf, FitResult, empirical_pdf, fit_mle, select_best_model
from .geometry import Anchor, Point3, Wall, classify_link, segment_crosses_wall
from .randomness import RandomStream
from .ranging import (
    TwrTiming,
    diversity_select,
    drift_error,
    propagation_time,
)
from .scenarios import PRESETS, load_scenario, preset_scenario, scenario_from_dict
from .simulator import (
    DiversityConfig,
    RunStatistics,
    Scenario,
    aggregate,
    build_grid,
    run_scenario,
)
from .solver import LocationEstimate, SolverConfig, jacobian, solve

__version__ = "0.1.0"

__all__ = [
    "Anchor",
    "BUILTIN_PROFILES",
    "BurrXII",
    "ConvergenceError",
    "DataError",
    "DiversityConfig",
    "EmpiricalPdf",
    "ErrorDistribution",
    "FitResult",
    "Gaussian",
    "LocationEstimate",
    "LogNormal",
    "PRESETS",
    "ParameterError",
    "Point3",
    "PowerProfile",
    "RandomStream",
    "RunStatistics",
    "Scenario",
    "SingularGeometryError",
    "SolverConfig",
    "TwrTiming",
    "Wall",
    "aggregate",
    "average_power",
    "build_grid",
    "classify_link",
    "diversity_select",
    "drift_error",
    "empirical_pdf",
    "energy_per_sstwr",
    "fit_mle",
    "jacobian",
    "load_scenario",
    "preset_scenario",
    "propagation_time",
    "run_scenario",
    "scenario_from_dict",
    "segment_crosses_wall",
    "select_best_model",
    "solve",
]
