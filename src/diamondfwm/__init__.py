"""Simulator and parameter optimizer for telecom frequency conversion by
diamond-type four-wave mixing in a four-level atomic ensemble."""

__version__ = "0.1.0"

from .config import (ConfigBundle, DriveConfig, MediumConfig, PulseOptions,
                     RateTable, SweepOptions, absorptions, bundle_hash,
                     dump_config, load_config, parse_config, preset, with_mode,
                     GAMMA_HZ, GAMMA_RAD_PER_S, TIME_UNIT_NS)
from .errors import (BoundsError, ConfigParseError, ConfigValidationError,
                     NoUniqueSteadyStateError, NumericalError, ObjectiveError,
                     PulseGridError, SimulationError, SingularResponseError,
                     UnknownPresetError)
from .optimize import OptimizationResult, default_bounds, make_objective, optimize_eta
from .propagation import (CouplingProfile, Observables, SpectrumTable, TransferMatrix,
                          coupling_profile, lorentzian_convolve, observables_at,
                          spectrum_sweep, transfer_matrix)
from .pulse import PulseResult, propagate_pulse
from .response import (ResponseMatrix, ZerothOrderState, linear_response,
                       liouvillian_generator, liouvillian_steady_state,
                       two_level_steady_state)
from .validate import CheckResult, run_checks

__all__ = [
    "__version__",
    "BoundsError", "CheckResult", "ConfigBundle", "ConfigParseError",
    "ConfigValidationError", "CouplingProfile", "DriveConfig", "GAMMA_HZ",
    "GAMMA_RAD_PER_S", "MediumConfig", "NoUniqueSteadyStateError", "NumericalError",
    "ObjectiveError", "Observables", "OptimizationResult",
    "PulseGridError", "PulseOptions", "PulseResult", "RateTable", "ResponseMatrix",
    "SimulationError", "SingularResponseError", "SpectrumTable", "SweepOptions",
    "TIME_UNIT_NS", "TransferMatrix", "UnknownPresetError", "ZerothOrderState",
    "absorptions", "bundle_hash", "coupling_profile", "default_bounds", "dump_config",
    "linear_response", "liouvillian_generator", "liouvillian_steady_state",
    "load_config", "lorentzian_convolve", "make_objective", "observables_at",
    "optimize_eta", "parse_config", "preset", "propagate_pulse", "run_checks",
    "spectrum_sweep", "transfer_matrix", "two_level_steady_state", "with_mode",
]
