"""Multi-start derivative-free search for the drive parameters that
maximize the steady-state conversion efficiency at fixed optical depth.

The objective surface develops oscillatory fine structure at high OD,
so each Latin-hypercube start runs a bounded Nelder-Mead simplex
(reflection 1, expansion 2, contraction 0.5, shrink 0.5) and the best
point over all starts wins; ties break toward the lowest start index.
Results are bit-for-bit reproducible for a fixed seed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as spopt
from scipy.stats import qmc

from .config import ConfigBundle, DriveConfig, MediumConfig, RateTable
from .errors import BoundsError, ObjectiveError, SimulationError
from .propagation import observables_at

PARAM_NAMES = ("omega_c", "omega_d", "delta_c", "delta_d", "delta_p")

SPREAD_TOL = 1e-4        # simplex objective spread at convergence
SIMPLEX_STEP = 0.08      # initial simplex edge as a fraction of the bound range

# defaults of optimize_eta, and of the `optimize` command's flags
STARTS = 32
SEED = 0
MAX_EVALS = 2000
OMEGA_MAX = 30.0         # Rabi frequencies in [0, OMEGA_MAX]
DELTA_MAX = 15.0         # detunings in [-DELTA_MAX, DELTA_MAX]


def default_bounds(omega_max: float = OMEGA_MAX, delta_max: float = DELTA_MAX) -> np.ndarray:
    """(5, 2) bound pairs ordered as PARAM_NAMES, in Gamma units."""
    w, d = (0.0, omega_max), (-delta_max, delta_max)
    return np.array((w, w, d, d, d), dtype=float)


@dataclass(frozen=True)
class OptimizationResult:
    """Best drive point found, with per-start evaluation traces."""

    od: float
    params: Tuple[float, float, float, float, float]   # ordered as PARAM_NAMES
    eta_s: float
    seed: int
    starts: int
    n_evaluations: int
    traces: Tuple[Tuple[Tuple[int, float], ...], ...]  # per start: (eval index, eta_s)
    bounds: Tuple[Tuple[float, float], ...]

    @property
    def drive(self) -> DriveConfig:
        w_c, w_d, d_c, d_d, d_p = self.params
        return DriveConfig(omega_c=w_c, omega_d=w_d, delta_p=d_p,
                           delta_c=d_c, delta_d=d_d)

    def as_dict(self) -> dict:
        return {
            "od": self.od,
            "best": dict(zip(PARAM_NAMES, self.params)),
            "eta_s": self.eta_s,
            "seed": self.seed,
            "starts": self.starts,
            "n_evaluations": self.n_evaluations,
            "bounds": [list(b) for b in self.bounds],
            "traces": [[[int(i), float(v)] for i, v in tr] for tr in self.traces],
        }


class _BudgetExhausted(Exception):
    pass


def _check_bounds(bounds) -> np.ndarray:
    b = np.asarray(bounds, dtype=float)
    if b.shape != (5, 2):
        raise BoundsError("optimize.bounds",
                          f"expected 5 (low, high) pairs for {PARAM_NAMES}, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise BoundsError("optimize.bounds", "bounds must be finite")
    if np.any(b[:, 0] > b[:, 1]):
        raise BoundsError("optimize.bounds", "lower bounds exceed upper bounds")
    return b


def _latin_hypercube(bounds: np.ndarray, starts: int, seed: int) -> np.ndarray:
    sampler = qmc.LatinHypercube(d=bounds.shape[0], seed=seed)
    unit = sampler.random(starts)
    return bounds[:, 0] + unit * (bounds[:, 1] - bounds[:, 0])


def _initial_simplex(x0: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    simplex = np.tile(x0, (x0.size + 1, 1))
    for i in range(x0.size):
        step = SIMPLEX_STEP * (bounds[i, 1] - bounds[i, 0])
        if step == 0.0:
            step = max(SIMPLEX_STEP, SIMPLEX_STEP * abs(x0[i]))
        if x0[i] + step > bounds[i, 1]:
            step = -step
        simplex[i + 1, i] += step
    return simplex


def _run_start(objective, x0, bounds, max_evals):
    """One Nelder-Mead start; returns the evaluation record (k, params, eta)."""
    records = []

    def wrapped(x):
        if len(records) >= max_evals:
            raise _BudgetExhausted
        eta = objective(x)
        records.append((len(records), tuple(float(v) for v in x), eta))
        return -eta

    try:
        spopt.minimize(
            wrapped, x0, method="Nelder-Mead",
            bounds=[tuple(b) for b in bounds],
            options={"initial_simplex": _initial_simplex(x0, bounds),
                     "fatol": SPREAD_TOL, "xatol": np.inf,
                     "maxfev": max_evals, "adaptive": False})
    except _BudgetExhausted:
        pass   # budget hit mid-iteration: report best-so-far from the records
    return records


def make_objective(od: float, rates: Optional[RateTable] = None, n_z: int = 2000):
    """eta_s as a function of (omega_c, omega_d, delta_c, delta_d, delta_p).

    Evaluation failures are re-raised with the offending parameter
    vector attached.
    """
    rates = rates if rates is not None else RateTable()
    medium = MediumConfig.derive(rates, od=od, n_z=n_z)

    def objective(x) -> float:
        drive = DriveConfig(omega_c=float(x[0]), omega_d=float(x[1]),
                            delta_p=float(x[4]), delta_c=float(x[2]),
                            delta_d=float(x[3]))
        bundle = ConfigBundle(rates=rates, medium=medium, drive=drive)
        try:
            return observables_at(bundle).eta_s
        except SimulationError as exc:
            raise ObjectiveError(f"objective evaluation failed: {exc}", x) from exc

    return objective


def optimize_eta(od: float, bounds: Optional[Sequence] = None, starts: int = STARTS,
                 seed: int = SEED, rates: Optional[RateTable] = None, n_z: int = 2000,
                 max_evals: int = MAX_EVALS, threads: int = 1) -> OptimizationResult:
    """Maximize eta_s over the five drive parameters at fixed optical depth.

    ``od`` is the conventional resonant optical depth (the medium is
    built with alpha_p = 2*od).  ``bounds`` is a sequence of five
    (low, high) pairs ordered as PARAM_NAMES; the default is
    ``default_bounds()``.
    """
    if od < 0:
        raise BoundsError("optimize.od", "optical depth must be >= 0")
    if starts < 1:
        raise BoundsError("optimize.starts", "needs at least one start")
    if max_evals < 1:
        raise BoundsError("optimize.max_evals",
                          f"needs at least one evaluation per start, got {max_evals}")
    b = _check_bounds(bounds if bounds is not None else default_bounds())
    objective = make_objective(od, rates=rates, n_z=n_z)
    x0s = _latin_hypercube(b, starts, seed)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            all_records = list(pool.map(
                lambda x0: _run_start(objective, x0, b, max_evals), x0s))
    else:
        all_records = [_run_start(objective, x0, b, max_evals) for x0 in x0s]

    best_eta = -np.inf
    best_params = tuple(x0s[0])
    n_evals = 0
    traces = []
    for records in all_records:
        n_evals += len(records)
        traces.append(tuple((k, eta) for k, _, eta in records))
        for _, params, eta in records:
            if eta > best_eta:   # strict: ties keep the earlier start
                best_eta = eta
                best_params = params
    if not np.isfinite(best_eta):
        raise ObjectiveError("no successful objective evaluation", best_params)
    return OptimizationResult(od=float(od), params=best_params, eta_s=float(best_eta),
                              seed=seed, starts=starts, n_evaluations=n_evals,
                              traces=tuple(traces),
                              bounds=tuple((float(lo), float(hi)) for lo, hi in b))
