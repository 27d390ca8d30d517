"""Multi-start derivative-free search for the drive parameters that
maximize the steady-state conversion efficiency at fixed optical depth.

The objective surface develops oscillatory fine structure at high OD,
so each Latin-hypercube start runs a bounded Nelder-Mead simplex
(reflection 1, expansion 2, contraction 0.5, shrink 0.5) and the best
point over all starts wins; ties break toward the lowest start index.
The starts advance in lockstep: each round gathers the points every
live start asks for next (its initial simplex, a reflection, an
expansion or contraction, or a shrink) and solves them in one batched
transfer-matrix call.  Each start takes the same steps as scipy 1.17's
``minimize(method="Nelder-Mead")`` with the same options would, and a
point's value does not depend on the batch it is solved in, so results
are bit-for-bit reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import (MAX_MAGNITUDE, ConfigBundle, DriveConfig, MediumConfig, RateTable,
                     _check_numbers)
from .errors import BoundsError, ObjectiveError, SimulationError
from .propagation import DriveBatch, observables_at

PARAM_NAMES = ("omega_c", "omega_d", "delta_c", "delta_d", "delta_p")

SPREAD_TOL = 1e-4        # simplex objective spread at convergence
SIMPLEX_STEP = 0.08      # initial simplex edge as a fraction of the bound range

# Nelder-Mead reflection, expansion, contraction and shrink coefficients,
# with scipy's types: the step expressions then round as scipy's do
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5

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
    """Best drive point found, with per-start evaluation traces and stop reasons."""

    od: float
    params: Tuple[float, float, float, float, float]   # ordered as PARAM_NAMES
    eta_s: float
    seed: int
    starts: int
    n_evaluations: int
    traces: Tuple[Tuple[Tuple[int, float], ...], ...]  # per start: (eval index, eta_s)
    bounds: Tuple[Tuple[float, float], ...]
    stop_reasons: Tuple[str, ...]

    @property
    def drive(self) -> DriveConfig:
        return DriveConfig(**dict(zip(PARAM_NAMES, self.params)))

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
            "stop_reasons": list(self.stop_reasons),
        }


def _check_bounds(bounds) -> np.ndarray:
    b = _check_numbers("optimize.bounds", bounds, scalar=False, error=BoundsError).astype(float)
    if b.shape != (5, 2):
        raise BoundsError("optimize.bounds",
                          f"expected 5 (low, high) pairs for {PARAM_NAMES}, got shape {b.shape}")
    if np.any(b[:, 0] > b[:, 1]):
        raise BoundsError("optimize.bounds", "lower bounds exceed upper bounds")
    if np.any(b[:2, 0] < 0.0):
        raise BoundsError("optimize.bounds", "Rabi frequency bounds must be >= 0")
    return b


def _latin_hypercube(bounds: np.ndarray, starts: int, seed: int) -> np.ndarray:
    """One start per stratum along every axis; the samples of
    ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(starts)``."""
    rng = np.random.default_rng(seed)
    d = bounds.shape[0]
    jitter = rng.uniform(size=(starts, d))
    perms = np.tile(np.arange(1, starts + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    unit = (perms.T - jitter) / starts
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


def _nelder_mead(sim: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_evals: int):
    """One bounded Nelder-Mead start from the initial simplex ``sim``, as
    a generator: it yields the points it needs next as an (m, N) array,
    is sent their objective values (to be minimized) as an (m,) array,
    and returns why it stopped, "spread" or "evaluations".

    Step for step this is scipy 1.17's ``_minimize_neldermead`` with
    ``bounds=(lo, hi)``, ``initial_simplex=sim``, ``fatol=SPREAD_TOL``,
    ``xatol=inf``, ``maxfev=max_evals`` and ``adaptive=False``: the same
    clipping, argsort orderings and expressions.  Where scipy runs out
    of evaluations inside a step, this stops there too.
    """
    n = sim.shape[1]
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full((n + 1,), np.inf, dtype=float)
    evals = min(n + 1, max_evals)
    fsim[:evals] = yield sim[:evals]
    for _ in range(2):   # scipy sorts twice after the initial simplex
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while evals < max_evals:
        if np.max(np.abs(fsim[0] - fsim[1:])) <= SPREAD_TOL:
            return "spread"
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = np.clip((1 + RHO) * xbar - RHO * sim[-1], lo, hi)
        fxr = (yield xr[None])[0]
        evals += 1
        if fxr < fsim[0]:
            if evals == max_evals:
                return "evaluations"
            xe = np.clip((1 + RHO * CHI) * xbar - RHO * CHI * sim[-1], lo, hi)
            fxe = (yield xe[None])[0]
            evals += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if evals == max_evals:
                return "evaluations"
            if fxr < fsim[-1]:   # contraction outside the simplex
                xc = np.clip((1 + PSI * RHO) * xbar - PSI * RHO * sim[-1], lo, hi)
                fxc = (yield xc[None])[0]
                shrink = not fxc <= fxr
            else:                # inside
                xc = np.clip((1 - PSI) * xbar + PSI * sim[-1], lo, hi)
                fxc = (yield xc[None])[0]
                shrink = not fxc < fsim[-1]
            evals += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            elif evals == max_evals:
                return "evaluations"
            else:
                m = min(n, max_evals - evals)
                sim[1:m + 1] = np.clip(sim[0] + SIGMA * (sim[1:m + 1] - sim[0]), lo, hi)
                fsim[1:m + 1] = yield sim[1:m + 1]
                evals += m
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return "evaluations"


def _lockstep(objective, x0s: np.ndarray, bounds: np.ndarray, max_evals: int):
    """Run one ``_nelder_mead`` per start in x0s, maximizing ``objective``.

    Each round makes one ``objective`` call on the points of every live
    start, stacked in start order.  Returns per start its evaluations
    as (params, eta) in order, and its stop reason.
    """
    lo, hi = bounds[:, 0], bounds[:, 1]
    runs = [_nelder_mead(_initial_simplex(x0, bounds), lo, hi, max_evals) for x0 in x0s]
    records = [[] for _ in runs]
    reasons = [None] * len(runs)
    asks = {i: next(run) for i, run in enumerate(runs)}
    while asks:
        etas = objective(np.concatenate(list(asks.values())))
        at = 0
        for i, points in list(asks.items()):
            values = etas[at:at + len(points)]
            at += len(points)
            records[i] += [(tuple(p), float(eta)) for p, eta in zip(points.tolist(), values)]
            try:
                asks[i] = runs[i].send(-values)
            except StopIteration as stop:
                reasons[i] = stop.value
                del asks[i]
    return records, tuple(reasons)


def make_objective(od: float, rates: Optional[RateTable] = None, **grid):
    """eta_s as a function of (omega_c, omega_d, delta_c, delta_d, delta_p).

    A (K, 5) array gives K values from one ``observables_at`` call on a
    DriveBatch of its rows, each equal bit for bit to the value of its
    row alone; a (5,) point is a batch of one and gives a float.  The
    DriveBatch checks the rows field by field: an entry outside
    DriveConfig's domain raises DriveConfig's keyed error.  ``grid`` sets ``n_z`` and
    the wavelengths as in ``MediumConfig.derive``.  Evaluation failures are
    re-raised with the offending parameter vector attached; in a batch,
    that of the first row that fails alone.
    """
    rates = rates if rates is not None else RateTable()
    medium = MediumConfig.derive(rates, od=od, **grid)

    def objective(x):
        X = np.atleast_2d(np.asarray(x, float))
        points = DriveBatch(**dict(zip(PARAM_NAMES, X.T)))
        try:
            eta = observables_at(ConfigBundle(rates=rates, medium=medium, drive=points)).eta_s
        except SimulationError as exc:
            if len(X) > 1:
                for row in X:   # raises for the first row that fails alone
                    objective(row)
                raise
            raise ObjectiveError(f"objective evaluation failed: {exc}", X[0]) from exc
        return eta if np.ndim(x) == 2 else float(eta[0])

    return objective


def optimize_eta(od: float, bounds: Optional[Sequence] = None, starts: int = STARTS,
                 seed: int = SEED, rates: Optional[RateTable] = None,
                 max_evals: int = MAX_EVALS, **grid) -> OptimizationResult:
    """Maximize eta_s over the five drive parameters at fixed optical depth.

    ``od`` is the conventional resonant optical depth (the medium is
    built with alpha_p = 2*od).  ``bounds`` is a sequence of five
    (low, high) pairs ordered as PARAM_NAMES; the default is
    ``default_bounds()``.  The starts run in lockstep, one batched
    objective call per round; ``grid`` is passed to ``make_objective``.
    """
    _check_numbers("optimize.od", od, 0.0, MAX_MAGNITUDE / 2.0, error=BoundsError)
    # the seed is any int >= 0, as numpy's default_rng takes it
    for key, value, low, high in (("seed", seed, 0, np.inf), ("starts", starts, 1, MAX_MAGNITUDE),
                                  ("max_evals", max_evals, 1, MAX_MAGNITUDE)):
        _check_numbers(f"optimize.{key}", value, low, high, integer=True, error=BoundsError)
    b = _check_bounds(bounds if bounds is not None else default_bounds())
    objective = make_objective(od, rates=rates, **grid)
    x0s = _latin_hypercube(b, starts, seed)
    all_records, stop_reasons = _lockstep(objective, x0s, b, max_evals)

    # max keeps the first of equal values: ties go to the earlier start
    best_params, best_eta = max((r for records in all_records for r in records),
                                key=lambda r: r[1])
    return OptimizationResult(od=float(od), params=best_params, eta_s=best_eta,
                              seed=seed, starts=starts,
                              n_evaluations=sum(map(len, all_records)),
                              traces=tuple(tuple(enumerate(eta for _, eta in records))
                                           for records in all_records),
                              bounds=tuple((float(lo), float(hi)) for lo, hi in b),
                              stop_reasons=stop_reasons)
