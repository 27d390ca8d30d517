"""Self-check suite: model invariants evaluated on a given config.

These are the same invariants the test suite pins down, packaged so a
run can be sanity-checked from the command line: passivity of the
transfer matrix over a detuning/sideband grid, conjugation symmetry
under sign reversal of all detunings, agreement of the linear response
with the brute-force master-equation steady state, grid convergence of
the spatial integrator, resonant two-level absorption against the
closed form, and compositionality of transfer matrices over sub-ranges.

The sideband frequency shifts every detuning of the response alike, so
T(delta_p, omega) = T(delta_p + omega, 0): the passivity grid's
(delta_p, omega) points all lie on one detuning axis.  The grid is kept
as it is, so the check stays the same gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigBundle
from .errors import NumericalError
from .propagation import (PASSIVITY_TOL, coupling_profile, observables_at, transfer_matrix,
                          with_mode)
from .response import _physical, _two_level_arrays, linear_response, liouvillian_steady_state, \
    two_level_steady_state

# grid sizes, oracle draws and tolerances of the checks; passivity's is PASSIVITY_TOL
N_DELTA, N_OMEGA = 50, 10
ORACLE_DRAWS, ORACLE_SEED, PROBE = 5, 2024, 2.5e-4   # PROBE: the oracle's weak-field amplitude
SYMMETRY_TOL, ORACLE_TOL, CONVERGENCE_TOL, BEER_TOL = 1e-9, 1e-6, 1e-6, 1e-6
COMPOSITION_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_passivity(bundle: ConfigBundle) -> CheckResult:
    deltas = np.linspace(bundle.sweep.start, bundle.sweep.stop, N_DELTA)
    omegas = np.linspace(-5.0, 5.0, N_OMEGA)
    dp, om = [x.ravel() for x in np.meshgrid(deltas, omegas)]
    obs = observables_at(bundle, dp, om)
    # largest column photon gain, |a|^2 + |c|^2 or |b|^2 + |d|^2
    defect = float(max(np.max(obs.T_p + obs.eta_s), np.max(obs.eta_p + obs.T_s)) - 1.0)
    return CheckResult("passivity", bool(defect <= PASSIVITY_TOL),
                       f"max photon gain {defect:.3e} over {dp.size} "
                       f"(delta_p, omega) points (tol {PASSIVITY_TOL:g})")


def check_conjugation_symmetry(bundle: ConfigBundle) -> CheckResult:
    drive = bundle.drive
    flipped = replace(bundle, drive=replace(
        drive, delta_p=-drive.delta_p, delta_c=-drive.delta_c, delta_d=-drive.delta_d))
    prof = coupling_profile(bundle)
    prof_f = coupling_profile(flipped)
    worst = 0.0
    for omega in (-2.0, 0.0, 1.3):
        tm = transfer_matrix(omega, bundle, profile=prof)
        tf = transfer_matrix(-omega, flipped, profile=prof_f)
        worst = max(worst, float(np.max(np.abs(tf.as_array() - tm.as_array().conj()))))
    return CheckResult("conjugation_symmetry", bool(worst <= SYMMETRY_TOL),
                       f"max |T(-) - conj(T)| = {worst:.3e} (tol {SYMMETRY_TOL:g})")


def check_oracle_agreement(bundle: ConfigBundle) -> CheckResult:
    """Spot-check the linear response against the master-equation oracle.

    The oracle deviates from the linearization by a physical O(probe^2)
    saturation term, so the probe amplitude PROBE is chosen small
    enough that the truncation floor sits well below the tolerance for
    any parameter draw.  A draw whose two-level state leaves its physical
    bounds fails the check, naming the draw.
    """
    rng = np.random.default_rng(ORACLE_SEED)
    rates = bundle.rates
    worst = 0.0
    for _ in range(ORACLE_DRAWS):
        drive = replace(bundle.drive,
                        omega_c=rng.uniform(1.0, 30.0), omega_d=rng.uniform(1.0, 30.0),
                        delta_p=rng.uniform(-15, 15), delta_c=rng.uniform(-15, 15),
                        delta_d=rng.uniform(-15, 15))
        try:
            zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, rates)
        except NumericalError:   # the rates leave this draw no physical state
            return CheckResult("oracle_agreement", False,
                               f"the two-level state leaves its bounds at the drawn omega_c = "
                               f"{drive.omega_c:g}, delta_c = {drive.delta_c:g} "
                               f"(rates.gamma31 = {rates.gamma31:g}, rates.Gamma3_total = "
                               f"{rates.Gamma3_total:g})")
        chi = linear_response(0.0, drive, drive.omega_c, zeroth, rates)
        rho_p = liouvillian_steady_state(drive, drive.omega_c, rates, omega_p=PROBE)
        rho_s = liouvillian_steady_state(drive, drive.omega_c, rates, omega_s=PROBE)
        pairs = ((rho_p[1, 0] / PROBE, chi.chi_pp), (rho_p[3, 2] / PROBE, chi.chi_sp),
                 (rho_s[1, 0] / PROBE, chi.chi_ps), (rho_s[3, 2] / PROBE, chi.chi_ss))
        for got, want in pairs:
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    return CheckResult("oracle_agreement", bool(worst <= ORACLE_TOL),
                       f"worst relative deviation {worst:.3e} over {ORACLE_DRAWS} "
                       f"parameter draws at probe {PROBE:g} (tol {ORACLE_TOL:g})")


def check_grid_convergence(bundle: ConfigBundle) -> CheckResult:
    obs1 = observables_at(bundle)
    fine = replace(bundle, medium=replace(bundle.medium, n_z=2 * bundle.medium.n_z))
    obs2 = observables_at(fine)
    diff = float(max(abs(obs1.T_p - obs2.T_p), abs(obs1.eta_s - obs2.eta_s)))
    return CheckResult("grid_convergence", bool(diff < CONVERGENCE_TOL),
                       f"doubling n_z moves (T_p, eta_s) by {diff:.3e} (tol {CONVERGENCE_TOL:g})")


def check_beer_absorption(bundle: ConfigBundle) -> CheckResult:
    bare = with_mode(replace(bundle, drive=replace(bundle.drive, delta_p=0.0)), "two_level")
    t_p = observables_at(bare, delta_p=0.0).T_p
    want = math.exp(-bundle.medium.alpha_p / 2.0)
    rel = abs(t_p / want - 1.0) if want > 0 else abs(t_p - want)
    return CheckResult("beer_absorption", bool(rel <= BEER_TOL),
                       f"resonant two-level |A|^2 off by {rel:.3e} relative "
                       f"from exp(-alpha_p/2) (tol {BEER_TOL:g})")


def check_compositionality(bundle: ConfigBundle) -> CheckResult:
    prof = coupling_profile(bundle)
    full = transfer_matrix(0.0, bundle, profile=prof).as_array()
    first = transfer_matrix(0.0, bundle, profile=prof, zeta_span=(0.0, 0.5)).as_array()
    second = transfer_matrix(0.0, bundle, profile=prof, zeta_span=(0.5, 1.0)).as_array()
    diff = float(np.max(np.abs(second @ first - full)))
    return CheckResult("compositionality", bool(diff <= COMPOSITION_TOL),
                       f"split-product deviation {diff:.3e} (tol {COMPOSITION_TOL:g})")


def check_zeroth_order(bundle: ConfigBundle) -> CheckResult:
    wc = np.linspace(0.0, 30.0, 31)
    rho33, rho31 = _two_level_arrays(wc, bundle.drive.delta_c,
                                     bundle.rates.gamma31, bundle.rates.Gamma3_total)
    # the bounds that coupling_profile and two_level_steady_state enforce
    return CheckResult("zeroth_order_bounds", bool(np.all(_physical(rho33, rho31))),
                       f"rho33 in [0, 1/2], |rho31| <= 1/2 over {wc.size} drive strengths")


def run_checks(bundle: ConfigBundle) -> list:
    """Run the whole invariant suite on one config."""
    return [check(bundle) for check in (check_passivity, check_conjugation_symmetry,
                                        check_oracle_agreement, check_grid_convergence,
                                        check_beer_absorption, check_compositionality,
                                        check_zeroth_order)]
