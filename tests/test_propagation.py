import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diamondfwm as dfm
from diamondfwm import (ConfigValidationError, NumericalError, RateTable, coupling_profile,
                        observables_at, spectrum_sweep, transfer_matrix)
from diamondfwm import propagation
from diamondfwm.response import Workspace, _two_level_arrays

from conftest import rk4_integrate

RATES = RateTable()


def bundle_for(alpha_p=None, od=None, drive=None, n_z=400, rates=RATES):
    return dfm.ConfigBundle(
        rates=rates,
        medium=dfm.MediumConfig.derive(rates, alpha_p=alpha_p, od=od, n_z=n_z),
        drive=drive if drive is not None else dfm.preset("fig3").drive)


# ---------------------------------------------------------------------------
# coupling profile


def _along_zeta(prof):
    """zeta and omega_c of the first profile row at every node, in increasing zeta."""
    return prof.zeta[:, 0].T.ravel(), prof.omega_c[:, 0].T.ravel()


def _half_and_last_nodes(prof):
    """(node, step) of the middle node of the middle step, near zeta = 1/2,
    and of the last node, near zeta = 1."""
    return (1, prof.n_steps // 2), (2, prof.n_steps - 1)


def test_no_medium_keeps_coupling_constant():
    b = bundle_for(alpha_p=0.0)
    prof = coupling_profile(b)
    assert np.all(prof.omega_c == 11.0 + 0j)


def test_weak_resonant_coupling_decays_at_quarter_alpha():
    # linear absorption: amplitude ~ exp(-alpha_c * zeta / 4)
    rates = RateTable(Gamma2_total=1.0, Gamma3_total=1.0, Gamma4_total=1.0,
                      Gamma21=1.0, Gamma31=1.0)
    drive = dfm.DriveConfig(omega_c=0.01, omega_d=0.0, delta_p=0.0,
                            delta_c=0.0, delta_d=0.0)
    med = dfm.MediumConfig.derive(rates, alpha_p=4.0, lambda_c=795.0,
                                  lambda_s=1324.0, n_z=400)
    alpha_c = dfm.absorptions(rates, med)[0]
    assert alpha_c == pytest.approx(4.0)
    b = dfm.ConfigBundle(rates=rates, medium=med, drive=drive)
    prof = coupling_profile(b)
    ratio = abs(prof.omega_c[-1, 0, -1]) / drive.omega_c   # at the last node
    assert ratio == pytest.approx(math.exp(-alpha_c * prof.zeta[-1, 0, -1] / 4.0), abs=1e-4)


def test_profile_magnitude_never_increases():
    for od in (10.0, 75.0, 110.0):
        b = bundle_for(od=od)
        zeta, wc = _along_zeta(coupling_profile(b))
        assert np.all(np.diff(zeta) > 0.0)
        mags = np.abs(np.concatenate([[b.drive.omega_c], wc]))   # from the input at zeta = 0
        assert np.all(np.diff(mags) <= 1e-12)
        assert mags[0] == 11.0


@settings(max_examples=15, deadline=None)
@given(wc=st.floats(0.5, 25.0), dc=st.floats(-10.0, 10.0), od=st.floats(1.0, 120.0))
def test_profile_satisfies_separable_invariant(wc, dc, od):
    """The profile ODE is separable; its exact solution obeys

        den0*ln(s/s0) + g31*(s - s0) = -g31^2 * alpha_c * G3 * zeta / 2

    for s = |omega_c|^2, and the accumulated phase is
    (delta_c / 2 g31) * ln(s/s0).  Checks the closed-form profile
    against both.
    """
    drive = dfm.DriveConfig(omega_c=wc, omega_d=0.0, delta_p=0.0, delta_c=dc, delta_d=0.0)
    b = bundle_for(od=od, drive=drive, n_z=600)
    g31, G3 = RATES.gamma31, RATES.Gamma3_total
    den0 = G3 * (g31 ** 2 + dc ** 2)
    prof = coupling_profile(b)
    s0 = wc ** 2
    for j, i in _half_and_last_nodes(prof):
        zeta, w = prof.zeta[j, 0, i], prof.omega_c[j, 0, i]
        s = abs(w) ** 2
        lhs = den0 * math.log(s / s0) + g31 * (s - s0)
        rhs = -0.5 * g31 ** 2 * dfm.absorptions(b.rates, b.medium)[0] * G3 * zeta
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
        phase = np.angle(w / wc)
        want = (dc / (2.0 * g31)) * math.log(s / s0)
        assert math.remainder(phase - want, 2 * math.pi) == pytest.approx(0.0, abs=1e-11)


def _fine_rk4_profile(b, zeta_end, n_steps=4000):
    """Oracle: RK4 on d w/d zeta = (i g31 alpha_c / 2) rho31(w), with rho31
    the driven two-level steady state written out directly."""
    r, dc = b.rates, b.drive.delta_c

    def rhs(w):
        s = abs(w) ** 2
        den = r.Gamma3_total * (r.gamma31 ** 2 + dc ** 2) + s * r.gamma31
        rho33 = 0.5 * s * r.gamma31 / den if den > 0.0 else 0.0
        rho31 = 0.5j * w * (1.0 - 2.0 * rho33) / (r.gamma31 - 1j * dc)
        return 0.5j * r.gamma31 * dfm.absorptions(r, b.medium)[0] * rho31

    return complex(rk4_integrate(rhs, b.drive.omega_c, zeta_end, zeta_end / n_steps))


@pytest.mark.parametrize("name, wc, dc", [
    ("fig3", None, None), ("fig4", None, None), ("od200", 14.0, -6.0),
    ("od200", 3.0, 0.5), ("fig3", 1e4, 5.0)])
def test_profile_matches_fine_rk4(name, wc, dc):
    b = dfm.preset(name)
    if wc is not None:
        drive = dfm.DriveConfig(omega_c=wc, omega_d=0.0, delta_p=0.0, delta_c=dc, delta_d=0.0)
        b = replace(b, drive=drive)
    prof = coupling_profile(b)
    for j, i in _half_and_last_nodes(prof):
        want = _fine_rk4_profile(b, prof.zeta[j, 0, i])   # integrated to the node's own zeta
        assert abs(prof.omega_c[j, 0, i] - want) <= 1e-10 * abs(b.drive.omega_c)


@pytest.mark.parametrize("od, wc", [(1e5, 11.0), (1e7, 11.0), (75.0, 1e4), (1e5, 1e4)])
def test_profile_stays_finite_and_monotone_at_extremes(od, wc):
    drive = dfm.DriveConfig(omega_c=wc, omega_d=0.0, delta_p=0.0, delta_c=5.0, delta_d=0.0)
    prof = coupling_profile(bundle_for(od=od, drive=drive, n_z=400))
    mags = np.abs(np.concatenate([[wc], _along_zeta(prof)[1]]))   # from the input at zeta = 0
    assert np.all(np.isfinite(prof.omega_c))
    assert np.all(np.diff(mags) <= 0.0)
    assert mags[0] == wc and mags[-1] < wc


def test_profile_constant_without_coupling_decay():
    # Gamma3_total = 0 with gamma_extra > 0 gives den0 = 0: the coupling
    # transition is fully saturated and the beam is not absorbed
    rates = RateTable(Gamma3_total=0.0, Gamma31=0.0, gamma_extra=0.5)
    med = dfm.MediumConfig.derive(rates, alpha_p=150.0, n_z=400)
    b = dfm.ConfigBundle(rates=rates, medium=med, drive=dfm.preset("fig3").drive)
    assert np.all(coupling_profile(b).omega_c == 11.0 + 0j)


def test_fig3_profile_regression(fig3):
    prof = coupling_profile(fig3)
    ratio = abs(prof.omega_c[-1, 0, -1]) / fig3.drive.omega_c   # at the last node
    assert ratio > 0.8                    # far-detuned saturated absorption is weak
    assert ratio == pytest.approx(0.8925636035821114, rel=1e-9)


def test_wright_omega_matches_scipy():
    from scipy.special import wrightomega
    # dense over each region of the initial guess, its edges from both
    # sides, an argument whose omega underflows to 0 and one above 1e20
    edges = np.array([-50.0, -2.0, 1.0, 1e20])
    z = np.concatenate([np.linspace(-60.0, 30.0, 90_001), np.geomspace(1.0, 1e22, 2_001),
                        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [-1e4, 1e21]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = propagation._wright_omega(z)
    want = wrightomega(z)
    normal = want >= np.finfo(float).tiny
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-14 * want[normal])
    assert np.array_equal(got[~normal], want[~normal])
    assert got[z == -1e4] == 0.0 and got[z == 1e21] == 1e21


def test_batch_profile_rows_equal_single_drive_profiles():
    # no beam, a beam that saturates the medium, and a delta_c whose square
    # rounds apart under C's pow(d, 2) and d * d: a lone drive squared
    # otherwise than its batch row would show here
    drives = [dfm.DriveConfig(omega_c=wc, omega_d=0.0, delta_p=0.0, delta_c=dc, delta_d=0.0)
              for wc, dc in ((0.0, 5.0), (11.0, -13.952544085020115), (1e4, 5.0),
                             (26.0, 9.0), (0.5, 0.0))]
    batch = coupling_profile(bundle_for(od=200.0, drive=propagation.DriveBatch.stack(drives)))
    assert batch.omega_c.shape == (3, len(drives), batch.n_steps)
    for k, drive in enumerate(drives):
        single = coupling_profile(bundle_for(od=200.0, drive=drive))
        for name in ("omega_c", "rho33", "rho31"):
            got, want = getattr(batch, name)[:, k], getattr(single, name)[:, 0]
            assert got.tobytes() == want.tobytes(), (name, k)


# ---------------------------------------------------------------------------
# transfer matrix


def test_empty_medium_gives_identity():
    b = bundle_for(alpha_p=0.0)
    for om in (-3.0, 0.0, 7.5):
        tm = transfer_matrix(om, b)
        assert tm.a == 1.0 and tm.d == 1.0 and tm.b == 0.0 and tm.c == 0.0


def test_empty_medium_observables():
    obs = observables_at(bundle_for(alpha_p=0.0))
    assert (obs.T_p, obs.eta_s, obs.T_s, obs.eta_p) == (1.0, 0.0, 1.0, 0.0)


@settings(max_examples=10, deadline=None)
@given(alpha=st.floats(0.5, 200.0))
def test_two_level_resonant_beer_law(alpha):
    drive = dfm.DriveConfig(omega_c=0.0, omega_d=0.0, delta_p=0.0,
                            delta_c=0.0, delta_d=0.0)
    b = bundle_for(alpha_p=alpha, drive=drive, n_z=2000)
    t_p = observables_at(b).T_p
    assert t_p == pytest.approx(math.exp(-alpha / 2.0), rel=1e-6)


def test_fig3_operating_point_regression(fig3):
    obs = observables_at(fig3)
    assert obs.eta_s == pytest.approx(0.7103880853698, rel=1e-8)
    assert obs.T_p == pytest.approx(0.0102761474053, rel=1e-7)


def test_fig4_operating_point_regression(fig4):
    obs = observables_at(fig4)
    assert obs.eta_s == pytest.approx(0.7310153798877, rel=1e-8)


def test_passivity_on_grid(fig3_small):
    from diamondfwm.propagation import _transfer_components
    prof = coupling_profile(fig3_small)
    dp, om = np.meshgrid(np.linspace(-10, 15, 26), np.linspace(-5, 5, 7))
    a, b, c, d = _transfer_components(fig3_small, prof, dp.ravel(), om.ravel())
    assert np.max(np.abs(a) ** 2 + np.abs(c) ** 2) <= 1 + 1e-9
    assert np.max(np.abs(b) ** 2 + np.abs(d) ** 2) <= 1 + 1e-9


def test_transfer_conjugation_symmetry(fig3_small):
    b = fig3_small
    flipped = replace(b, drive=replace(b.drive, delta_p=1.0, delta_c=-5.0, delta_d=4.0))
    for om in (0.0, 2.7):
        tm = transfer_matrix(om, b, delta_p=-1.0)
        tf = transfer_matrix(-om, flipped, delta_p=1.0)
        assert np.max(np.abs(tf.as_array() - tm.as_array().conj())) < 1e-9


def test_compositionality(fig3_small):
    prof = coupling_profile(fig3_small)
    full = transfer_matrix(0.4, fig3_small, profile=prof).as_array()
    first = transfer_matrix(0.4, fig3_small, profile=prof, zeta_span=(0.0, 0.5)).as_array()
    second = transfer_matrix(0.4, fig3_small, profile=prof, zeta_span=(0.5, 1.0)).as_array()
    assert np.max(np.abs(second @ first - full)) < 1e-8


def test_span_beyond_the_medium_rejected(fig3):
    with pytest.raises(ValueError, match=r"step range \(0, 512\) outside \[0, 256\]"):
        transfer_matrix(0.0, fig3, zeta_span=(0, 2))


@pytest.mark.parametrize("span", [(math.nan, 1.0), (0.0, math.inf), ("a", 1), (True, 1),
                                  (0.0,), (0.0, 0.5, 1.0), 0.5, (0.0, 2e8)])
def test_span_outside_the_domain_names_zeta_span(fig3, span):
    with pytest.raises(ConfigValidationError, match="^zeta_span: must be ") as err:
        transfer_matrix(0.0, fig3, zeta_span=span)
    assert err.value.key == "zeta_span"


def test_grid_convergence(fig3):
    obs = observables_at(fig3)
    fine = replace(fig3, medium=replace(fig3.medium, n_z=2 * fig3.medium.n_z))
    obs2 = observables_at(fine)
    assert abs(obs.T_p - obs2.T_p) < 1e-6
    assert abs(obs.eta_s - obs2.eta_s) < 1e-6


def test_optical_depth_too_high_for_grid_raises(fig3):
    # the default grid is far too coarse at OD 1e5; the error is the one signal
    b = replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"OD 100000 with medium.n_z = 256"):
            observables_at(b)


def test_strongly_absorbed_probe_leaves_signal_untouched(fig3):
    # two-level OD 1e6 on 256 steps: each step attenuates the probe by about
    # e^-1950, where the cosh form of the step exponential would cancel and
    # overflow; the e^(t+-q) branch keeps the clear signal channel at 1
    b = dfm.with_mode(replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e6)), "two_level")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dp in (-1.0, 0.0, 3.0):
            obs = observables_at(b, delta_p=dp)
            assert obs.T_p == 0.0 and abs(obs.T_s - 1.0) <= 1e-12


def test_finite_photon_gain_raises(fig3):
    # at OD 1e4 on 256 steps the transfer matrix at delta_p = -2.8 is finite
    # but gains photons (column gain ~7e9): rejected like a non-finite one
    b = replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e4, n_z=256))
    with pytest.raises(NumericalError, match=r"not passive .* at OD 10000 with medium.n_z = 256"):
        observables_at(b, delta_p=-2.8)
    assert observables_at(b, delta_p=0.0).T_p < 1e-30   # passive points still pass


@pytest.mark.parametrize("rates, drive", [
    # gamma31 below Gamma3_total / 2: the signal channel gains 20% at OD 75
    pytest.param(RateTable(Gamma2_total=1.478, Gamma3_total=2.0, gamma31=0.8),
                 dfm.DriveConfig(omega_c=5.418, delta_c=5.418, delta_d=5.418),
                 id="gamma31-below-half-sum"),
    # gamma31 dephased far beyond gamma41 and gamma43: a gain of 1.6e-6
    pytest.param(RateTable(Gamma3_total=2.1226, Gamma4_total=0.05, gamma31=2.4329,
                           gamma_extra=0.2254),
                 dfm.DriveConfig(omega_c=2.1226, delta_p=6.2014, delta_c=-13.9001),
                 id="gamma31-dephased-alone")])
def test_amplifying_rates_are_named_not_the_grid(rates, drive):
    # the local response has gain, so no grid makes the medium passive
    for n_z in (100, 2000):
        b = dfm.ConfigBundle(rates=rates, drive=drive,
                             medium=dfm.MediumConfig.derive(rates, od=75.0, n_z=n_z))
        with pytest.raises(NumericalError, match=r"not passive .* own response has gain") as err:
            observables_at(b)
        assert "check the rates" in str(err.value) and "raise medium.n_z" not in str(err.value)


@pytest.mark.parametrize("rates, drive, od, cause", [
    pytest.param(RateTable(Gamma2_total=1.478, Gamma3_total=2.0, gamma31=0.8),
                 dfm.DriveConfig(omega_c=5.418, delta_c=5.418, delta_d=5.418), 75.0,
                 "own response has gain, up to 0.201", id="gamma31-below-half-sum"),
    pytest.param(RateTable(Gamma3_total=2.1226, Gamma4_total=0.05, gamma31=2.4329,
                           gamma_extra=0.2254),
                 dfm.DriveConfig(omega_c=2.1226, delta_p=6.2014, delta_c=-13.9001), 75.0,
                 "own response has gain, up to 1.57e-06", id="gamma31-dephased-alone"),
    pytest.param(RATES, replace(dfm.preset("fig3").drive, delta_p=-2.8), 1e4,
                 "raise medium.n_z", id="fig3-od10000")])
def test_passivity_guard_reuses_the_call_chi_terms(monkeypatch, rates, drive, od, cause):
    # the guard's diagnosis solves chi at its one column, as a tile does
    calls = []
    chi_arrays = propagation._chi_arrays
    monkeypatch.setattr(propagation, "_chi_arrays",
                        lambda *args: calls.append(args[3].shape) or chi_arrays(*args))
    b = dfm.ConfigBundle(rates=rates, drive=drive,
                         medium=dfm.MediumConfig.derive(rates, od=od, n_z=256))
    with pytest.raises(NumericalError, match=r"not passive .*" + re.escape(cause)):
        observables_at(b)
    assert calls == [(1, 1)] * 2   # the call's one tile, then the guard's column


def test_optical_depth_too_high_for_grid_is_silent_on_threads(fig3):
    # the tiles' overflows are silenced; the guard reports them once
    b = replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="OD 100000"):
            spectrum_sweep("fwm", b, start=-1.0, stop=1.0, step=0.01, threads=2)


# ---------------------------------------------------------------------------
# tiled kernel


def _reference_chi(bundle, profile, delta_p, omega, i0, i1):
    """chi_pp, chi_ps, chi_sp and chi_ss at the Gauss nodes of steps
    i0..i1-1 as plain numpy expressions, each (frequency, node-major
    column)."""
    r, dr = bundle.rates, bundle.drive
    wc = profile.omega_c[:, 0, i0:i1].ravel()[None, :]   # node-major, as the kernel's columns
    rho33, rho31 = _two_level_arrays(wc, dr.delta_c, r.gamma31, r.Gamma3_total)
    rho11, rho13 = 1.0 - rho33, np.conj(rho31)
    x = (np.asarray(delta_p, float) + np.asarray(omega, float))[:, None]

    xd = x + dr.delta_d
    d1 = 1j * x - r.gamma21
    d2 = 1j * (x - dr.delta_c) - r.gamma23
    d3 = 1j * xd - r.gamma41
    d4 = 1j * (xd - dr.delta_c) - r.gamma43
    oc, occ = -0.5j * wc, -0.5j * np.conj(wc)
    w, v = 0.5j * np.conj(dr.omega_d), 0.5j * dr.omega_d
    g = oc * occ
    inv_q = 1.0 / (d3 * d4 - g)
    f = w * v * inv_q
    s11, s22, fac = d1 - f * d4, d2 - f * d3, 1.0 + f
    inv_p = 1.0 / (s11 * s22 - g * fac * fac)
    bp1, bp2 = -0.5j * rho11, -0.5j * rho13
    chi_pp = (s22 * bp1 - oc * fac * bp2) * inv_p
    p2 = (s11 * bp2 - occ * fac * bp1) * inv_p
    chi_sp = -v * (d3 * p2 - occ * chi_pp) * inv_q
    bq1, bq2 = -0.5j * rho31, -0.5j * rho33
    rp1 = -w * (d4 * bq1 - oc * bq2) * inv_q
    rp2 = -w * (d3 * bq2 - occ * bq1) * inv_q
    chi_ps = (s22 * rp1 - oc * fac * rp2) * inv_p
    p2 = (s11 * rp2 - occ * fac * rp1) * inv_p
    chi_ss = (d3 * (bq2 - v * p2) - occ * (bq1 - v * chi_ps)) * inv_q
    return chi_pp, chi_ps, chi_sp, chi_ss


def _reference_generator(bundle, profile, delta_p, omega, i0, i1):
    """M = i c chi at the Gauss nodes of steps i0..i1-1 as plain numpy
    expressions: entries (11, 12, 21, 22), each (frequency, node-major
    column)."""
    chi_pp, chi_ps, chi_sp, chi_ss = _reference_chi(bundle, profile, delta_p, omega, i0, i1)
    r, med = bundle.rates, bundle.medium
    alpha_s = dfm.absorptions(r, med)[1]
    cp, cs = 0.5 * r.gamma21 * med.alpha_p, 0.5 * r.gamma43 * alpha_s
    cx = 0.5 * math.sqrt(r.gamma21 * med.alpha_p * r.gamma43 * alpha_s)
    return 1j * cp * chi_pp, 1j * cx * chi_ps, 1j * cx * chi_sp, 1j * cs * chi_ss


def _reference_components(bundle, profile, delta_p, omega, step_range=None):
    """The transfer-matrix kernel as plain numpy expressions over the whole
    batch at once, one temporary array per operation: chi at the Gauss
    nodes, the sixth-order Magnus step with its exponential e^(Re t) in
    real arithmetic and cosh q - 1 and sinh(q)/q as series in q^2, the
    pairwise ordered product, on every step of the span, and the phase
    e^(i sum Im t) of each frequency.  The tiled kernel performs the same
    operations in the same order where M is neither diagonal nor the same
    at every node, so there it must match this bit for bit.  The
    exponential's fallback beyond the series bound is left out: no step
    of the grids and optical depths used here reaches it (asserted)."""
    n = profile.n_steps
    i0, i1 = step_range or (0, n)
    m = i1 - i0
    if m == 0:
        ones, zeros = np.ones(len(delta_p), complex), np.zeros(len(delta_p), complex)
        return ones, zeros, zeros, ones
    Mpp, Mps, Msp, Mss = _reference_generator(bundle, profile, delta_p, omega, i0, i1)

    # Magnus step on traceless parts (x, y, z) = [[x, y], [z, -x]]
    h = 1.0 / n
    h_a2, h_a3 = math.sqrt(15.0) * h / 3.0, 10.0 * h / 3.0

    def nodes(a):
        return a[:, :m], a[:, m:2 * m], a[:, 2 * m:]

    def quadrature(c1, c2, c3):
        return ((c1 + c3) * (5.0 / 18.0) + c2 * (4.0 / 9.0)) * h

    def comm(a, b, f):
        return ((a[1] * b[2] - b[1] * a[2]) * f, (a[0] * b[1] - b[0] * a[1]) * (2.0 * f),
                (a[2] * b[0] - b[2] * a[0]) * (2.0 * f))

    A1, A2, A3 = zip(*(nodes(a) for a in ((Mpp - Mss) * 0.5, Mps, Msp)))
    t = quadrature(*nodes((Mpp + Mss) * 0.5))
    b2 = [A3[k] - A1[k] for k in range(3)]
    b3 = [(A1[k] + A3[k]) - A2[k] * 2.0 for k in range(3)]
    c = comm(A2, b2, h * h_a2)
    u = [(c[k] - A2[k] * (20.0 * h)) - b3[k] * h_a3 for k in range(3)]
    cw = comm(A2, [c[k] + b3[k] * (2.0 * h_a3) for k in range(3)], h / 60.0)
    v = [b2[k] * h_a2 - cw[k] for k in range(3)]
    cuv = comm(u, v, 1.0 / 240.0)
    nx, ny, nz = (quadrature(A1[k], A2[k], A3[k]) + cuv[k] for k in range(3))
    z = nx * nx + ny * nz   # q^2
    assert np.all(np.abs(z) <= propagation._SERIES_BOUND)
    # Horner's rule on (cosh q - 1) / z = sum z^k / (2k + 2)! and
    # sinh(q) / q = sum z^k / (2k + 1)!, k = 0..5, side by side
    coef = [np.array([1.0 / math.factorial(2 * k + 2), 1.0 / math.factorial(2 * k + 1)],
                     complex)[:, None, None] for k in range(6)]
    series = np.broadcast_to(coef[5], (2,) + z.shape)
    for c in coef[4::-1]:
        series = series * z + c
    ch, sh = series[0] * z, series[1]
    tau = t.real
    D = np.expm1(tau) * (ch + 1.0) + ch
    S = sh * np.exp(tau)
    R = [(D + S * nx) + 1.0, S * ny, S * nz, (D - S * nx) + 1.0]
    phi = np.sum(t.imag, axis=1)
    phase = np.cos(phi) + 1j * np.sin(phi)

    def mat_mul(a, b):
        return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

    while R[0].shape[1] > 1:
        k = R[0].shape[1] // 2
        prod = mat_mul([a[:, 1:2 * k:2] for a in R], [a[:, 0:2 * k:2] for a in R])
        R = [np.concatenate([p, a[:, 2 * k:]], axis=1) for p, a in zip(prod, R)]
    return tuple(a[:, 0] * phase for a in R)


@pytest.mark.parametrize("n_z", [400, 2000, 8000])
def test_tiles_threads_and_step_ranges_match_reference_bitwise(monkeypatch, n_z):
    b = bundle_for(od=110.0, n_z=n_z)
    prof = coupling_profile(b)
    rng = np.random.default_rng(n_z)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)   # 67 = 22*3 + 1 = 64 + 3
    want = _reference_components(b, prof, dp, om)
    grid = 3 * n_z   # chi samples per frequency
    # 64 frequencies of n_z 8000 would take ~500 MB of workspace per thread
    for per_tile in (1, 3, 64) if n_z <= 2000 else (1, 3):
        monkeypatch.setattr(propagation, "_TILE_ELEMENTS", per_tile * grid)
        for threads in (1, 2):
            got = propagation._transfer_components(b, prof, dp, om, threads=threads)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (per_tile, threads)
    for step_range in ((n_z // 3, n_z - n_z // 5), (n_z // 2, n_z // 2)):
        got = propagation._transfer_components(b, prof, dp, om, step_range=step_range)
        want = _reference_components(b, prof, dp, om, step_range)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), step_range
    assert np.array_equal(got[0], np.ones(dp.size)) and not np.any(got[1])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("per_tile", [1, 3])
def test_drive_batch_of_one_drive_matches_shared_drive_bitwise(monkeypatch, per_tile, threads):
    b = dfm.preset("fig3")
    batch = replace(b, drive=propagation.DriveBatch.stack([b.drive] * 67))
    rng = np.random.default_rng(67)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", per_tile * 3 * b.medium.n_z)
    want = propagation._transfer_components(b, coupling_profile(b), dp, om, threads=threads)
    prof = coupling_profile(batch)
    got = propagation._transfer_components(batch, prof, dp, om, threads=threads)
    assert got.tobytes() == want.tobytes()
    steps = (b.medium.n_z // 3, b.medium.n_z - b.medium.n_z // 5)
    want = propagation._transfer_components(b, coupling_profile(b), dp, om, step_range=steps,
                                            threads=threads)
    got = propagation._transfer_components(batch, prof, dp, om, step_range=steps,
                                           threads=threads)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="do not pair up"):
        propagation._transfer_components(batch, prof, dp[:5], om[:5])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("per_tile", [1, 67])
@pytest.mark.parametrize("batched", [False, True])
def test_chi_terms_are_built_once_per_call(monkeypatch, batched, per_tile, threads):
    # a shared drive and a DriveBatch alike: one chi call per tile, from its own slices
    b = dfm.preset("fig3")
    if batched:
        b = replace(b, drive=propagation.DriveBatch.stack([b.drive] * 67))
    prof = coupling_profile(b)
    rng = np.random.default_rng(67)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", per_tile * 3 * b.medium.n_z)
    calls = []   # list.append is atomic across threads
    chi_arrays = propagation._chi_arrays
    monkeypatch.setattr(propagation, "_chi_arrays",
                        lambda *args: calls.append(1) or chi_arrays(*args))
    propagation._transfer_components(b, prof, dp, om, threads=threads)
    assert len(calls) == 67 // per_tile


def test_warm_batch_call_peak_does_not_grow_with_the_batch():
    # chi's terms last one tile, so a DriveBatch's scratch is one tile's
    def peak(k):
        rng = np.random.default_rng(k)
        batch = propagation.DriveBatch(*(rng.uniform(lo, hi, k) for lo, hi in
                                         ((1, 30), (1, 30), (-10, 10), (-10, 10), (-10, 10))))
        b = bundle_for(od=200.0, drive=batch, n_z=256)
        prof = coupling_profile(b)
        propagation._transfer_components(b, prof, batch.delta_p, 0.0)
        tracemalloc.start()
        try:
            propagation._transfer_components(b, prof, batch.delta_p, 0.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(60), peak(200)
    assert large <= 1.1 * small and large < 3 << 20


@pytest.mark.parametrize("threads", [1, 2])
def test_tiles_read_the_two_level_state_from_the_profile(monkeypatch, fig3, threads):
    # the profile holds the two-level state: many tiles on one profile compute none
    prof = coupling_profile(fig3)
    calls = []

    def counted(*args):
        calls.append(args)
        return _two_level_arrays(*args)

    monkeypatch.setattr(propagation, "_two_level_arrays", counted)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", 3 * fig3.medium.n_z)   # 1 per tile
    got = propagation._transfer_components(fig3, prof, np.linspace(-10.0, 15.0, 7), 0.0,
                                           threads=threads)
    assert np.all(np.isfinite(got)) and not calls
    coupling_profile(fig3)
    assert len(calls) == 1   # one call per profile


def test_step_exponential_matches_expm():
    # exp(tau I + N) = (1 + D) I + S N against scipy's expm for |q^2| from 0
    # to 10: lanes with nx = 0 and ny = 1 have q^2 = nz, so they sit at the
    # series bound and one ulp either side of it; beyond it the fallback
    from scipy.linalg import expm
    bound = propagation._SERIES_BOUND
    rng = np.random.default_rng(5)
    edge = [s * v for v in (bound, np.nextafter(bound, 0.0), np.nextafter(bound, 1.0))
            for s in (1.0, -1.0, 1j, -1j)]
    # random lanes: nz = (q^2 - nx^2) / ny for |q^2| from 0 to 10
    q2 = np.concatenate([[0.0], np.logspace(-12, 1, 99)])
    q2 = q2 * np.exp(2j * np.pi * rng.uniform(size=100))
    x = np.sqrt(np.abs(q2)) / 2 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    y = rng.uniform(0.1, 10.0, 100) * np.exp(1j * rng.uniform(-3, 3, 100))
    nx, ny = np.concatenate([np.zeros(len(edge)), x]), np.concatenate([np.ones(len(edge)), y])
    nz = np.concatenate([edge, (q2 - x * x) / y])
    tau = rng.uniform(-3.0, 1.0, nx.size)
    shape = (4, nx.size // 4)   # (frequency, step) as in the kernel
    D, S = np.empty(shape, complex), np.empty(shape, complex)
    propagation._exp_terms(*(a.reshape(shape) for a in (tau, nx, ny, nz)), D, S,
                           Workspace())
    D, S = D.ravel(), S.ravel()
    far = np.abs(nx * nx + ny * nz) > bound
    assert not far[:8].any() and far[8:12].all() and 10 < far.sum() < 100
    for k in range(nx.size):
        want = expm(np.array([[tau[k] + nx[k], ny[k]], [nz[k], tau[k] - nx[k]]]))
        got = np.array([[(D[k] + S[k] * nx[k]) + 1.0, S[k] * ny[k]],
                        [S[k] * nz[k], (D[k] - S[k] * nx[k]) + 1.0]])
        ulp = np.finfo(float).eps * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 8.0 * ulp, k


@pytest.mark.parametrize("mode", ["v_type", "two_level", "fwm"])
def test_loopless_chi_is_the_elimination_at_zero_omega_d(mode):
    # without omega_d the blocks decouple: chi_pp and chi_ss are those of the
    # full elimination bit for bit, and chi_ps = chi_sp = 0
    b = dfm.preset("fig3")
    b = replace(b, drive=replace(b.drive, omega_d=0.0)) if mode == "fwm" else dfm.with_mode(b, mode)
    prof = coupling_profile(b)
    rng = np.random.default_rng(3)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    d = b.drive
    chi = propagation._chi_arrays(prof.omega_c, prof.rho33, prof.rho31, (dp + om)[:, None],
                                  d.delta_c, d.delta_d, d.omega_d, b.rates,
                                  not d.omega_d, Workspace())
    got = chi.transpose(0, 2, 1, 3).reshape(4, dp.size, -1)   # (freq, node-major column)
    want = _reference_chi(b, prof, dp, om, 0, b.medium.n_z)
    assert got[0].tobytes() == want[0].tobytes() and got[3].tobytes() == want[3].tobytes()
    assert not np.any(got[1]) and not np.any(got[2])


def test_magnus_step_is_sixth_order():
    # halving the step cuts the error by 2^6 = 64 at the OD 200 drive
    drive = dfm.DriveConfig(omega_c=26.0, omega_d=17.0, delta_p=0.0, delta_c=9.0, delta_d=-7.0)
    dp = np.linspace(-10.0, 15.0, 126)

    def components(n_z):
        b = bundle_for(od=200.0, drive=drive, n_z=n_z)
        return np.array(propagation._transfer_components(b, coupling_profile(b), dp, 0.0))

    ref = components(1024)
    err64, err128 = (np.max(np.abs(components(n) - ref)) for n in (64, 128))
    assert 40.0 <= err64 / err128 <= 90.0


@pytest.mark.parametrize("n_z", [256, 8000])
@pytest.mark.parametrize("mode", ["two_level", "cascade"])
@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_uncoupled_signal_channel_is_exact(name, mode, n_z):
    # without the coupling beam the signal sees an empty medium: each step's
    # exponential must give it exactly 1, with no rounding that accumulates
    b = dfm.preset(name)
    b = replace(b, medium=replace(b.medium, n_z=n_z))
    table = spectrum_sweep(mode, b, start=-10.0, stop=15.0, step=0.25)
    assert np.all(table.T_s == 1.0)
    assert np.all(table.eta_p == 0.0)


def test_warm_transfer_call_allocates_under_1mb(fig3):
    # the tiles write into the thread's workspace, so a call after a warm
    # one allocates only its O(grid + batch) inputs and outputs
    prof = coupling_profile(fig3)
    dp = np.linspace(-10.0, 15.0, 501)
    om = np.zeros_like(dp)
    propagation._transfer_components(fig3, prof, dp, om)
    tracemalloc.start()
    try:
        propagation._transfer_components(fig3, prof, dp, om)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_warm_two_thread_call_allocates_under_1mb(fig3):
    # threads=2 starts no thread, so a warm call allocates no workspace
    prof = coupling_profile(fig3)
    dp = np.linspace(-10.0, 15.0, 200)   # 10 tiles
    propagation._transfer_components(fig3, prof, dp, 0.0, threads=2)
    tracemalloc.start()
    try:
        propagation._transfer_components(fig3, prof, dp, 0.0, threads=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("threads", [1, 2, 8])
def test_a_call_runs_its_tiles_in_order_on_the_calling_thread(monkeypatch, fig3, threads):
    dp = np.linspace(-1.0, 1.0, 7)
    ran = []
    chi_arrays = propagation._chi_arrays

    def recorded(*args):
        ran.append((threading.get_ident(), threading.active_count(), args[3][0, 0]))
        return chi_arrays(*args)

    monkeypatch.setattr(propagation, "_chi_arrays", recorded)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", 3 * fig3.medium.n_z)   # 1 per tile
    before = threading.active_count()
    propagation._transfer_components(fig3, coupling_profile(fig3), dp, 0.0, threads=threads)
    assert ran == [(threading.get_ident(), before, x) for x in dp]


def test_a_failing_tile_ends_the_call(monkeypatch, fig3):
    # the second tile raises: its error reaches the caller and no later tile runs
    dp = np.linspace(-1.0, 1.0, 7)
    ran = []
    chi_arrays = propagation._chi_arrays

    def failing(*args):
        ran.append(args[3][0, 0])
        if len(ran) == 2:
            raise RuntimeError("tile 1")
        return chi_arrays(*args)

    monkeypatch.setattr(propagation, "_chi_arrays", failing)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", 3 * fig3.medium.n_z)   # 1 per tile
    with pytest.raises(RuntimeError, match="^tile 1$"):
        propagation._transfer_components(fig3, coupling_profile(fig3), dp, 0.0, threads=2)
    assert ran == list(dp[:2])


def test_two_calling_threads_keep_their_own_workspaces(monkeypatch, fig3):
    # each calling thread writes into its own workspace: two threads'
    # concurrent calls, on a short switch interval, match serial calls bit
    # for bit
    prof = coupling_profile(fig3)
    monkeypatch.setattr(propagation, "_TILE_ELEMENTS", 4 * 3 * fig3.medium.n_z)   # 4 per tile
    grids = [np.linspace(-10.0, 15.0, 41), np.linspace(-3.0, 2.0, 37)]   # 11 and 10 tiles
    want = [propagation._transfer_components(fig3, prof, dp, 0.0) for dp in grids]
    got, kept = [[], []], [None, None]

    def caller(i):
        for _ in range(5):
            got[i].append(propagation._transfer_components(fig3, prof, grids[i], 0.0, threads=2))
        kept[i] = propagation._workspace()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in (0, 1)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for i in (0, 1):
        assert len(got[i]) == 5 and all(g.tobytes() == want[i].tobytes() for g in got[i])
    assert len({id(ws) for ws in kept + [propagation._workspace()]}) == 3


# ---------------------------------------------------------------------------
# diagonal and zeta-uniform media


def _mode_bundle(name, mode, n_z):
    b = dfm.with_mode(dfm.preset(name), mode)
    return replace(b, medium=replace(b.medium, n_z=n_z))


@pytest.mark.parametrize("n_z", [256, 2000])
@pytest.mark.parametrize("mode", ["v_type", "cascade", "two_level"])
@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_diagonal_modes_match_the_magnus_product(name, mode, n_z):
    # one exponential per channel against the general path's steps and product
    b = _mode_bundle(name, mode, n_z)
    prof = coupling_profile(b)
    rng = np.random.default_rng(n_z)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    got = propagation._transfer_components(b, prof, dp, om)
    gap = np.max(np.abs(got - np.array(_reference_components(b, prof, dp, om))))
    assert not np.any(got[1]) and not np.any(got[2])
    if not prof._uniform:
        assert gap <= 1e-13
        return
    # M is the same at every node, so the exact transfer is exp(M) entry by
    # entry; the product of n_z factors reaches it to its own round-off only,
    # about 1.5e-13 at n_z 2000
    Mpp, _, _, Mss = _reference_generator(b, prof, dp, om, 0, 1)
    assert np.max(np.abs(got[[0, 3]] - np.exp([Mpp[:, 0], Mss[:, 0]]))) <= 1e-15
    assert n_z > 256 or gap <= 1e-13


@pytest.mark.parametrize("mode", ["cascade", "two_level"])
@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_uniform_profile_takes_one_step(monkeypatch, name, mode):
    coarse, fine = (_mode_bundle(name, mode, n_z) for n_z in (2, 256))
    assert coupling_profile(fine)._uniform and not coupling_profile(dfm.preset(name))._uniform
    grids = []

    def counted(*args, **kwargs):
        grids.append(args[0].shape)   # omega_c: (node, row, step) of the profile
        return response_chi(*args, **kwargs)

    response_chi = propagation._chi_arrays
    monkeypatch.setattr(propagation, "_chi_arrays", counted)
    dp = np.linspace(-10.0, 15.0, 101)
    rows = [observables_at(b, delta_p=dp) for b in (coarse, fine)]
    assert grids == [(3, 1, 1)] * 2   # 3 chi samples per frequency on either grid
    for col in ("T_p", "eta_s", "T_s", "eta_p"):
        assert np.max(np.abs(getattr(rows[0], col) - getattr(rows[1], col))) <= 1e-15
    # a split span is one step on each side, and the halves compose
    prof = coupling_profile(fine)
    halves = [propagation._transfer_components(fine, prof, dp, 0.0, step_range=s)
              for s in ((0, 100), (100, 256))]
    whole = propagation._transfer_components(fine, prof, dp, 0.0)
    assert np.max(np.abs(halves[0] * halves[1] - whole)) <= 1e-15


def test_uniform_coupled_medium_is_one_closed_form_step():
    # Gamma3_total = 0 leaves the beam unabsorbed, but omega_d keeps the FWM
    # loop: one step of the closed-form exponential spans the medium
    rates = RateTable(Gamma3_total=0.0, Gamma31=0.0, gamma_extra=0.5)
    med = dfm.MediumConfig.derive(rates, alpha_p=150.0, n_z=400)
    b = dfm.ConfigBundle(rates=rates, medium=med, drive=dfm.preset("fig3").drive)
    prof = coupling_profile(b)
    rng = np.random.default_rng(1)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    got = propagation._transfer_components(b, prof, dp, om)
    assert prof._uniform and np.min(np.abs(got[2])) > 0.0
    assert np.max(np.abs(got - np.array(_reference_components(b, prof, dp, om)))) <= 1e-13


@pytest.mark.parametrize("mode", ["v_type", "cascade"])
def test_diagonal_tiles_and_threads_match_bitwise(monkeypatch, mode):
    b = _mode_bundle("fig3", mode, 256)
    prof = coupling_profile(b)
    rng = np.random.default_rng(7)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)
    want = propagation._transfer_components(b, prof, dp, om).tobytes()
    grid = 3 * (1 if prof._uniform else b.medium.n_z)   # chi samples per frequency
    for per_tile in (1, 3, 64):
        monkeypatch.setattr(propagation, "_TILE_ELEMENTS", per_tile * grid)
        for threads in (1, 2):
            got = propagation._transfer_components(b, prof, dp, om, threads=threads)
            assert got.tobytes() == want, (per_tile, threads)


@pytest.mark.parametrize("mode", ["v_type", "cascade"])
def test_warm_diagonal_transfer_call_allocates_under_1mb(mode):
    b = dfm.with_mode(dfm.preset("fig3"), mode)
    prof = coupling_profile(b)
    dp = np.linspace(-10.0, 15.0, 501)
    om = np.zeros_like(dp)
    propagation._transfer_components(b, prof, dp, om)
    tracemalloc.start()
    try:
        propagation._transfer_components(b, prof, dp, om)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mixed_batch_takes_the_general_path_for_every_row(fig3):
    # one point without omega_d among fig3 points: the batch keeps the
    # product, and each row's eta_s is that of its drive alone, bit for bit
    drives = [replace(fig3.drive, delta_p=d) for d in (-4.0, -1.0, 2.5)]
    drives.insert(2, replace(fig3.drive, omega_d=0.0, delta_p=0.5))
    batch = observables_at(replace(fig3, drive=propagation.DriveBatch.stack(drives)))
    assert batch.eta_s[2] == 0.0 and np.all(batch.eta_s[[0, 1, 3]] > 0.0)
    for k, drive in enumerate(drives):
        assert observables_at(replace(fig3, drive=drive)).eta_s == batch.eta_s[k]


# ---------------------------------------------------------------------------
# spectra


def test_empty_sweep_range_rejected(fig3_small):
    with pytest.raises(ConfigValidationError):
        spectrum_sweep("fwm", fig3_small, start=5.0, stop=-5.0, step=0.5)
    with pytest.raises(ConfigValidationError):
        spectrum_sweep("fwm", fig3_small, start=-5.0, stop=5.0, step=-0.5)


def test_mode_must_be_known(fig3_small):
    with pytest.raises(ConfigValidationError):
        spectrum_sweep("diagonal", fig3_small)


def test_two_level_mode_has_no_conversion(fig3_small):
    table = spectrum_sweep("two_level", fig3_small, start=-5, stop=5, step=0.5)
    assert np.all(table.eta_s == 0.0)
    assert np.all(table.eta_p == 0.0)
    assert np.all(table.T_s == 1.0)


def test_fwm_reduces_to_v_type_and_cascade(fig3_small):
    sub_v = replace(fig3_small, drive=replace(fig3_small.drive, omega_d=0.0))
    got = spectrum_sweep("fwm", sub_v, start=-3, stop=3, step=0.5)
    want = spectrum_sweep("v_type", fig3_small, start=-3, stop=3, step=0.5)
    assert np.array_equal(got.T_p, want.T_p)
    assert np.array_equal(got.eta_s, want.eta_s)

    sub_c = replace(fig3_small, drive=replace(fig3_small.drive, omega_c=0.0))
    got = spectrum_sweep("fwm", sub_c, start=-3, stop=3, step=0.5)
    want = spectrum_sweep("cascade", fig3_small, start=-3, stop=3, step=0.5)
    assert np.array_equal(got.T_p, want.T_p)


def test_v_type_peak_sits_at_coupling_detuning(fig3_small):
    table = spectrum_sweep("v_type", fig3_small, start=-10, stop=15, step=0.1)
    assert abs(table.peak_delta_p("T_p") - fig3_small.drive.delta_c) <= 1.0


def test_cascade_peak_between_half_and_full_drive_detuning(fig3_small):
    table = spectrum_sweep("cascade", fig3_small, start=-10, stop=15, step=0.1)
    peak = table.peak_delta_p("T_p")
    assert 2.0 <= peak <= 4.0


def test_detuning_sign_mirror_symmetry(fig3_small):
    table = spectrum_sweep("fwm", fig3_small, start=-8, stop=8, step=0.25)
    drive = fig3_small.drive
    neg = replace(fig3_small, drive=replace(
        drive, delta_p=-drive.delta_p, delta_c=-drive.delta_c, delta_d=-drive.delta_d))
    mirror = spectrum_sweep("fwm", neg, start=-8, stop=8, step=0.25)
    assert np.max(np.abs(table.eta_s - mirror.eta_s[::-1])) <= 1e-9
    assert np.max(np.abs(table.T_p - mirror.T_p[::-1])) <= 1e-9


def test_reciprocity_near_operating_points(fig3, fig4):
    for bundle in (fig3, fig4):
        obs = observables_at(bundle)
        assert abs(obs.eta_p - obs.eta_s) <= 0.05


def test_photon_number_never_grows(fig3_small):
    table = spectrum_sweep("fwm", fig3_small, start=-10, stop=15, step=0.5)
    assert np.all(table.T_p + table.eta_s <= 1 + 1e-9)
    assert np.all(table.T_s + table.eta_p <= 1 + 1e-9)


def test_lorentzian_convolution_columns(fig3_small):
    table = spectrum_sweep("fwm", fig3_small, start=-6, stop=6, step=0.1,
                           linewidth=5.0 / 6.0)
    assert table.T_p_conv is not None
    # unit-area kernel: a constant column convolves to itself
    const = dfm.lorentzian_convolve(table.delta_p, np.full_like(table.T_p, 0.7),
                                    5.0 / 6.0)
    assert np.max(np.abs(const - 0.7)) < 1e-12
    # smoothing shrinks the total variation of the oscillatory raw curve
    tv = lambda y: np.sum(np.abs(np.diff(y)))
    assert tv(table.eta_s_conv) <= tv(table.eta_s)
    assert table.eta_s_conv.max() <= table.eta_s.max() + 1e-12


def _dense_lorentzian(x, y, fwhm):
    half = 0.5 * fwhm
    kernel = half / ((x[:, None] - x[None, :]) ** 2 + half ** 2)
    return kernel @ y / kernel.sum(axis=1)


def test_lorentzian_matches_dense_kernel():
    x = -10.0 + 0.05 * np.arange(401)
    y = np.random.default_rng(7).uniform(0.0, 1.0, x.size)
    for fwhm in (0.02, 5.0 / 6.0, 40.0):
        got = dfm.lorentzian_convolve(x, y, fwhm)
        assert np.max(np.abs(got - _dense_lorentzian(x, y, fwhm))) <= 1e-12


def test_lorentzian_fine_sweep_completes():
    # --step 1e-4 over the default range: a dense kernel would need ~500 GB
    x = -10.0 + 1e-4 * np.arange(250_001)
    got = dfm.lorentzian_convolve(x, np.full(x.size, 0.3), 5.0 / 6.0)
    assert got.shape == x.shape and np.max(np.abs(got - 0.3)) < 1e-12


@pytest.mark.parametrize("fwhm", [1e-160, 1e-300, 5e-324])
def test_lorentzian_tiny_linewidth_returns_the_raw_column(fwhm):
    # (FWHM/2)^2 underflows here: the kernel is a spike, and no warning is raised
    x = -10.0 + 0.05 * np.arange(401)
    y = np.random.default_rng(7).uniform(0.0, 1.0, x.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dfm.lorentzian_convolve(x, y, fwhm)
    assert np.isfinite(got).all() and np.max(np.abs(got - y)) <= 1e-12


@pytest.mark.parametrize("fwhm", [0.0, -1.0, math.inf, math.nan, True, 2e8])
def test_lorentzian_rejects_fwhm_outside_the_domain(fwhm):
    x = -10.0 + 0.05 * np.arange(401)
    with pytest.raises(ConfigValidationError, match="^fwhm: ") as err:
        dfm.lorentzian_convolve(x, np.ones(x.size), fwhm)
    assert err.value.key == "fwhm"


def test_lorentzian_rejects_non_uniform_grid():
    x = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniformly spaced"):
        dfm.lorentzian_convolve(x, np.ones(4), 1.0)


def test_sweep_threads_match_serial(fig3_small):
    serial = spectrum_sweep("fwm", fig3_small, start=-5, stop=5, step=0.05)
    threaded = spectrum_sweep("fwm", fig3_small, start=-5, stop=5, step=0.05, threads=4)
    assert np.array_equal(serial.eta_s, threaded.eta_s)


@pytest.mark.parametrize("threads", [0, -3, True, 1.7, "2", None])
def test_threads_outside_the_domain_are_rejected_by_key(fig3, threads):
    # threads is an integer within [1, 1e8] in the Python API as on the CLI:
    # 0, -3 and True ran serially, 1.7 started two threads, "2" and None
    # ended in a bare TypeError
    for run in (lambda: spectrum_sweep("fwm", fig3, step=0.5, threads=threads),
                lambda: dfm.propagate_pulse(fig3, n_freq=64, threads=threads)):
        with pytest.raises(ConfigValidationError, match="^threads: must be an integer"):
            run()


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_sweep_rows_equal_observables_at_bitwise(name):
    for mode in dfm.config.SWEEP_MODES:
        b = dfm.with_mode(dfm.preset(name), mode)
        table = spectrum_sweep(mode, b, start=-10.0, stop=15.0, step=0.25)
        for k, dp in enumerate(table.delta_p):
            obs = observables_at(b, delta_p=float(dp))
            assert (obs.T_p, obs.eta_s, obs.T_s, obs.eta_p) == \
                (table.T_p[k], table.eta_s[k], table.T_s[k], table.eta_p[k]), (mode, dp)


def test_array_observables_equal_scalar_calls(fig3_small):
    dp, om = np.linspace(-10.0, 15.0, 23), np.linspace(-5.0, 5.0, 23)
    got = observables_at(fig3_small, delta_p=dp, omega=om)
    assert got.eta_s.shape == (23,)
    for k in range(dp.size):
        assert observables_at(fig3_small, delta_p=float(dp[k]), omega=float(om[k])) == \
            dfm.Observables(*(float(v[k]) for v in (got.T_p, got.eta_s, got.T_s, got.eta_p)))
    # a DriveBatch drive gives each point its own delta_p
    drives = [replace(fig3_small.drive, omega_c=w, delta_p=d)
              for w, d in ((0.0, 1.0), (11.0, -1.0), (25.0, 3.5))]
    batch = observables_at(replace(fig3_small, drive=propagation.DriveBatch.stack(drives)))
    for k, drive in enumerate(drives):
        assert observables_at(replace(fig3_small, drive=drive)).eta_s == batch.eta_s[k]


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_passivity_check_is_unchanged(name):
    # reference: the column photon gain that the kernel's guard reads, from
    # np.abs over the raw transfer entries of the same grid; the observables
    # square the same way, so their column sums equal the guard's bit for bit
    from diamondfwm.validate import check_passivity
    b = dfm.preset(name)
    dp, om = [x.ravel() for x in np.meshgrid(np.linspace(b.sweep.start, b.sweep.stop, 50),
                                             np.linspace(-5.0, 5.0, 10))]
    rows = np.abs(propagation._transfer_components(b, coupling_profile(b), dp, om)
                  .reshape(2, 2, -1)) ** 2
    defect = float(np.max(rows[0] + rows[1]) - 1.0)
    obs = observables_at(b, dp, om)
    assert np.array_equal(obs.T_p + obs.eta_s, rows[0, 0] + rows[1, 0])
    assert np.array_equal(obs.eta_p + obs.T_s, rows[0, 1] + rows[1, 1])
    got = check_passivity(b)
    assert got.passed == (defect <= 1e-9)
    assert got.detail == f"max photon gain {defect:.3e} over 500 (delta_p, omega) points (tol 1e-09)"


def test_two_dimensional_detunings_rejected_by_name(fig3_small):
    with pytest.raises(ValueError, match=r"delta_p must be a scalar or a 1-D array, "
                                         r"got shape \(3, 1\)"):
        observables_at(dfm.preset("fig3"), delta_p=np.array([[-1.0], [0.0], [1.0]]))
    with pytest.raises(ValueError, match=r"omega .* got shape \(1, 2\)"):
        observables_at(fig3_small, omega=np.zeros((1, 2)))


def test_drive_required(fig3_small):
    with pytest.raises(ConfigValidationError):
        observables_at(replace(fig3_small, drive=None))
    with pytest.raises(ConfigValidationError):
        transfer_matrix(0.0, replace(fig3_small, drive=None), profile=coupling_profile(fig3_small))


_POINT = {"omega_c": [11.0, 11.0], "omega_d": [9.0, 9.0], "delta_p": [-1.0, -1.0],
          "delta_c": [5.0, 5.0], "delta_d": [-4.0, -4.0]}


@pytest.mark.parametrize("key, value", [
    ("omega_c", [11.0, np.nan]),
    ("delta_p", [np.inf, -1.0]),
    ("omega_c", [11.0, -11.0]),
    ("omega_d", [-0.5, 9.0]),
    ("delta_c", [5.0, 1e200]),
    ("delta_d", np.array(["-4", "-4"])),
    ("omega_d", np.array([True, True])),
    ("delta_c", [[5.0], [5.0]]),
    ("delta_p", [-1.0]),
    ("omega_c", 11.0),
])
def test_drive_batch_rejects_bad_points_by_key(key, value):
    with pytest.raises(ConfigValidationError) as err:
        propagation.DriveBatch(**{**_POINT, key: value})
    assert err.value.key == f"fields.{key}"


def test_drive_batch_points_obey_drive_config(fig3_small):
    # the first bad point raises DriveConfig's error for that point
    batch = {**_POINT, "omega_c": [-1.0, np.nan], "delta_c": [1e9, 5.0]}
    with pytest.raises(ConfigValidationError) as err:
        propagation.DriveBatch(**batch)
    with pytest.raises(ConfigValidationError) as want:
        dfm.DriveConfig(**{k: v[0] for k, v in batch.items()})
    assert str(err.value) == str(want.value)
    # a valid batch is stored as float arrays and solved as before
    drives = propagation.DriveBatch(**{**_POINT, "omega_c": [11, 0]})
    assert drives.omega_c.dtype == float
    eta = observables_at(replace(fig3_small, drive=drives)).eta_s
    assert eta[0] == observables_at(fig3_small).eta_s


@pytest.mark.parametrize("kwargs, key", [
    ({"delta_p": np.nan}, "fields.delta_p"),
    ({"delta_p": [-1.0, np.inf]}, "fields.delta_p"),
    ({"omega": np.inf}, "omega"),
    ({"omega": [0.0, np.nan]}, "omega"),
    # finite, but beyond config.MAX_MAGNITUDE, as a document's fields.delta_p
    ({"delta_p": 1e154}, "fields.delta_p"),
    ({"omega": [0.0, 1e9]}, "omega"),
])
def test_non_finite_detunings_rejected_by_key(fig3_small, kwargs, key):
    with pytest.raises(ConfigValidationError) as err:
        observables_at(fig3_small, **kwargs)
    assert err.value.key == key


@pytest.mark.parametrize("kwargs, key", [
    ({"delta_p": "x"}, "fields.delta_p"),
    ({"delta_p": True}, "fields.delta_p"),
    ({"delta_p": [-1.0, None]}, "fields.delta_p"),
    ({"omega": [0.0, 1j]}, "omega"),
    ({"omega": np.array([False, True])}, "omega"),
])
def test_non_numeric_detunings_rejected_by_key(fig3_small, kwargs, key):
    # numbers, not bools, as DriveBatch takes them
    with pytest.raises(ConfigValidationError, match="must be numbers") as err:
        observables_at(fig3_small, **kwargs)
    assert err.value.key == key


def test_integer_detunings_are_numbers(fig3_small):
    got = observables_at(fig3_small, delta_p=-1, omega=[0, 2])
    want = observables_at(fig3_small, delta_p=-1.0, omega=[0.0, 2.0])
    assert all(np.array_equal(getattr(got, k), getattr(want, k)) for k in ("T_p", "eta_s"))


def test_non_finite_transfer_frequency_rejected_by_key(fig3_small):
    with pytest.raises(ConfigValidationError) as err:
        transfer_matrix(np.nan, fig3_small)
    assert err.value.key == "omega"
    with pytest.raises(ConfigValidationError) as err:
        transfer_matrix(0.0, fig3_small, delta_p=-np.inf)
    assert err.value.key == "fields.delta_p"
