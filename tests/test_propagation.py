import math
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
from diamondfwm.response import _two_level_arrays

from conftest import rk4_integrate

RATES = RateTable()


def bundle_for(alpha_p=None, od=None, drive=None, n_z=400, rates=RATES):
    return dfm.ConfigBundle(
        rates=rates,
        medium=dfm.MediumConfig.derive(rates, alpha_p=alpha_p, od=od, n_z=n_z),
        drive=drive if drive is not None else dfm.preset("fig3").drive)


# ---------------------------------------------------------------------------
# coupling profile


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
    assert med.alpha_c == pytest.approx(4.0)
    b = dfm.ConfigBundle(rates=rates, medium=med, drive=drive)
    prof = coupling_profile(b)
    ratio = abs(prof.omega_c[-1]) / abs(prof.omega_c[0])
    assert ratio == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_profile_magnitude_never_increases():
    for od in (10.0, 75.0, 110.0):
        b = bundle_for(od=od)
        mags = np.abs(coupling_profile(b).omega_c)
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
    s0 = abs(prof.omega_c[0]) ** 2
    for idx in (len(prof.omega_c) // 2, -1):
        zeta = prof.zeta[idx]
        s = abs(prof.omega_c[idx]) ** 2
        lhs = den0 * math.log(s / s0) + g31 * (s - s0)
        rhs = -0.5 * g31 ** 2 * b.medium.alpha_c * G3 * zeta
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)
        phase = np.angle(prof.omega_c[idx] / prof.omega_c[0])
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
        return 0.5j * r.gamma31 * b.medium.alpha_c * rho31

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
    mid = len(prof.zeta) // 2
    for idx, zeta_end in ((mid, 0.5), (-1, 1.0)):
        want = _fine_rk4_profile(b, zeta_end)
        assert abs(prof.omega_c[idx] - want) <= 1e-10 * abs(prof.omega_c[0])


@pytest.mark.parametrize("od, wc", [(1e5, 11.0), (1e7, 11.0), (75.0, 1e4), (1e5, 1e4)])
def test_profile_stays_finite_and_monotone_at_extremes(od, wc):
    drive = dfm.DriveConfig(omega_c=wc, omega_d=0.0, delta_p=0.0, delta_c=5.0, delta_d=0.0)
    prof = coupling_profile(bundle_for(od=od, drive=drive, n_z=400))
    mags = np.abs(prof.omega_c)
    assert np.all(np.isfinite(prof.omega_c))
    assert np.all(np.diff(mags) <= 0.0)
    assert mags[0] == wc and mags[-1] < wc


def test_profile_constant_without_coupling_decay():
    # Gamma3_total = 0 with gamma_extra > 0 gives den0 = 0: the coupling
    # transition is fully saturated and the beam is not absorbed
    rates = RateTable(Gamma3_total=0.0, Gamma31=0.0, gamma_extra=0.5)
    med = dfm.MediumConfig(alpha_p=150.0, alpha_c=150.0, alpha_s=150.0, n_z=400)
    b = dfm.ConfigBundle(rates=rates, medium=med, drive=dfm.preset("fig3").drive)
    assert np.all(coupling_profile(b).omega_c == 11.0 + 0j)


def test_fig3_profile_regression(fig3):
    prof = coupling_profile(fig3)
    ratio = abs(prof.omega_c[-1]) / abs(prof.omega_c[0])
    assert ratio > 0.8                    # far-detuned saturated absorption is weak
    assert ratio == pytest.approx(0.8925153225689889, rel=1e-9)


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


def test_grid_convergence(fig3):
    obs = observables_at(fig3)
    fine = replace(fig3, medium=replace(fig3.medium, n_z=2 * fig3.medium.n_z))
    obs2 = observables_at(fine)
    assert abs(obs.T_p - obs2.T_p) < 1e-6
    assert abs(obs.eta_s - obs2.eta_s) < 1e-6


def test_passivity_defect_property(fig3_small):
    tm = transfer_matrix(0.0, fig3_small)
    assert tm.passivity_defect == 0.0


def test_optical_depth_too_high_for_grid_raises(fig3):
    # RK4 on the default n_z 2000 overflows at OD 1e5; the error is the one signal
    b = replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"OD 100000 with medium.n_z = 2000"):
            observables_at(b)


def test_optical_depth_too_high_for_grid_is_silent_on_threads(fig3):
    # numpy's error state is per thread, so the pool threads need their own
    b = replace(fig3, medium=dfm.MediumConfig.derive(RATES, od=1e5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="OD 100000"):
            spectrum_sweep("fwm", b, start=-1.0, stop=1.0, step=0.01, threads=2)


# ---------------------------------------------------------------------------
# tiled kernel


def _reference_components(bundle, profile, delta_p, omega, step_range=None):
    """The transfer-matrix kernel as plain numpy expressions over the whole
    batch at once, one temporary array per operation.  The tiled kernel
    performs the same operations in the same order, so it must match this
    bit for bit."""
    r, dr = bundle.rates, bundle.drive
    i0, i1 = step_range or (0, profile.n_steps)
    wc = profile.omega_c[2 * i0:2 * i1 + 1][:, None]
    rho33, rho31 = _two_level_arrays(wc, dr.delta_c, r.gamma31, r.Gamma3_total)
    rho11, rho13 = 1.0 - rho33, np.conj(rho31)
    dp, om = np.asarray(delta_p, float)[None, :], np.asarray(omega, float)[None, :]

    delta = dp + dr.delta_d
    d1 = 1j * (dp + om) - r.gamma21
    d2 = 1j * (dp - dr.delta_c + om) - r.gamma23
    d3 = 1j * (delta + om) - r.gamma41
    d4 = 1j * (delta - dr.delta_c + om) - r.gamma43
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

    med = bundle.medium
    cp, cs = 0.5 * r.gamma21 * med.alpha_p, 0.5 * r.gamma43 * med.alpha_s
    cx = 0.5 * math.sqrt(r.gamma21 * med.alpha_p * r.gamma43 * med.alpha_s)
    M = (1j * cp * chi_pp, 1j * cx * chi_ps, 1j * cx * chi_sp, 1j * cs * chi_ss)
    if i1 == i0:
        ones, zeros = np.ones(dp.size, complex), np.zeros(dp.size, complex)
        return ones, zeros, zeros, ones

    def mat_mul(a, b):
        return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])

    def plus_eye(k, scale):
        return 1.0 + scale * k[0], scale * k[1], scale * k[2], 1.0 + scale * k[3]

    h = 1.0 / profile.n_steps
    A0, Am, A1 = ([m[sl] for m in M] for sl in (slice(0, -2, 2), slice(1, -1, 2), slice(2, None, 2)))
    k2 = mat_mul(Am, plus_eye(A0, 0.5 * h))
    k3 = mat_mul(Am, plus_eye(k2, 0.5 * h))
    k4 = mat_mul(A1, plus_eye(k3, h))
    R = [h / 6.0 * (a + 2 * b + 2 * c + d) for a, b, c, d in zip(A0, k2, k3, k4)]
    R[0], R[3] = 1.0 + R[0], 1.0 + R[3]
    while R[0].shape[0] > 1:
        m = R[0].shape[0] // 2
        prod = mat_mul([x[1:2 * m:2] for x in R], [x[0:2 * m:2] for x in R])
        R = [np.concatenate([p, x[2 * m:]]) for p, x in zip(prod, R)]
    return tuple(x[0] for x in R)


@pytest.mark.parametrize("n_z", [400, 2000, 8000])
def test_tiles_threads_and_step_ranges_match_reference_bitwise(monkeypatch, n_z):
    b = bundle_for(od=110.0, n_z=n_z)
    prof = coupling_profile(b)
    rng = np.random.default_rng(n_z)
    dp, om = rng.uniform(-10, 15, 67), rng.uniform(-40, 40, 67)   # 67 = 22*3 + 1 = 64 + 3
    want = _reference_components(b, prof, dp, om)
    grid = 2 * n_z + 1
    # 64 frequencies of n_z 8000 would take ~270 MB of workspace per thread
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


def test_lorentzian_rejects_non_uniform_grid():
    x = np.array([0.0, 0.1, 0.3, 0.4])
    with pytest.raises(ValueError, match="uniformly spaced"):
        dfm.lorentzian_convolve(x, np.ones(4), 1.0)


def test_sweep_threads_match_serial(fig3_small):
    serial = spectrum_sweep("fwm", fig3_small, start=-5, stop=5, step=0.05)
    threaded = spectrum_sweep("fwm", fig3_small, start=-5, stop=5, step=0.05, threads=4)
    assert np.array_equal(serial.eta_s, threaded.eta_s)


def test_drive_required(fig3_small):
    with pytest.raises(ConfigValidationError):
        observables_at(replace(fig3_small, drive=None))
