import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diamondfwm as dfm
from diamondfwm import (DriveConfig, NoUniqueSteadyStateError, NumericalError, RateTable,
                        SingularResponseError, linear_response,
                        liouvillian_steady_state, two_level_steady_state)
from diamondfwm.response import ZerothOrderState, _chi_arrays
from conftest import rk4_integrate_affine

RATES = RateTable()


def bloch_two_level_rhs(omega_c, delta_c, rates):
    """Time-domain optical Bloch equations of the driven |1>-|3> pair.

    State vector (rho33, rho31); rho11 = 1 - rho33, rho13 = conj(rho31).
    Independent oracle for the closed-form steady state.
    """
    def rhs(y):
        rho33, rho31 = y
        d33 = -rates.Gamma3_total * rho33 \
            + 0.5j * (omega_c * np.conj(rho31) - np.conj(omega_c) * rho31)
        d31 = (1j * delta_c - rates.gamma31) * rho31 \
            + 0.5j * omega_c * (1.0 - 2.0 * rho33)
        return np.array([d33, d31])
    return rhs


def test_undriven_atom_is_dark():
    z = two_level_steady_state(0.0, 3.0, RATES)
    assert z.rho33 == 0.0
    assert z.rho31 == 0.0
    assert z.rho11 == 1.0


def test_resonant_saturation_limit():
    z = two_level_steady_state(1e6, 0.0, RATES)
    assert z.rho33 == pytest.approx(0.5, abs=1e-9)


def test_square_overflow_gives_far_detuned_limit_or_keyed_error():
    far = two_level_steady_state(1.0, 1e200, RATES)
    assert far.rho33 == 0.0 and np.isfinite(far.rho31)
    with pytest.raises(NumericalError, match="omega_c = 1e\\+200 is too large"):
        two_level_steady_state(1e200, 1.0, RATES)


@pytest.mark.parametrize("omega_c, delta_c, rates", [
    # den underflows to 0: the closed form gives |rho31| ~ 1e213
    (9.6e-80, 0.0, RateTable(Gamma3_total=9.16e-293)),
    # gamma31 < Gamma3_total / 4: |rho31| ~ 1.05, a coherence no state has
    (11.0, 5.0, RateTable(gamma31=0.01)),
])
def test_state_beyond_physical_bounds_is_a_keyed_error(omega_c, delta_c, rates):
    with pytest.raises(NumericalError, match=r"fields\.omega_c = .*rates\.Gamma3_total = "
                       r".*rates\.gamma31 = .*leaves 0 <= rho33 <= 1/2, \|rho31\| <= 1/2"):
        two_level_steady_state(omega_c, delta_c, rates)


def test_steady_state_against_time_integration():
    # drive hard at the bright-MOT coupling point and integrate to t = 200/Gamma
    omega_c, delta_c = 11.0, 5.0
    y = rk4_integrate_affine(bloch_two_level_rhs(omega_c, delta_c, RATES),
                             [0.0, 0.0], t_end=200.0, dt=0.002)
    z = two_level_steady_state(omega_c, delta_c, RATES)
    assert abs(y[0].real - z.rho33) < 1e-8
    assert abs(y[1] - z.rho31) < 1e-8


@settings(max_examples=25, deadline=None)
@given(wc=st.floats(0.3, 25.0), dc=st.floats(-12.0, 12.0),
       extra=st.floats(0.0, 0.4))
def test_steady_state_time_integration_property(wc, dc, extra):
    rates = RateTable(gamma_extra=extra)
    y = rk4_integrate_affine(bloch_two_level_rhs(wc, dc, rates), [0.0, 0.0],
                             t_end=120.0, dt=0.005)
    z = two_level_steady_state(wc, dc, rates)
    assert abs(y[0].real - z.rho33) < 1e-7
    assert abs(y[1] - z.rho31) < 1e-7


@settings(max_examples=50, deadline=None)
@given(wc=st.floats(0.0, 40.0), dc=st.floats(-20.0, 20.0))
def test_steady_state_bounds(wc, dc):
    z = two_level_steady_state(wc, dc, RATES)
    assert 0.0 <= z.rho33 <= 0.5 + 1e-12
    assert abs(z.rho31) <= 0.5 + 1e-12
    assert z.rho13 == np.conj(z.rho31)


def _chi(drive, omega=0.0, rates=RATES, omega_c_local=None):
    wc = drive.omega_c if omega_c_local is None else omega_c_local
    zeroth = two_level_steady_state(wc, drive.delta_c, rates)
    return linear_response(omega, drive, wc, zeroth, rates)


def test_bare_probe_response():
    drive = DriveConfig(omega_c=0.0, omega_d=0.0, delta_p=2.3, delta_c=1.0, delta_d=0.5)
    chi = _chi(drive)
    want = 0.5j / (RATES.gamma21 - 1j * drive.delta_p)
    assert chi.chi_pp == pytest.approx(want, rel=1e-12)
    assert chi.chi_ps == 0 and chi.chi_sp == 0 and chi.chi_ss == 0


@settings(max_examples=25, deadline=None)
@given(wd=st.floats(0.5, 25.0), dp=st.floats(-12, 12), dd=st.floats(-12, 12),
       om=st.floats(-5, 5))
def test_ladder_eit_closed_form(wd, dp, dd, om):
    # coupling off: eliminating rho_41 from the 2x2 reduction gives
    # chi_pp = (i/2) / [(g21 - i(dp+w)) + (wd^2/4)/(g41 - i(delta+w))]
    drive = DriveConfig(omega_c=0.0, omega_d=wd, delta_p=dp, delta_c=3.0, delta_d=dd)
    chi = _chi(drive, omega=om)
    denom = (RATES.gamma21 - 1j * (dp + om)) \
        + (wd ** 2 / 4.0) / (RATES.gamma41 - 1j * (drive.delta + om))
    assert chi.chi_pp == pytest.approx(0.5j / denom, rel=1e-12)
    assert chi.chi_ss == 0  # no population in |3>, nothing for the signal to see


def test_v_type_blocks_decouple():
    drive = DriveConfig(omega_c=9.0, omega_d=0.0, delta_p=1.0, delta_c=5.0, delta_d=0.0)
    chi = _chi(drive)
    assert chi.chi_sp == 0 and chi.chi_ps == 0
    assert chi.chi_pp != 0 and chi.chi_ss != 0


def test_linearity_in_source_amplitude():
    # chi is the coefficient of a linear system: doubling the source
    # amplitude must double the coherences exactly
    drive = dfm.preset("fig3").drive
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, RATES)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, RATES)
    for eps in (1e-4, 2e-4):
        rho = liouvillian_steady_state(drive, drive.omega_c, RATES, omega_p=eps)
        ratio = rho[1, 0] / eps
        assert ratio == pytest.approx(chi.chi_pp, rel=5e-7)


def test_absorptive_probe_has_positive_im_chi():
    for dp in np.linspace(-10, 10, 21):
        drive = DriveConfig(omega_c=11.0, omega_d=9.0, delta_p=dp, delta_c=5.0,
                            delta_d=-4.0)
        assert _chi(drive).chi_pp.imag >= 0.0


@settings(max_examples=20, deadline=None)
@given(wc=st.floats(0.0, 25.0), wd=st.floats(0.0, 25.0), dp=st.floats(-12, 12),
       dc=st.floats(-12, 12), dd=st.floats(-12, 12), om=st.floats(-4, 4))
def test_conjugation_maps_chi_to_minus_conjugate(wc, wd, dp, dc, dd, om):
    # negating every detuning and the sideband maps chi -> -conj(chi)
    # (the propagation matrix i*chi then maps to its plain conjugate)
    d_pos = DriveConfig(omega_c=wc, omega_d=wd, delta_p=dp, delta_c=dc, delta_d=dd)
    d_neg = DriveConfig(omega_c=wc, omega_d=wd, delta_p=-dp, delta_c=-dc, delta_d=-dd)
    cp = _chi(d_pos, omega=om)
    cn = _chi(d_neg, omega=-om)
    for name in ("chi_pp", "chi_ps", "chi_sp", "chi_ss"):
        assert getattr(cn, name) == pytest.approx(-np.conj(getattr(cp, name)),
                                                  rel=1e-12, abs=1e-15)


def test_singular_system_raises():
    rates = RateTable(gamma21=0.0, gamma41=0.0)
    drive = DriveConfig(omega_c=0.0, omega_d=0.0, delta_p=0.0, delta_c=0.0, delta_d=0.0)
    zeroth = two_level_steady_state(0.0, 0.0, rates)
    with pytest.raises(SingularResponseError):
        linear_response(0.0, drive, 0.0, zeroth, rates)


# ---------------------------------------------------------------------------
# full-Liouvillian oracle


def test_oracle_dark_ground_state():
    drive = DriveConfig()
    rho = liouvillian_steady_state(drive, 0.0, RATES)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho, want, atol=1e-12)


def test_oracle_matches_two_level_solver():
    drive = DriveConfig(omega_c=11.0, omega_d=0.0, delta_p=0.0, delta_c=5.0, delta_d=0.0)
    rho = liouvillian_steady_state(drive, drive.omega_c, RATES)
    z = two_level_steady_state(11.0, 5.0, RATES)
    assert abs(rho[2, 2].real - z.rho33) < 1e-8
    assert abs(rho[2, 0] - z.rho31) < 1e-8
    assert abs(rho[1, 1]) < 1e-12 and abs(rho[3, 3]) < 1e-12


def test_oracle_matches_linear_response_at_fig4_point():
    drive = dfm.preset("fig4").drive
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, RATES)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, RATES)
    eps = 1e-3
    rho = liouvillian_steady_state(drive, drive.omega_c, RATES, omega_p=eps)
    assert abs(rho[1, 0] / eps - chi.chi_pp) / abs(chi.chi_pp) < 1e-6
    assert abs(rho[3, 2] / eps - chi.chi_sp) / abs(chi.chi_sp) < 1e-6


def test_oracle_matches_all_four_chis_at_fig3_point():
    # with both weak sources on, the coherences are the superpositions
    # rho_21 = chi_pp wp + chi_ps ws and rho_43 = chi_sp wp + chi_ss ws
    drive = dfm.preset("fig3").drive
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, RATES)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, RATES)
    eps = 1e-3
    rho = liouvillian_steady_state(drive, drive.omega_c, RATES,
                                   omega_p=eps, omega_s=eps)
    want_21 = (chi.chi_pp + chi.chi_ps) * eps
    want_43 = (chi.chi_sp + chi.chi_ss) * eps
    assert abs(rho[1, 0] - want_21) / abs(want_21) < 1e-6
    assert abs(rho[3, 2] - want_43) / abs(want_43) < 1e-6
    # and each coefficient individually from single-source runs
    rho_p = liouvillian_steady_state(drive, drive.omega_c, RATES, omega_p=eps)
    rho_s = liouvillian_steady_state(drive, drive.omega_c, RATES, omega_s=eps)
    for got, want in ((rho_p[1, 0] / eps, chi.chi_pp), (rho_p[3, 2] / eps, chi.chi_sp),
                      (rho_s[1, 0] / eps, chi.chi_ps), (rho_s[3, 2] / eps, chi.chi_ss)):
        assert abs(got - want) / abs(want) < 1e-6


@settings(max_examples=20, deadline=None)
@given(wc=st.floats(0.0, 28.0), wd=st.floats(0.0, 28.0), dp=st.floats(-14, 14),
       dc=st.floats(-14, 14), dd=st.floats(-14, 14),
       ep=st.floats(1e-4, 5e-3), es=st.floats(0.0, 5e-3))
def test_oracle_density_matrix_is_physical(wc, wd, dp, dc, dd, ep, es):
    drive = DriveConfig(omega_c=wc, omega_d=wd, delta_p=dp, delta_c=dc, delta_d=dd)
    rho = liouvillian_steady_state(drive, wc, RATES, omega_p=ep, omega_s=es)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-9


def test_oracle_degenerate_steady_state_detected():
    # no decay out of |4> and no fields touching it: population stuck there
    rates = RateTable(Gamma4_total=0.0, Gamma42=0.0, Gamma43=0.0)
    drive = DriveConfig(omega_c=3.0, omega_d=0.0, delta_p=0.0, delta_c=0.0, delta_d=0.0)
    with pytest.raises(NoUniqueSteadyStateError):
        liouvillian_steady_state(drive, 3.0, rates)


def test_oracle_perturbation_scaling_is_quadratic():
    # deviation from the linearization is the physical O(probe^2)
    # saturation term: halving the probe shrinks it fourfold
    drive = DriveConfig(omega_c=17.0, omega_d=21.0, delta_p=3.0, delta_c=-2.0,
                        delta_d=1.0)
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, RATES)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, RATES)
    devs = []
    for eps in (2e-3, 1e-3, 5e-4):
        rho = liouvillian_steady_state(drive, drive.omega_c, RATES, omega_p=eps)
        devs.append(abs(rho[1, 0] / eps - chi.chi_pp) / abs(chi.chi_pp))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.05)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("extra", [0.05, 0.5, 2.0])
def test_oracle_matches_linear_response_with_pure_dephasing(extra):
    # gamma_extra adds pure dephasing to every coherence of the master
    # equation and to every default coherence decay of the rate table
    rates = RateTable(gamma_extra=extra)
    drive = dfm.preset("fig3").drive
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, rates)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, rates)
    eps = 2.5e-4
    rho_p = liouvillian_steady_state(drive, drive.omega_c, rates, omega_p=eps)
    rho_s = liouvillian_steady_state(drive, drive.omega_c, rates, omega_s=eps)
    assert abs(rho_p[2, 2].real - zeroth.rho33) < 1e-8
    assert abs(rho_p[2, 0] - zeroth.rho31) < 1e-8
    for got, want in ((rho_p[1, 0] / eps, chi.chi_pp), (rho_p[3, 2] / eps, chi.chi_sp),
                      (rho_s[1, 0] / eps, chi.chi_ps), (rho_s[3, 2] / eps, chi.chi_ss)):
        assert abs(got - want) / abs(want) < 1e-6


@pytest.mark.parametrize("coherence", [
    pytest.param({"gamma21": 0.9}, id="gamma21-above"),
    pytest.param({"gamma23": 0.5}, id="gamma23-below"),
    pytest.param({"gamma31": 1.5}, id="gamma31-above"),
    pytest.param({"gamma31": 0.3}, id="gamma31-below"),
    pytest.param({"gamma41": 0.6}, id="gamma41-above"),
    pytest.param({"gamma43": 1.2}, id="gamma43-above"),
    pytest.param({"gamma43": 0.5, "gamma_extra": 0.2}, id="gamma43-below-with-extra")])
def test_oracle_takes_explicit_coherence_rates(coherence):
    # a coherence rate set above or below its half-sum default decays at
    # that rate in the master equation too
    rates = RateTable(**coherence)
    drive = dfm.preset("fig3").drive
    zeroth = two_level_steady_state(drive.omega_c, drive.delta_c, rates)
    chi = linear_response(0.0, drive, drive.omega_c, zeroth, rates)
    eps = 2.5e-4
    rho_p = liouvillian_steady_state(drive, drive.omega_c, rates, omega_p=eps)
    rho_s = liouvillian_steady_state(drive, drive.omega_c, rates, omega_s=eps)
    assert abs(rho_p[2, 0] - zeroth.rho31) < 1e-8
    for got, want in ((rho_p[1, 0] / eps, chi.chi_pp), (rho_p[3, 2] / eps, chi.chi_sp),
                      (rho_s[1, 0] / eps, chi.chi_ps), (rho_s[3, 2] / eps, chi.chi_ss)):
        assert abs(got - want) / abs(want) < 1e-6


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_linear_response_matches_the_kernel_chi(name):
    # one chi kernel serves a point and a batch; but
    # linear_response runs it on 0-d values, where numpy takes its scalar
    # path, and the kernel on arrays, where it takes its array loops, and the
    # two may differ in the last bit: agreement to round-off (6.1e-15 at
    # most here), not bit for bit
    b = dfm.preset(name)
    d, prof = b.drive, dfm.coupling_profile(b)
    omegas = np.array([-40.0, -3.0, 0.0, 2.5, 40.0])
    x = d.delta_p + omegas
    chi = _chi_arrays(prof.omega_c, prof.rho33, prof.rho31, x[:, None], d.delta_c, d.delta_d,
                      d.omega_d, b.rates, not d.omega_d)
    worst = 0.0
    for step in (0, prof.n_steps // 2, prof.n_steps - 1):
        for node in range(3):
            wc = complex(prof.omega_c[node, 0, step])
            zeroth = ZerothOrderState(float(prof.rho33[node, 0, step]),
                                      complex(prof.rho31[node, 0, step]))
            for k, om in enumerate(omegas):
                got = np.array(dataclasses.astuple(linear_response(om, d, wc, zeroth, b.rates)))
                want = chi[:, node, k, step]
                worst = max(worst, np.max(np.abs(got - want) / np.abs(want)))
    assert worst <= 1e-14
