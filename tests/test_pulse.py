from dataclasses import replace

import numpy as np
import pytest

import diamondfwm as dfm
from diamondfwm import PulseGridError, observables_at, propagate_pulse, pulse
from diamondfwm.cli import main
from diamondfwm.propagation import _transfer_components, coupling_profile

FIG3_FIELDS = "fields: {omega_c: 11, omega_d: 9, delta_p: -1, delta_c: 5, delta_d: -4}\n"


def small(bundle, n_z=400):
    return replace(bundle, medium=replace(bundle.medium, n_z=n_z))


def every_frequency_pulse(bundle, delta_p):
    """The pulse's traces with the kernel at every sideband frequency, as
    propagate_pulse synthesized them before it sampled the kernel."""
    n, window = bundle.pulse.n_freq, bundle.pulse.synthesis_window
    t = window / n * np.arange(n)
    envelope = np.where((t >= window / 8) & (t < window / 8 + bundle.pulse.duration), 1.0, 0.0)
    spectrum = np.fft.ifft(envelope)
    omegas = 2.0 * np.pi * np.fft.fftfreq(n, d=window / n)
    a, _, c, _ = _transfer_components(bundle, coupling_profile(bundle), np.full(n, delta_p),
                                      omegas)
    return np.abs(np.fft.fft(spectrum * a)) ** 2, np.abs(np.fft.fft(spectrum * c)) ** 2


def test_empty_medium_reproduces_input():
    b = dfm.ConfigBundle(rates=dfm.RateTable(),
                         medium=dfm.MediumConfig.derive(dfm.RateTable(), alpha_p=0.0),
                         drive=dfm.preset("fig3").drive)
    r = propagate_pulse(b, duration=4.0, n_freq=1024)
    assert np.max(np.abs(r.output_probe - r.input_probe)) <= 1e-3
    assert np.max(r.output_signal) <= 1e-12
    # constant entries: a fit without support points passes the first round's tests
    assert r.kernel_frequencies == 2 * pulse._START - 1 and r.fit_err == 0.0


# media beside the presets: narrow two-photon features, and od1000.yaml from CI
MEDIA = {"narrow": "medium: {od: 75}\nrates: {gamma21: 1.0e-3}\n" + FIG3_FIELDS,
         "od1000": "medium: {od: 1000}\n" + FIG3_FIELDS}


@pytest.mark.parametrize("case, delta_p", [("fig3", -1.0), ("fig4", -4.0), ("narrow", -1.0),
                                           ("od1000", -1.0)])
def test_sampled_entries_match_kernel_at_every_frequency(case, delta_p):
    bundle = dfm.parse_config(MEDIA[case]) if case in MEDIA else dfm.preset(case)
    n, window = bundle.pulse.n_freq, bundle.pulse.synthesis_window
    z = np.fft.fftshift(2.0 * np.pi * np.fft.fftfreq(n, d=window / n))
    profile = coupling_profile(bundle)
    full = _transfer_components(bundle, profile, delta_p, z)[[0, 2]]
    sampled, kernel_frequencies, fit_err = pulse._sampled_entries(
        lambda omega: _transfer_components(bundle, profile, delta_p, omega)[[0, 2]], z)
    assert kernel_frequencies <= n // 4
    assert 0.0 < fit_err <= pulse._FIT_TOL
    # the midpoint tests bound the error only where they run: between them it
    # reached 1.2x the tolerance over the bench's fig3 detunings
    assert np.max(np.abs(sampled - full)) <= 2 * pulse._FIT_TOL * np.max(np.abs(full))
    ran = np.all(sampled == full, axis=0)   # the kernel's own values where it ran
    assert np.count_nonzero(ran) >= kernel_frequencies


@pytest.mark.parametrize("delta_p", [-1.1, -1.0, -0.9357543163234467, -0.9])
def test_fig3_pulse_runs_the_kernel_at_few_frequencies(fig3, delta_p):
    # failing gaps of up to 32 grid steps, filled by the kernel, took 2,770
    # of the 4,096 frequencies at the third detuning
    assert propagate_pulse(fig3, delta_p=delta_p).kernel_frequencies <= 400


@pytest.mark.parametrize("cause", ["support", "passivity"])
def test_fallback_equals_every_frequency_pulse_bitwise(fig3_small, monkeypatch, cause):
    if cause == "support":   # a fit that needs more support points than the cap
        monkeypatch.setattr(pulse, "_MAX_SUPPORT", 2)
    else:                    # interpolated entries that gain photons
        monkeypatch.setattr(pulse._Rational, "__call__",
                            lambda self, z: np.full((2, z.size), 1.0 + 0j))
    r = propagate_pulse(fig3_small, delta_p=-1.0, n_freq=2048)
    probe, signal = every_frequency_pulse(replace(fig3_small, pulse=replace(
        fig3_small.pulse, n_freq=2048)), -1.0)
    assert r.kernel_frequencies == r.n_freq and r.fit_err == 0.0
    assert np.array_equal(r.output_probe, probe) and np.array_equal(r.output_signal, signal)


def test_pulse_does_not_depend_on_threads(fig3_small):
    one = propagate_pulse(fig3_small, delta_p=-1.0, threads=1)
    two = propagate_pulse(fig3_small, delta_p=-1.0, threads=2)
    assert one.kernel_frequencies < one.n_freq
    assert (one.kernel_frequencies, one.fit_err) == (two.kernel_frequencies, two.fit_err)
    assert np.array_equal(one.output_probe, two.output_probe)
    assert np.array_equal(one.output_signal, two.output_signal)


def test_outputs_are_causal(fig3_small):
    r = propagate_pulse(fig3_small, duration=6.0, delta_p=-1.0, n_freq=2048)
    before = r.time < r.onset
    assert np.max(r.output_probe[before]) < 1e-3
    assert np.max(r.output_signal[before]) < 1e-3
    assert np.all(r.output_signal >= 0.0)


def test_plateau_matches_cw_for_long_pulse(fig3_small):
    r = propagate_pulse(fig3_small, duration=25.0, delta_p=-1.0)
    cw = observables_at(fig3_small, delta_p=-1.0)
    assert r.plateau("output_signal") == pytest.approx(cw.eta_s, rel=5e-3)
    assert r.plateau("output_probe") == pytest.approx(cw.T_p, rel=5e-3)


def test_fig3_pulse_plateau_reaches_steady_state(fig3):
    # the 200 ns square pulse settles onto the cw conversion level
    r = propagate_pulse(fig3, delta_p=-1.0)
    assert r.duration == pytest.approx(7.5398223686155, rel=1e-12)
    cw = observables_at(fig3, delta_p=-1.0)
    assert abs(r.plateau() - cw.eta_s) / cw.eta_s <= 0.01


def test_energy_passivity(fig3_small):
    r = propagate_pulse(fig3_small, duration=8.0, delta_p=-1.0, n_freq=2048)
    energy_in = np.sum(r.input_probe)
    energy_out = np.sum(r.output_probe + r.output_signal)
    assert energy_out <= energy_in * (1 + 1e-3)


def test_window_shorter_than_four_durations_is_aliasing_error(fig3_small):
    with pytest.raises(PulseGridError, match="pulse.window"):
        propagate_pulse(fig3_small, duration=10.0, window=30.0)


def test_frequency_span_must_cover_forty_gamma(fig3_small):
    with pytest.raises(PulseGridError, match="pulse.n_freq"):
        propagate_pulse(fig3_small, duration=10.0, n_freq=64)


def test_non_square_shape_rejected(tmp_path, capsys):
    # the pulse is always square, so pulse.shape is not a key, not even "square"
    cfg = tmp_path / "shape.yaml"
    cfg.write_text("medium: {od: 75}\n"
                   "fields: {omega_c: 11, omega_d: 9, delta_p: -1, delta_c: 5, delta_d: -4}\n"
                   "pulse: {shape: square}\n")
    assert main(["pulse", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "pulse.shape: unknown key" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_short_pulse_does_not_reach_steady_state(fig3_small):
    r = propagate_pulse(fig3_small, duration=0.1, n_freq=1024)
    cw = observables_at(fig3_small)
    assert abs(r.plateau() - cw.eta_s) / cw.eta_s > 0.01
