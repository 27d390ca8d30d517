from dataclasses import replace

import numpy as np
import pytest

import diamondfwm as dfm
from diamondfwm import PulseGridError, observables_at, propagate_pulse
from diamondfwm.cli import main


def small(bundle, n_z=400):
    return replace(bundle, medium=replace(bundle.medium, n_z=n_z))


def test_empty_medium_reproduces_input():
    b = dfm.ConfigBundle(rates=dfm.RateTable(),
                         medium=dfm.MediumConfig.derive(dfm.RateTable(), alpha_p=0.0),
                         drive=dfm.preset("fig3").drive)
    r = propagate_pulse(b, duration=4.0, n_freq=1024)
    assert np.max(np.abs(r.output_probe - r.input_probe)) <= 1e-3
    assert np.max(r.output_signal) <= 1e-12


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
