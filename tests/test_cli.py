import json
from dataclasses import replace

import numpy as np
import pytest

from diamondfwm.cli import main
from diamondfwm.manifest import read_csv


def run(argv):
    return main([str(a) for a in argv])


def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig4" in out and "od200" in out
    assert "OD = 75" in out


def test_spectrum_fwm_fig3(tmp_path, capsys):
    rc = run(["spectrum", "--preset", "fig3", "--mode", "fwm",
              "--from", -10, "--to", 15, "--step", 0.1, "--out", tmp_path])
    assert rc == 0
    manifest, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    assert manifest["command"] == "spectrum"
    assert manifest["preset"] == "fig3"
    assert len(manifest["config_hash"]) == 64
    assert set(cols) == {"delta_p_over_gamma", "T_p", "eta_s", "T_s", "eta_p"}
    i = np.argmax(cols["eta_s"])
    assert abs(cols["eta_s"][i] - 0.66) <= 0.08
    assert abs(cols["delta_p_over_gamma"][i] - (-1.0)) <= 1.0


def test_spectrum_two_level_has_zero_eta(tmp_path):
    rc = run(["spectrum", "--preset", "fig3", "--mode", "two_level",
              "--from", -5, "--to", 5, "--step", 0.5, "--out", tmp_path])
    assert rc == 0
    _, cols = read_csv(tmp_path / "spectrum_two_level.csv")
    assert np.all(cols["eta_s"] == 0.0)


def test_spectrum_v_type_fig4_peak(tmp_path, capsys):
    rc = run(["spectrum", "--preset", "fig4", "--mode", "v_type",
              "--from", -10, "--to", 15, "--step", 0.1, "--out", tmp_path])
    assert rc == 0
    out = capsys.readouterr().out
    peak = float(out.split("T_p peak at delta_p =")[1].split()[0])
    assert abs(peak - 8.0) <= 1.0


def test_spectrum_linewidth_and_si_columns(tmp_path):
    rc = run(["spectrum", "--preset", "fig3", "--mode", "fwm", "--from", -3,
              "--to", 3, "--step", 0.5, "--linewidth", "--si", "--out", tmp_path])
    assert rc == 0
    _, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    assert "T_p_conv" in cols and "eta_s_conv" in cols
    assert np.allclose(cols["delta_p_mhz"], cols["delta_p_over_gamma"] * 6.0)


def test_csv_roundtrip_precision(tmp_path):
    run(["spectrum", "--preset", "fig3", "--mode", "fwm", "--from", 0,
         "--to", 1, "--step", 0.25, "--out", tmp_path])
    import diamondfwm as dfm
    _, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    table = dfm.spectrum_sweep("fwm", dfm.preset("fig3"), start=0, stop=1, step=0.25)
    assert np.array_equal(cols["eta_s"], table.eta_s)   # 17 digits round-trip


def test_pulse_fig3(tmp_path, capsys):
    rc = run(["pulse", "--preset", "fig3", "--delta-p", -1, "--out", tmp_path,
              "--n-freq", 2048])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged" in out
    _, cols = read_csv(tmp_path / "pulse.csv")
    assert set(cols) == {"time_over_gamma_inv", "input_probe", "output_probe",
                         "output_signal"}
    plateau = float(out.split("signal plateau =")[1].split(",")[0])
    assert abs(plateau - 0.66) <= 0.09


def test_pulse_fig4_plateau(tmp_path, capsys):
    rc = run(["pulse", "--preset", "fig4", "--delta-p", -4, "--out", tmp_path,
              "--n-freq", 2048])
    assert rc == 0
    out = capsys.readouterr().out
    plateau = float(out.split("signal plateau =")[1].split(",")[0])
    assert abs(plateau - 0.80) <= 0.09


def test_optimize_od110_reaches_reported_efficiency(tmp_path):
    rc = run(["optimize", "--od", 110, "--seed", 7, "--starts", 6,
              "--out", tmp_path])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_result.json").read_text())
    assert doc["eta_s"] >= 0.80 - 0.08


def test_pulse_short_duration_flags_not_converged(tmp_path, capsys):
    rc = run(["pulse", "--preset", "fig3", "--delta-p", -1, "--duration", 0.1,
              "--n-freq", 1024, "--out", tmp_path])
    assert rc == 0
    assert "not converged" in capsys.readouterr().out


def test_optimize_od75_reaches_reported_efficiency(tmp_path):
    rc = run(["optimize", "--od", 75, "--seed", 7, "--starts", 4, "--out", tmp_path])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_result.json").read_text())
    assert doc["eta_s"] >= 0.66 - 0.08
    assert doc["manifest"]["seed"] == 7
    assert len(doc["traces"]) == 4


def test_optimize_zero_od(tmp_path, capsys):
    rc = run(["optimize", "--od", 0, "--starts", 2, "--max-evals", 30,
              "--out", tmp_path])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize_result.json").read_text())
    assert doc["eta_s"] == 0.0
    assert doc["manifest"]["command"] == "optimize"
    assert "best eta_s = 0.0000" in capsys.readouterr().out


def test_validate_default_passes(tmp_path, capsys):
    rc = run(["validate", "--out", tmp_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] passivity" in out
    assert "all 7 checks passed" in out
    doc = json.loads((tmp_path / "validate_report.json").read_text())
    assert all(c["passed"] for c in doc["checks"])


def test_validate_fig4_passes(tmp_path, capsys):
    rc = run(["validate", "--preset", "fig4", "--out", tmp_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "500 (delta_p, omega) points" in out
    assert "all 7 checks passed" in out


def test_validate_singular_rates_exit_numerical(tmp_path):
    cfg = tmp_path / "singular.yaml"
    cfg.write_text("medium:\n  alpha_p: 10\n"
                   "rates:\n  gamma21: 0.0\n  gamma41: 0.0\n"
                   "fields:\n  omega_c: 0\n  omega_d: 0\n  delta_p: 0\n"
                   "  delta_c: 0\n  delta_d: 0\n")
    rc = run(["validate", "--config", cfg, "--out", tmp_path])
    assert rc == 4


def test_config_file_parse_error_exit_2(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("rates: [oops\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 2
    assert run(["spectrum", "--config", tmp_path / "missing.yaml",
                "--out", tmp_path]) == 2


def test_config_validation_error_exit_3(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("medium:\n  alpha_p: -5\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 3


def test_spectrum_od200_without_drive_exit_3(tmp_path):
    assert run(["spectrum", "--preset", "od200", "--out", tmp_path]) == 3


def test_missing_config_and_preset_exit_3(tmp_path):
    assert run(["spectrum", "--out", tmp_path]) == 3


def test_config_file_workflow(tmp_path):
    import diamondfwm as dfm
    cfg = tmp_path / "run.yaml"
    cfg.write_text(dfm.dump_config(dfm.preset("fig3")))
    rc = run(["spectrum", "--config", cfg, "--mode", "cascade", "--from", -2,
              "--to", 4, "--step", 0.5, "--out", tmp_path])
    assert rc == 0
    manifest, _ = read_csv(tmp_path / "spectrum_cascade.csv")
    assert manifest["config_hash"] == dfm.bundle_hash(dfm.preset("fig3"))


def test_spectrum_config_mode_used_unless_overridden(tmp_path):
    import diamondfwm as dfm
    b = dfm.preset("fig3")
    cfg = tmp_path / "two_level.yaml"
    cfg.write_text(dfm.dump_config(replace(b, sweep=replace(b.sweep, mode="two_level"))))
    rc = run(["spectrum", "--config", cfg, "--from", -2, "--to", 2, "--step", 0.5,
              "--out", tmp_path])
    assert rc == 0
    manifest, cols = read_csv(tmp_path / "spectrum_two_level.csv")
    assert manifest["arg_mode"] == "two_level"
    assert np.all(cols["eta_s"] == 0.0)
    assert not (tmp_path / "spectrum_fwm.csv").exists()
    rc = run(["spectrum", "--config", cfg, "--mode", "fwm", "--from", -2, "--to", 2,
              "--step", 0.5, "--out", tmp_path])
    assert rc == 0
    assert (tmp_path / "spectrum_fwm.csv").exists()


def test_non_finite_config_exit_3(tmp_path, capsys):
    cfg = tmp_path / "inf.yaml"
    cfg.write_text("medium:\n  od: 75\nfields:\n  omega_c: 11\n  delta_c: .inf\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 3
    assert "fields.delta_c" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_optimize_section_in_config_exit_3(tmp_path, capsys):
    cfg = tmp_path / "optimize.yaml"
    cfg.write_text("medium:\n  od: 75\noptimize:\n  starts: 4\n")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path]) == 3
    assert "optimize: unknown section" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, key", [
    (["spectrum", "--linewidth", "inf"], "sweep.linewidth"),
    (["spectrum", "--to", "inf"], "sweep.from"),
    (["spectrum", "--step", "nan"], "sweep.step"),
    (["pulse", "--delta-p", "nan"], "fields.delta_p"),
    (["pulse", "--duration", "inf"], "pulse.duration"),
])
def test_non_finite_flags_exit_3(tmp_path, capsys, argv, key):
    assert run(argv + ["--preset", "fig3", "--out", tmp_path]) == 3
    assert key in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_exit_3(tmp_path, capsys, threads):
    assert run(["spectrum", "--preset", "fig3", "--threads", threads,
                "--out", tmp_path]) == 3
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("max_evals", [0, -1])
def test_max_evals_below_one_exit_3(tmp_path, capsys, max_evals):
    assert run(["optimize", "--od", 50, "--starts", 1, "--max-evals", max_evals,
                "--out", tmp_path]) == 3
    assert "optimize.max_evals" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


def test_spectrum_od_too_high_for_grid_exit_4(tmp_path, capsys):
    cfg = tmp_path / "dense.yaml"
    cfg.write_text("medium:\n  od: 100000.0\nfields:\n  omega_c: 11\n  omega_d: 6\n"
                   "  delta_c: 5\n  delta_d: -4\n")
    assert run(["spectrum", "--config", cfg, "--from", -1, "--to", 1, "--step", 0.5,
                "--out", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "OD 100000" in err and "medium.n_z = 2000" in err
    assert not list(tmp_path.glob("*.csv"))


def test_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert run(["spectrum", "--preset", "fig3", "--from", 0, "--to", 1,
                "--out", blocker / "sub"]) == 2
    assert "error (io)" in capsys.readouterr().err
