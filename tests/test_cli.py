import ast
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diamondfwm
from diamondfwm import cli
from diamondfwm.cli import build_parser, main
from diamondfwm.manifest import read_csv, write_csv
from diamondfwm.propagation import PASSIVITY_TOL


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


def test_csv_rows_are_the_per_element_format_and_round_trip(tmp_path):
    # each value as f"{x:.17g}" of its numpy scalar, so the bytes stay those
    # of a per-element writer, and every float reads back exactly
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 0.1, 1.0 / 3.0])
    columns = {"a": edge, "b": edge[::-1].copy(), "c": np.arange(edge.size, dtype=float)}
    manifest = {"command": "test"}
    path = write_csv(tmp_path / "edge.csv", columns, manifest)
    want = [f"# manifest: {json.dumps(manifest, sort_keys=True)}", "a,b,c"]
    want += [",".join(f"{v[i]:.17g}" for v in columns.values()) for i in range(edge.size)]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()
    got_manifest, got = read_csv(path)
    assert got_manifest == manifest
    for name, v in columns.items():
        assert got[name].tobytes() == v.tobytes(), name   # -0.0 keeps its sign


def test_spectrum_v_type_fig4_peak(tmp_path, capsys):
    rc = run(["spectrum", "--preset", "fig4", "--mode", "v_type",
              "--from", -10, "--to", 15, "--step", 0.1, "--out", tmp_path])
    assert rc == 0
    out = capsys.readouterr().out
    peak = float(out.split("T_p peak at delta_p =")[1].split()[0])
    assert abs(peak - 8.0) <= 1.0


def test_spectrum_linewidth_and_si_columns(tmp_path):
    import diamondfwm as dfm
    rc = run(["spectrum", "--preset", "fig3", "--mode", "fwm", "--from", -3,
              "--to", 3, "--step", 0.5, "--linewidth", "--si", "--out", tmp_path])
    assert rc == 0
    manifest, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    assert "T_p_conv" in cols and "eta_s_conv" in cols
    assert manifest["arg_linewidth"] == dfm.config.DEFAULT_LINEWIDTH
    assert np.allclose(cols["delta_p_mhz"], cols["delta_p_over_gamma"] * 6.0)
    # a linewidth set in the config, not on the command line
    b = dfm.preset("fig3")
    cfg = tmp_path / "linewidth.yaml"
    cfg.write_text(dfm.dump_config(replace(b, sweep=replace(b.sweep, linewidth=0.8))))
    rc = run(["spectrum", "--config", cfg, "--mode", "fwm", "--from", -3, "--to", 3,
              "--step", 0.5, "--out", tmp_path])
    assert rc == 0
    manifest, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    assert "T_p_conv" in cols and "eta_s_conv" in cols
    assert manifest["arg_linewidth"] == 0.8


def test_single_row_linewidth_columns_are_the_raw_ones(tmp_path):
    assert run(["spectrum", "--preset", "fig3", "--from", 0, "--to", 0, "--linewidth",
                "--out", tmp_path]) == 0
    _, cols = read_csv(tmp_path / "spectrum_fwm.csv")
    assert cols["delta_p_over_gamma"].tolist() == [0.0]
    assert cols["T_p_conv"].tolist() == cols["T_p"].tolist()
    assert cols["eta_s_conv"].tolist() == cols["eta_s"].tolist()


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
    manifest, cols = read_csv(tmp_path / "pulse.csv")
    assert set(cols) == {"time_over_gamma_inv", "input_probe", "output_probe",
                         "output_signal"}
    plateau = float(out.split("signal plateau =")[1].split(",")[0])
    assert abs(plateau - 0.66) <= 0.09
    assert manifest["converged"] is True and "-> converged" in out
    assert 0.0 <= manifest["relative_gap"] <= 0.01
    assert f"(relative gap {manifest['relative_gap']:.2%})" in out
    assert manifest["arg_delta_p"] == -1.0
    assert 0 < manifest["kernel_frequencies"] < 2048 and 0.0 < manifest["fit_err"] <= 1e-13
    assert f"kernel at {manifest['kernel_frequencies']}," in out


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
    manifest, _ = read_csv(tmp_path / "pulse.csv")
    assert manifest["converged"] is False and manifest["relative_gap"] > 0.01


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
    (["spectrum", "--preset", "fig3", "--linewidth", "inf"], "sweep.linewidth"),
    (["spectrum", "--preset", "fig3", "--to", "inf"], "sweep.to"),
    (["spectrum", "--preset", "fig3", "--step", "nan"], "sweep.step"),
    (["pulse", "--preset", "fig3", "--delta-p", "nan"], "fields.delta_p"),
    (["pulse", "--preset", "fig3", "--duration", "inf"], "pulse.duration"),
    (["optimize", "--od", "nan"], "optimize.od"),
    (["optimize", "--od", "50", "--seed", "-1"], "optimize.seed"),
])
def test_non_finite_flags_exit_3(tmp_path, capsys, argv, key):
    assert run(argv + ["--out", tmp_path]) == 3
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


FIG3_FIELDS = "fields: {omega_c: 11, omega_d: 9, delta_p: -1, delta_c: 5, delta_d: -4}\n"


@pytest.mark.parametrize("section, key", [
    ("sweep: {from: 5, to: 4}", "sweep.from"),
    ("pulse: {duration: 10, window: 30}", "pulse.window"),
    ("pulse: {n_freq: 16}", "pulse.n_freq"),
    # the last third of the pulse, which the plateau averages, holds no sample
    ("pulse: {duration: 0.1, n_freq: 16}", "pulse.n_freq"),
])
@pytest.mark.parametrize("argv", [["spectrum", "--from", "-1", "--to", "1"], ["pulse"],
                                  ["validate"]], ids=lambda argv: argv[0])
def test_each_section_is_checked_whole_for_every_command(tmp_path, capsys, section, key, argv):
    # a command that does not read a section, or overrides its keys by
    # flags, still rejects it
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("medium: {od: 75}\n" + FIG3_FIELDS + section + "\n")
    assert run(argv + ["--config", cfg, "--out", tmp_path]) == 3
    assert f"{key}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("argv, n_z, key", [
    (["spectrum", "--preset", "fig3", "--step", "1e-15"], None, "sweep.step"),
    (["spectrum", "--preset", "fig3", "--step", "1e-300"], None, "sweep.step"),
    (["pulse", "--preset", "fig3", "--n-freq", str(10 ** 20)], None, "pulse.n_freq"),
    (["pulse", "--preset", "fig3", "--n-freq", str(10 ** 12)], None, "pulse.n_freq"),
    (["spectrum"], "1.0e+20", "medium.n_z"),
    (["spectrum"], "1.0e+12", "medium.n_z"),
    # the sidebands would reach about 1e155 Gamma
    (["pulse", "--preset", "fig3", "--duration", "1e-154", "--n-freq", "16"], None,
     "pulse.window"),
    (["pulse", "--preset", "fig3", "--duration", "0.1", "--n-freq", "16"], None, "pulse.n_freq"),
    (["optimize", "--od", "75", "--starts", str(10 ** 20), "--max-evals", "10"], None,
     "optimize.starts"),
    (["optimize", "--od", "75", "--starts", str(10 ** 11), "--max-evals", "10"], None,
     "optimize.starts"),
    (["optimize", "--od", "75", "--starts", "1", "--max-evals", str(10 ** 20)], None,
     "optimize.max_evals"),
])
def test_counts_beyond_domain_exit_3_before_allocating(tmp_path, capsys, argv, n_z, key):
    if n_z is not None:
        cfg = tmp_path / "n_z.yaml"
        cfg.write_text(f"medium: {{od: 75, n_z: {n_z}}}\n" + FIG3_FIELDS)
        argv = argv + ["--config", cfg]
    tracemalloc.start()
    try:
        rc = run(argv + ["--out", tmp_path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert f"{key}: " in capsys.readouterr().err
    assert peak < 2 ** 22   # bytes: nothing the size of a grid


# what each command's grid shrinks with
_GRID_KEYS = {"spectrum_sweep": {"medium.n_z", "sweep.step"},
              "propagate_pulse": {"medium.n_z", "pulse.n_freq"},
              "optimize_eta": {"--starts"}}


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--preset", "fig3"], "spectrum_sweep"),
    (["pulse", "--preset", "fig3"], "propagate_pulse"),
    (["optimize", "--od", "75"], "optimize_eta"),
])
def test_grid_beyond_memory_exit_4(tmp_path, capsys, monkeypatch, argv, name):
    # a grid in the domain that does not fit in memory: no real allocation is
    # tried; the message names what this command can lower, and nothing else
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, name, no_memory)
    assert run(argv + ["--out", tmp_path]) == 4
    err = capsys.readouterr().err
    others = set().union(*_GRID_KEYS.values()) - _GRID_KEYS[name]
    assert all(key in err for key in _GRID_KEYS[name]) and not any(key in err for key in others)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("threads", [0, -2])
def test_threads_below_one_exit_3(tmp_path, capsys, threads):
    assert run(["spectrum", "--preset", "fig3", "--threads", threads,
                "--out", tmp_path]) == 3
    assert "--threads" in capsys.readouterr().err


def test_optimize_threads_other_than_one_exit_3(tmp_path, capsys):
    assert run(["optimize", "--od", 50, "--starts", 1, "--threads", 2,
                "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert "--threads" in err and "lockstep round" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["optimize", "--od", "50", "--si"],
    ["validate", "--threads", "2"],
    ["validate", "--si"],
])
def test_unread_flags_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path])
    assert exc.value.code == 2
    assert not list(tmp_path.iterdir())


def test_optimize_best_yaml_feeds_spectrum(tmp_path):
    import yaml
    from diamondfwm import load_config
    assert run(["optimize", "--od", 50, "--starts", 1, "--max-evals", 30,
                "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "optimize_result.json").read_text())
    best = tmp_path / "optimize_best.yaml"
    assert yaml.safe_load(best.read_text())["fields"] == doc["best"]
    assert load_config(best).medium.od == 50.0
    assert run(["spectrum", "--config", best, "--from", -2, "--to", 2, "--step", 0.5,
                "--out", tmp_path]) == 0
    manifest, _ = read_csv(tmp_path / "spectrum_fwm.csv")
    assert manifest["config_hash"] == doc["manifest"]["config_hash"]


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    in_block, lines = False, []
    for ln in readme.read_text(encoding="utf-8").splitlines():
        if ln.startswith("```"):
            in_block = not in_block
        elif in_block and ln.startswith("diamondfwm "):
            lines.append(ln.split("#")[0])
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_cli_import_leaves_out_scipy_optimize_and_stats():
    # scipy.optimize and scipy.stats took most of a fresh interpreter's
    # set-up time; scipy.fft duplicated numpy.fft
    src = str(Path(diamondfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, diamondfwm.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', "
            "'scipy.stats', 'scipy.fft'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_out_concurrent_futures():
    # the kernel starts no thread; concurrent.futures and the logging it
    # imports took 5.6 ms of a fresh interpreter's set-up
    src = str(Path(diamondfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = "import sys, diamondfwm.cli\nprint('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_cli_and_first_observables_load_no_scipy():
    # scipy is a test dependency only; the real Wright omega is in-package
    src = str(Path(diamondfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import sys, diamondfwm.cli\n"
            "from diamondfwm import observables_at, preset\n"
            "observables_at(preset('fig3'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):   # no C library handle
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="the C library has no mallopt")
def test_cli_keeps_freed_pages_between_runs(tmp_path):
    # the CLI has glibc keep the kernel's freed temporaries: a second fig3
    # spectrum in one process maps no page afresh, where without the setting
    # it takes about 16,000 minor page faults
    src = str(Path(diamondfwm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import resource, sys\n"
            "from diamondfwm.cli import main\n"
            "argv = ['spectrum', '--preset', 'fig3', '--step', '0.05', '--out', sys.argv[1]]\n"
            "main(argv)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "main(argv)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert int(out.stdout.split()[-1]) < 1000


def test_spectrum_manifest_records_environment(tmp_path):
    assert run(["spectrum", "--preset", "fig3", "--from", 0, "--to", 1, "--out", tmp_path]) == 0
    manifest, _ = read_csv(tmp_path / "spectrum_fwm.csv")
    assert manifest["env"] == {"python": platform.python_version(), "numpy": np.__version__,
                               "nproc": os.cpu_count()}


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
    assert "OD 100000" in err and "medium.n_z = 256" in err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_photon_gain_exit_4(tmp_path, capsys):
    # finite but not passive: OD 1e4 on the default 256 steps near delta_p = -2.8
    cfg = tmp_path / "dense.yaml"
    cfg.write_text("medium:\n  od: 10000.0\nfields:\n  omega_c: 11\n  omega_d: 9\n"
                   "  delta_c: 5\n  delta_d: -4\n")
    assert run(["spectrum", "--config", cfg, "--from", -3, "--to", -2.6, "--step", 0.2,
                "--out", tmp_path]) == 4
    err = capsys.readouterr().err
    assert "not passive" in err and "OD 10000 with medium.n_z = 256" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("key, value, rates", [
    pytest.param("omega_c", 1e200, "", id="omega_c"),
    pytest.param("delta_c", 1e200, "", id="delta_c"),
    # delta_c^2 is finite, but Gamma3 (gamma31^2 + delta_c^2) is not
    pytest.param("delta_c", 1e154, "rates:\n  Gamma3_total: 2.0\n", id="delta_c-Gamma3"),
])
def test_spectrum_field_beyond_domain_exit_3(tmp_path, capsys, key, value, rates):
    # finite, but beyond config.MAX_MAGNITUDE (and its square beyond the
    # float range): rejected where the document is read
    fields = {"omega_c": 11, "omega_d": 6, "delta_c": 5, "delta_d": -4, key: f"{value:.1e}"}
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("medium:\n  od: 75.0\n" + rates + "fields:\n"
                   + "".join(f"  {k}: {v}\n" for k, v in fields.items()))
    assert run(["spectrum", "--config", cfg, "--from", -1, "--to", 1, "--step", 0.5,
                "--out", tmp_path]) == 3
    err = capsys.readouterr().err
    assert f"fields.{key}: must be a number within [" in err and f"1e+08], got {value}\n" in err
    assert not list(tmp_path.glob("*.csv"))


def _spectrum_doc(tmp_path, sections):
    """A config file of the given {section: {key: value}} document."""
    cfg = tmp_path / "config.yaml"
    cfg.write_text("".join(f"{section}:\n" + "".join(f"  {k}: {v}\n" for k, v in keys.items())
                           for section, keys in sections.items()))
    return cfg


def _assert_finite_and_passive(cols):
    assert all(np.isfinite(v).all() for v in cols.values())
    for gain in (cols["T_p"] + cols["eta_s"], cols["T_s"] + cols["eta_p"]):
        assert gain.max() <= 1.0 + PASSIVITY_TOL


def _spectrum_strict(cfg, tmp_path):
    """Exit code of a 3-row spectrum run with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(["spectrum", "--config", cfg, "--from", -1, "--to", 1, "--step", 1,
                    "--out", tmp_path])


@pytest.mark.parametrize("rates, fields, want", [
    # gamma31 = 0.5 + gamma_extra, whose square is beyond the float range
    pytest.param({"gamma_extra": "4.5e+275"}, {}, "rates.gamma_extra", id="gamma31"),
    # |omega_c|^2 is finite, but gamma31 |omega_c|^2 / den0 is not
    pytest.param({"Gamma3_total": 0.1}, {"omega_c": "1.3e+154", "delta_c": 0},
                 "fields.omega_c", id="saturation"),
])
def test_spectrum_product_operand_beyond_domain_exit_3(tmp_path, capsys, rates, fields, want):
    fields = {"omega_c": 11, "omega_d": 6, "delta_c": 5, "delta_d": -4, **fields}
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 75.0}, "rates": rates, "fields": fields})
    assert _spectrum_strict(cfg, tmp_path) == 3
    assert f"{want}: must be a number within [" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("doc", [
    # Re num, with num = -(gamma31 alpha_c / 4) Gamma3 (gamma31 + i delta_c),
    # underflows to 0
    pytest.param({"medium": {"od": 0.005},
                  "rates": {"Gamma3_total": "1.0e-160", "gamma_extra": 0.05},
                  "fields": {"omega_c": 0.1, "omega_d": "1.0e-22", "delta_c": -1.4}},
                 id="re-num-underflows"),
    # den0 = Gamma3 (gamma31^2 + delta_c^2) is subnormal, so the saturation
    # overflows, but the saturated beam loses 2 |Re num| / gamma31 ~ 1e-269 of
    # its |omega_c|^2 = 1e12
    pytest.param({"medium": {"od": "1.0e+5"},
                  "rates": {"Gamma2_total": "1.0e-280", "gamma21": "1.0e+6",
                            "Gamma3_total": "1.0e-280", "gamma31": "1.0e-20"},
                  "fields": {"omega_c": "1.0e+6", "delta_c": 0}},
                 id="saturated"),
])
def test_spectrum_absorption_below_rounding_is_unabsorbed(tmp_path, doc):
    # |num| / (den0 + gamma31 |omega_c|^2) is below rounding: the coupling
    # beam keeps its input value
    assert _spectrum_strict(_spectrum_doc(tmp_path, doc), tmp_path) == 0
    _assert_finite_and_passive(read_csv(tmp_path / "spectrum_fwm.csv")[1])


def test_spectrum_zero_od_checks_rates_exit_3(tmp_path, capsys):
    # Gamma3_total = 0 makes gamma31 = 0, whose rho31 = 0/0 at any OD
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 0}, "rates": {"Gamma3_total": 0},
                                   "fields": {"omega_c": 1, "omega_d": 1, "delta_c": 0}})
    assert _spectrum_strict(cfg, tmp_path) == 3
    assert "rates.gamma31: must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("rates, want", [
    # Gamma31 / gamma31 is beyond the float range: alpha_c = inf
    pytest.param({"gamma31": "1.0e-310"}, "rates.gamma31", id="gamma31"),
    # gamma21 / Gamma21 is: both absorptions are infinite
    pytest.param({"Gamma2_total": "1.0e-320", "gamma21": 1}, "rates.Gamma21", id="Gamma21"),
])
def test_spectrum_absorption_beyond_float_range_exit_3(tmp_path, capsys, rates, want):
    # the absorptions are computed, not document keys: the error names a rate
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 75}, "rates": rates,
                                   "fields": {"omega_c": 11, "omega_d": 6, "delta_c": 5}})
    assert _spectrum_strict(cfg, tmp_path) == 3
    err = capsys.readouterr().err
    assert f"{want}: alpha_c leaves the float range" in err
    assert "medium." not in err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_wavelength_ratio_beyond_float_range_exit_3(tmp_path, capsys):
    # lambda_s / lambda_p = 1e308 conserves energy, but its square overflows
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 75, "lambda_p": "1.0e-300",
                                              "lambda_c": "1.0e-300", "lambda_d": "1.0e+8",
                                              "lambda_s": "1.0e+8"}})
    assert _spectrum_strict(cfg, tmp_path) == 3
    err = capsys.readouterr().err
    assert "medium.lambda_s: alpha_s leaves the float range" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_saturation_beyond_float_range_exit_4(tmp_path, capsys):
    # den0 = Gamma3 (gamma31^2 + delta_c^2) underflows to 0, so the
    # saturation gamma31 |omega_c|^2 / den0 overflows, while the saturated
    # beam still loses about 30% of its |omega_c|^2
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 75}, "rates": {"gamma31": "1.0e-170"},
                                   "fields": {"omega_c": 11, "omega_d": 6, "delta_c": 0}})
    assert _spectrum_strict(cfg, tmp_path) == 4
    err = capsys.readouterr().err
    assert ("saturation is too large for the float range at fields.omega_c = 11, "
            "fields.delta_c = 0, rates.Gamma3_total = 1 and rates.gamma31 = 1e-170") in err
    assert "n_z" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_spectrum_two_level_state_beyond_bounds_exit_4(tmp_path, capsys):
    # gamma31 = Gamma3_total / 2, so den = Gamma3 gamma31^2 + gamma31 |omega_c|^2
    # underflows to 0 and the closed form gives rho31 = (i/2) omega_c / gamma31
    # ~ 1e213 i, where the exact state has rho33 ~ 1/2 and |rho31| ~ 5e-214:
    # no n_z helps
    cfg = _spectrum_doc(tmp_path, {"medium": {"od": 134.6},
                                   "rates": {"Gamma3_total": "9.16e-293"},
                                   "fields": {"omega_c": "9.6e-80", "delta_d": "-7.3e+5"}})
    assert _spectrum_strict(cfg, tmp_path) == 4
    err = capsys.readouterr().err
    for key in ("rates.Gamma3_total", "rates.gamma31", "fields.omega_c"):
        assert key in err
    assert "raise medium.n_z" not in err
    assert not list(tmp_path.glob("*.csv"))


# the input domain of each drawn key: config.MAX_MAGNITUDE, and half of it
# for medium.od (alpha_p = 2 od)
DOMAIN = {("medium", "od"): 5e7,
          **{("rates", key): 1e8 for key in (
              "Gamma2_total", "Gamma3_total", "Gamma4_total", "Gamma21", "Gamma31", "Gamma42",
              "Gamma43", "gamma_extra", "gamma21", "gamma23", "gamma31", "gamma41", "gamma43")},
          **{("fields", key): 1e8 for key in (
              "omega_c", "omega_d", "delta_p", "delta_c", "delta_d")}}
FIG3_DOC = {"medium": {"od": 75},
            "fields": {"omega_c": 11, "omega_d": 9, "delta_p": -1, "delta_c": 5, "delta_d": -4}}
KEYED = re.compile(r"\b(rates|medium|fields|sweep|pulse)\.\w+")


def _powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0 ** e)


@st.composite
def spectrum_documents(draw):
    """(document, key) pairs.  Either a document whose keys are each absent
    (but medium.od and fields.omega_c), 0, 10^U(-3, top) or 10^U(-320, top)
    for the key's bound 10^top, with detunings signed, and key None; or the
    fig3 document with one key set beyond its bound, and that key."""
    if draw(st.integers(0, 3)) == 0:
        (section, key), bound = draw(st.sampled_from(sorted(DOMAIN.items())))
        value = bound * draw(_powers_of_ten(1e-3, 300.0))
        doc = {name: dict(keys) for name, keys in FIG3_DOC.items()}
        doc.setdefault(section, {})[key] = -value if key.startswith("delta") else value
        return doc, f"{section}.{key}"
    doc = {"medium": {}, "rates": {}, "fields": {}}
    for (section, key), bound in DOMAIN.items():
        top = math.log10(bound)
        value = draw(st.one_of(st.just(0.0), _powers_of_ten(-3.0, top),
                               _powers_of_ten(-320.0, top)))
        if key in ("od", "omega_c") or draw(st.booleans()):
            signed = key.startswith("delta") and draw(st.booleans())
            doc[section][key] = -value if signed else value
    return doc, None


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(drawn=spectrum_documents())
def test_spectrum_document_ends_clean_or_keyed(drawn):
    # every draw exits 0 with finite, passive rows, or 3 or 4 with a message
    # that names a key, or the OD and n_z; a key beyond the domain exits 3
    # naming itself; nothing raises, and a RuntimeWarning is an error
    doc, beyond = drawn
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = _spectrum_strict(_spectrum_doc(Path(tmp), doc), Path(tmp))
        err = err.getvalue()
        if beyond is not None:
            assert rc == 3 and f"{beyond}: must be" in err, (doc, err)
        elif rc == 0:
            _assert_finite_and_passive(read_csv(Path(tmp) / "spectrum_fwm.csv")[1])
        else:
            assert rc in (3, 4), (doc, rc, err)
            assert KEYED.search(err) or ("OD " in err and "n_z" in err), (doc, err)


def test_optimize_rabi_bound_beyond_domain_exit_3(tmp_path, capsys):
    assert run(["optimize", "--od", 75, "--omega-max", 1e200, "--starts", 1,
                "--max-evals", 10, "--out", tmp_path]) == 3
    assert "optimize.bounds: must be a number within [-1e+08, 1e+08], got 1e+200" \
        in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("argv, code", [
    (["pulse", "--preset", "fig3", "--delta-p", "-1E0", "--n-freq", "1024"], 0),
    (["spectrum", "--preset", "fig3", "--from", "-1e1", "--to", "1.5e1", "--step", "0.5"], 0),
    (["optimize", "--od", "-1e1"], 3),
    (["spectrum", "--preset", "fig3", "--from", "-inf"], 3),
    (["spectrum", "--preset", "fig3", "--from", "-Infinity"], 3),
    (["spectrum", "--preset", "fig3", "--from", "-nan"], 3)])
def test_negative_flag_values_in_exponent_form(tmp_path, capsys, argv, code):
    # argparse alone reads -1e1, -inf and -nan as unknown options, and exits 2
    assert run(argv + ["--out", tmp_path]) == code
    if code:
        want = {"-1e1": "optimize.od: must be a number within [0, 5e+07], got -10.0",
                "-inf": "sweep.from: must be a number within [-1e+08, 1e+08], got -inf",
                "-Infinity": "sweep.from: must be a number within [-1e+08, 1e+08], got -inf",
                "-nan": "sweep.from: must be a number within [-1e+08, 1e+08], got nan"}
        assert want[argv[-1]] in capsys.readouterr().err


def test_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert run(["spectrum", "--preset", "fig3", "--from", 0, "--to", 1,
                "--out", blocker / "sub"]) == 2
    assert "error (io)" in capsys.readouterr().err


def test_validate_coarse_grid_exit_5(tmp_path, capsys):
    # the fig3 drive at OD 300 on 16 steps is finite and passive but not
    # converged on its grid
    cfg = tmp_path / "coarse.yaml"
    cfg.write_text("medium: {od: 300, n_z: 16}\n"
                   "fields: {omega_c: 11, omega_d: 9, delta_p: -1, delta_c: 5, delta_d: -4}\n")
    assert run(["validate", "--config", cfg, "--out", tmp_path]) == 5
    out = capsys.readouterr().out
    assert "[FAIL] grid_convergence" in out and "1 of 7 checks FAILED" in out
    doc = json.loads((tmp_path / "validate_report.json").read_text())
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == ["grid_convergence"]


def test_validate_oracle_draw_without_physical_state_exit_5(tmp_path, capsys):
    # gamma31 < Gamma3_total / 4 leaves the oracle's random draws no physical
    # two-level state: the check fails naming the draw, not the document's fields
    cfg = tmp_path / "dephased.yaml"
    cfg.write_text("medium: {od: 75}\nrates: {gamma31: 0.2}\n"
                   "fields: {omega_c: 0, omega_d: 9, delta_p: -1, delta_c: 5, delta_d: -4}\n")
    assert run(["validate", "--config", cfg, "--out", tmp_path]) == 5
    out = capsys.readouterr().out
    assert "[FAIL] oracle_agreement: the two-level state leaves its bounds at the drawn " \
        "omega_c = 20.5991, delta_c = 8.98398" in out
    assert "2 of 7 checks FAILED" in out
    doc = json.loads((tmp_path / "validate_report.json").read_text())
    assert [c["name"] for c in doc["checks"] if not c["passed"]] == \
        ["oracle_agreement", "zeroth_order_bounds"]


def test_pulse_si_writes_time_in_ns(tmp_path):
    assert run(["pulse", "--preset", "fig3", "--n-freq", 1024, "--si", "--out", tmp_path]) == 0
    _, cols = read_csv(tmp_path / "pulse.csv")
    assert np.array_equal(cols["time_ns"], cols["time_over_gamma_inv"]
                          * diamondfwm.TIME_UNIT_NS)


def test_only_the_cli_prints():
    # library modules report through return values and logging, never print
    package = Path(diamondfwm.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "cli.py":
            calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"]
            assert not calls, f"{path.name} calls print at lines {calls}"
