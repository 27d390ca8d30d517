"""Command-line interface.

Subcommands: spectrum, pulse, optimize, validate, presets.  All
frequencies on the command line and in output files are in Gamma units
(Gamma = 2*pi*6 MHz); ``--si`` appends SI columns.  Exit codes: 0 ok,
2 config parse error or unreadable config / unwritable output,
3 validation error, 4 numerical error, 5 invariant failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (DEFAULT_LINEWIDTH, GAMMA_HZ, PRESET_NAMES, SWEEP_MODES,
                     TIME_UNIT_NS, ConfigBundle, MediumConfig, RateTable,
                     dump_config, load_config, preset)
from .errors import ConfigParseError, ConfigValidationError, NumericalError
from .manifest import make_manifest, write_csv, write_json
from .optimize import (DELTA_MAX, MAX_EVALS, OMEGA_MAX, PARAM_NAMES, SEED, STARTS,
                       default_bounds, optimize_eta)
from .propagation import observables_at, spectrum_sweep
from .pulse import propagate_pulse
from .validate import run_checks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_INVARIANT = 5

MHZ_PER_GAMMA = GAMMA_HZ / 1e6   # detuning in MHz per Gamma unit

# what a command's grid shrinks with, for its out-of-memory exit
_LOWER_GRID = {"spectrum": "lower medium.n_z or raise sweep.step",
               "pulse": "lower medium.n_z or pulse.n_freq",
               "optimize": "lower --starts"}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each of its subparsers, that reads a negative
    number in exponent form (``--from -1e1``), and -inf, -infinity and -nan in
    any case, as a flag's value: argparse's own pattern takes only -1 and -1.5
    as numbers, and the others as unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)


def _add_common(p, config: bool = True, threads: bool = True, si: bool = True):
    if config:
        src = p.add_mutually_exclusive_group()
        src.add_argument("--config", type=Path, help="YAML config document")
        src.add_argument("--preset", choices=PRESET_NAMES, help="built-in operating point")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and unused: the kernel runs on the calling thread")
    if si:
        p.add_argument("--si", action="store_true",
                       help="append SI columns (MHz, ns) using Gamma = 2*pi*6 MHz")


def _load_bundle(args, default_preset=None):
    if getattr(args, "config", None) is not None:
        return load_config(args.config), None
    name = getattr(args, "preset", None) or default_preset
    if name is None:
        raise ConfigValidationError("config", "give --config PATH or --preset NAME")
    return preset(name), name


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diamondfwm",
        description="Telecom frequency conversion in a diamond-type atomic "
                    "ensemble: spectra, pulse conversion and drive optimization.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="sweep the probe detuning and write a CSV")
    _add_common(sp)
    sp.add_argument("--mode", choices=SWEEP_MODES,
                    help="spectroscopy mode (default the config's sweep.mode, else fwm)")
    sp.add_argument("--from", dest="sweep_from", type=float, help="sweep start [Gamma]")
    sp.add_argument("--to", dest="sweep_to", type=float, help="sweep end [Gamma]")
    sp.add_argument("--step", type=float, help="sweep step [Gamma]")
    sp.add_argument("--linewidth", type=float, nargs="?", const=DEFAULT_LINEWIDTH,
                    help="also emit columns convolved with a Lorentzian of this "
                         f"FWHM [Gamma] (default {DEFAULT_LINEWIDTH:.4g} ~ 5 MHz)")
    sp.set_defaults(func=cmd_spectrum)

    pp = sub.add_parser("pulse", help="propagate a square probe pulse")
    _add_common(pp)
    pp.add_argument("--delta-p", type=float, help="carrier probe detuning [Gamma]")
    pp.add_argument("--duration", type=float, help="pulse duration [1/Gamma] "
                    "(default the 200 ns equivalent, 7.54)")
    pp.add_argument("--window", type=float, help="synthesis window [1/Gamma]")
    pp.add_argument("--n-freq", type=int, help="frequency samples (default 4096)")
    pp.set_defaults(func=cmd_pulse)

    op = sub.add_parser("optimize", help="find drive parameters maximizing eta_s")
    _add_common(op, config=False, si=False)
    op.add_argument("--od", type=float, required=True,
                    help="resonant optical depth of the probe transition")
    op.add_argument("--starts", type=int, default=STARTS)
    op.add_argument("--seed", type=int, default=SEED)
    op.add_argument("--max-evals", type=int, default=MAX_EVALS)
    op.add_argument("--omega-max", type=float, default=OMEGA_MAX)
    op.add_argument("--delta-max", type=float, default=DELTA_MAX)
    op.set_defaults(func=cmd_optimize)

    va = sub.add_parser("validate", help="run the model invariant suite")
    _add_common(va, threads=False, si=False)
    va.set_defaults(func=cmd_validate)

    pr = sub.add_parser("presets", help="list built-in operating points")
    pr.set_defaults(func=cmd_presets)
    return parser


def cmd_spectrum(args) -> int:
    started = time.perf_counter()
    bundle, preset_name = _load_bundle(args)
    mode = args.mode or bundle.sweep.mode
    table = spectrum_sweep(mode, bundle, start=args.sweep_from,
                           stop=args.sweep_to, step=args.step,
                           linewidth=args.linewidth, threads=args.threads)
    columns = table.columns()
    if args.si:
        columns["delta_p_mhz"] = table.delta_p * MHZ_PER_GAMMA
    manifest = make_manifest("spectrum", bundle, preset=preset_name, started=started,
                             mode=mode, sweep_from=float(table.delta_p[0]),
                             sweep_to=float(table.delta_p[-1]),
                             linewidth=table.linewidth)
    path = write_csv(args.out / f"spectrum_{mode}.csv", columns, manifest)
    i_es = int(np.argmax(table.eta_s))
    print(f"wrote {path} ({table.delta_p.size} points)")
    print(f"T_p peak at delta_p = {table.peak_delta_p('T_p'):+.3f} "
          f"(T_p = {table.T_p.max():.4f})")
    print(f"eta_s max = {table.eta_s[i_es]:.4f} at delta_p = {table.delta_p[i_es]:+.3f}")
    return EXIT_OK


def cmd_pulse(args) -> int:
    started = time.perf_counter()
    bundle, preset_name = _load_bundle(args)
    result = propagate_pulse(bundle, duration=args.duration, delta_p=args.delta_p,
                             window=args.window, n_freq=args.n_freq,
                             threads=args.threads)
    columns = result.columns()
    if args.si:
        columns["time_ns"] = result.time * TIME_UNIT_NS
    plateau = result.plateau()
    cw = observables_at(bundle, delta_p=result.delta_p).eta_s
    rel = abs(plateau - cw) / cw if cw > 0 else abs(plateau - cw)
    status = "converged" if rel <= 0.01 else "not converged"
    manifest = make_manifest("pulse", bundle, preset=preset_name, started=started,
                             results={"converged": rel <= 0.01, "relative_gap": rel,
                                      "kernel_frequencies": result.kernel_frequencies,
                                      "fit_err": result.fit_err},
                             delta_p=result.delta_p, duration=result.duration)
    path = write_csv(args.out / "pulse.csv", columns, manifest)
    print(f"wrote {path} ({result.n_freq} samples over {result.window:.2f}/Gamma; "
          f"kernel at {result.kernel_frequencies}, fit error {result.fit_err:.2g})")
    print(f"signal plateau = {plateau:.4f}, cw eta_s = {cw:.4f} -> {status} "
          f"(relative gap {rel:.2%})")
    return EXIT_OK


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    if args.threads != 1:
        raise ConfigValidationError("--threads", "the search solves each lockstep round "
                                    f"on one thread; only 1 is accepted, got {args.threads}")
    result = optimize_eta(args.od, bounds=default_bounds(args.omega_max, args.delta_max),
                          starts=args.starts, seed=args.seed, max_evals=args.max_evals)
    rates = RateTable()
    bundle = ConfigBundle(rates=rates, medium=MediumConfig.derive(rates, od=args.od),
                          drive=result.drive)
    manifest = make_manifest("optimize", bundle, seed=args.seed, started=started,
                             od=args.od, starts=args.starts, max_evals=args.max_evals)
    path = write_json(args.out / "optimize_result.json", result.as_dict(), manifest)
    best = args.out / "optimize_best.yaml"   # input for spectrum/pulse --config
    best.write_text(dump_config(bundle), encoding="utf-8")
    params = ", ".join(f"{k} = {v:+.3f}" for k, v in zip(PARAM_NAMES, result.params))
    print(f"wrote {path} and {best}")
    print(f"best eta_s = {result.eta_s:.4f} at OD {args.od:g} with {params} "
          f"({result.n_evaluations} evaluations)")
    return EXIT_OK


def cmd_validate(args) -> int:
    started = time.perf_counter()
    bundle, preset_name = _load_bundle(args, default_preset="fig3")
    checks = run_checks(bundle)
    for check in checks:
        print(check.line())
    manifest = make_manifest("validate", bundle, preset=preset_name, started=started)
    write_json(args.out / "validate_report.json",
               {"checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in checks]},
               manifest)
    if all(c.passed for c in checks):
        print(f"all {len(checks)} checks passed")
        return EXIT_OK
    print(f"{sum(not c.passed for c in checks)} of {len(checks)} checks FAILED")
    return EXIT_INVARIANT


def cmd_presets(args) -> int:
    for name in PRESET_NAMES:
        bundle = preset(name)
        drive = bundle.drive
        if drive is None:
            fields = "drive fields unset (use the optimizer)"
        else:
            fields = (f"omega_c = {drive.omega_c:g}, omega_d = {drive.omega_d:g}, "
                      f"delta_c = {drive.delta_c:+g}, delta_d = {drive.delta_d:+g}, "
                      f"delta_p = {drive.delta_p:+g}")
        print(f"{name:7s} OD = {bundle.medium.od:g} (alpha_p = {bundle.medium.alpha_p:g}); "
              f"{fields}")
    return EXIT_OK


@functools.cache
def _keep_freed_pages() -> None:
    """Have glibc's malloc serve arrays below 64 MB from its heap and keep
    up to 256 MB of freed heap, so that the transfer-matrix kernel's
    per-tile temporaries (a few hundred KB each) reuse pages instead of
    being mapped and returned to the system on every operation.  This is
    per-process allocator state, so the CLI sets it and the library does
    not.  A C library without mallopt (musl, macOS) is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # no mallopt, or no C library handle
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 64 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_pages()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigValidationError("--threads", f"must be >= 1, got {args.threads}")
        return args.func(args)
    except ConfigParseError as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigValidationError as exc:
        print(f"error (validation): {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError:
        print("error (numerical): the grid does not fit in memory; "
              f"{_LOWER_GRID.get(args.command, 'lower medium.n_z')}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:   # unreadable config, or an --out path that cannot be written
        print(f"error (io): {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
