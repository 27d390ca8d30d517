#!/usr/bin/env python3
"""Benchmark of diamondfwm: end-to-end metrics of two workloads, or,
with ``--trace 1``, per-layer metrics from a traced run.

    python3 bench/run.py --workload {optimize,spectra} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root.  It imports the package from ``src/``
of the same checkout and drives it in process through
``diamondfwm.cli.main(argv)``, the path users take, writing outputs under
``.bench_out/<workload>/``.  Passes over the workload's command lines
repeat until ``--seconds`` of timed work has run; every pass's output
files are checked outside the timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See bench/README.md for the metrics and layers.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9       # fresh-interpreter set-ups per plain run, spread over the run
SETUP_BATCH = 3         # of which this many are taken before each pass
SETUP_CODE = ("import diamondfwm.cli\n"
              "from diamondfwm import observables_at, preset\n"
              "observables_at(preset('fig3'))\n")
# one BLAS thread, so library threading cannot oversubscribe the cores the
# workloads' own --threads use
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("optimize", "spectra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload and take one set-up sample (smoke test); "
                         "skips the OD 200 target")
    return ap.parse_args(argv)


def measure_setup(times: list, samples: int) -> None:
    """Append ``samples`` set-up times to ``times``: seconds from starting a
    fresh interpreter to the end of the first cold
    observables_at(preset("fig3")), including `import diamondfwm.cli`."""
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)


def environment() -> dict:
    """What the timings depend on; comparisons across differing blocks are invalid."""
    import numpy
    import scipy
    # found, not imported: importing numba would add to the measured memory
    has_numba = importlib.util.find_spec("numba") is not None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "numba": has_numba,
            "machine": platform.machine(), **THREAD_ENV}


def run_cli(main, argv, tracer=None):
    """One command through diamondfwm.cli.main; (exit code, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:   # the benchmark keeps going and counts the failure
        return 1, traceback.format_exc()
    return code, sink.getvalue() if code else ""


def summarize(values) -> dict:
    return {"n": len(values), "median": statistics.median(values), "max": max(values),
            "samples": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diamondfwm" / "__init__.py").is_file():
        print(f"bench: no diamondfwm sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    # set-up is sampled in batches before the passes and topped up after
    # them, so its median spans the run rather than its first seconds
    setup, setup_total = [], 0 if args.trace else 1 if args.tiny else SETUP_SAMPLES

    sys.path.insert(0, str(SRC))
    import diamondfwm
    from diamondfwm import cli, observables_at, preset
    if Path(diamondfwm.__file__).resolve().parent != SRC / "diamondfwm":
        print(f"bench: imported diamondfwm from {diamondfwm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work = WORKLOADS[args.workload](args.seed, out, tiny=args.tiny)
    argvs = work.argvs()
    env = environment()
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "argv": argvs}))

    observables_at(preset("fig3"))   # imports and first-call costs stay out of the timing
    if hasattr(work, "capture"):
        work.capture()
    tracer = Tracer()
    min_passes = 2 if args.trace else 1   # a traced run compares plain and traced passes
    attempted = failed = points = 0
    plain, traced, etas = [], [], []
    while sum(plain) + sum(traced) < args.seconds or len(plain) + len(traced) < min_passes:
        for path in work.outputs():
            path.unlink(missing_ok=True)
        measure_setup(setup, min(SETUP_BATCH, setup_total - len(setup)))
        trace_pass = bool(args.trace) and len(plain) > len(traced)
        if trace_pass:
            layers.install(tracer)
        t0 = time.perf_counter()
        try:
            codes = [run_cli(cli.main, argv, tracer if trace_pass else None) for argv in argvs]
        finally:
            elapsed = time.perf_counter() - t0
            tracer.restore()
        (traced if trace_pass else plain).append(elapsed)
        for i, (code, error) in enumerate(codes):
            attempted += 1
            if code != 0:
                failed += 1
                print(f"bench: {argvs[i]} exited {code}\n{error}", file=sys.stderr)
                continue
            try:
                check = work.check(i)
            except Exception:   # unreadable output counts as a failed check
                failed += 1
                print(f"bench: checking {argvs[i]}\n{traceback.format_exc()}", file=sys.stderr)
                continue
            points += check.points
            if check.ok:
                etas.append(check.eta)
            else:
                failed += 1
                print(f"bench: {argvs[i]}: {check.detail}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measure_setup(setup, setup_total - len(setup))

    if args.trace:
        per_layer = layers.metrics(tracer, len(traced))
        if hasattr(work, "layer_metrics"):
            per_layer.update(work.layer_metrics())
        per_layer["trace.wall_s"] = statistics.median(traced)
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": per_layer.get(name, 0), "unit": units[name]}
                   for name in units}
        tracer.write(out / "spans.json")
        print(json.dumps({"shares": layers.shares(tracer), "plain_s": plain,
                          "traced_s": traced, "spans": len(tracer.spans)}))
    else:
        try:
            max_err = work.max_err()
        except Exception:   # a reference that cannot be computed counts as a failure
            print(f"bench: reference\n{traceback.format_exc()}", file=sys.stderr)
            failed, max_err = failed + 1, 0.0
        print(json.dumps({"setup_s": summarize(setup), "wall_s": summarize(plain)}))
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "tm_per_s": {"value": points / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "max_err": {"value": max_err, "unit": "1"},
            "eta_s_best": {"value": max(etas, default=0.0), "unit": "1"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
