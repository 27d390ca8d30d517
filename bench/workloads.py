"""The benchmark's workloads: the command lines each one runs, the checks
on their output files, and the accuracy of those outputs against a
reference on a 4x finer spatial grid.

Every input is drawn from the benchmark seed; the program sees only the
generated command lines.  ``tiny`` shrinks each workload for the smoke
test and skips the OD 200 target, which needs the full search.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from diamondfwm.manifest import read_csv

REF_NZ = 8000            # reference grid: 4x the default n_z
PASSIVITY_TOL = 1e-9     # the passivity gate of `diamondfwm validate`
PLATEAU_RTOL = 0.01      # cmd_pulse's "converged" verdict
ETA_TARGET = (0.85, 0.95)  # acceptance criterion 03: 0.90 +- 0.05


@dataclass
class Check:
    """Outcome of checking one command's output files."""

    ok: bool
    points: int = 0          # transfer-matrix points the command solved
    eta: float = 0.0         # the best conversion its outputs show
    detail: str = ""


def _fine(bundle):
    return replace(bundle, medium=replace(bundle.medium, n_z=REF_NZ))


class Sweep:
    """The Fig. 3/4 spectra as the experiment scripts run them: fig3 in
    all four modes, fig4 in fwm, v_type and cascade, step 0.05 over
    [-10, 15] shifted by an offset in [0, 0.05) drawn from the seed, with
    the laser-linewidth convolution on the fwm sweeps, 1 thread."""

    RUNS = (("fig3", "fwm"), ("fig3", "v_type"), ("fig3", "cascade"),
            ("fig3", "two_level"), ("fig4", "fwm"), ("fig4", "v_type"),
            ("fig4", "cascade"))
    REF_STRIDE = 8   # reference rows: every 8th row from a seeded phase

    def __init__(self, rng: random.Random, out: Path, tiny: bool):
        self.offset = rng.uniform(0.0, 0.05)
        self.phase = rng.randrange(self.REF_STRIDE)
        self.step = 1.0 if tiny else 0.05
        self.rows = int(math.floor(25.0 / self.step + 1e-9)) + 1
        self.out = out

    def _csv(self, i: int) -> Path:
        name, mode = self.RUNS[i]
        return self.out / name / f"spectrum_{mode}.csv"

    def argvs(self):
        return [["spectrum", "--preset", name, "--mode", mode,
                 "--from", repr(-10.0 + self.offset), "--to", repr(15.0 + self.offset),
                 "--step", repr(self.step), "--threads", "1",
                 "--out", str(self.out / name)] + (["--linewidth"] if mode == "fwm" else [])
                for name, mode in self.RUNS]

    def outputs(self):
        return [self._csv(i) for i in range(len(self.RUNS))]

    def check(self, i: int) -> Check:
        _, cols = read_csv(self._csv(i))
        n = cols["T_p"].size
        if n != self.rows:
            return Check(False, n, detail=f"{n} rows, expected {self.rows}")
        if not all(np.all(np.isfinite(c)) for c in cols.values()):
            return Check(False, n, detail="non-finite value")
        gain = max(np.max(cols["T_p"] + cols["eta_s"]), np.max(cols["eta_p"] + cols["T_s"]))
        if gain > 1.0 + PASSIVITY_TOL:
            return Check(False, n, detail=f"passivity: photon gain {gain - 1.0:.3g}")
        return Check(True, n, float(np.max(cols["eta_s"])))

    def max_err(self) -> float:
        """Largest gap in T_p, eta_s, T_s or eta_p against n_z 8000, on
        every 8th row of the concatenated sweeps from a seeded phase."""
        from diamondfwm import preset, spectrum_sweep

        err, first = 0.0, 0
        for i, (name, mode) in enumerate(self.RUNS):
            _, cols = read_csv(self._csv(i))
            rows = np.arange((self.phase - first) % self.REF_STRIDE, self.rows, self.REF_STRIDE)
            first += self.rows
            if rows.size == 0:
                continue
            dp = cols["delta_p_over_gamma"][rows]
            ref = spectrum_sweep(mode, _fine(preset(name)), start=dp[0],
                                 stop=dp[-1] + 0.5 * self.step,
                                 step=self.REF_STRIDE * self.step, threads=2)
            for col in ("T_p", "eta_s", "T_s", "eta_p"):
                err = max(err, float(np.max(np.abs(cols[col][rows] - getattr(ref, col)[:rows.size]))))
        return err


class Pulse:
    """A 200 ns square pulse at the fig3 point, probe detuning
    -1 + U(-0.1, 0.1) from the seed, 4096 sideband frequencies on 2
    threads: one large batch through the thread-pool chunk path."""

    def __init__(self, rng: random.Random, out: Path, tiny: bool):
        self.delta_p = -1.0 + rng.uniform(-0.1, 0.1)
        self.n_freq = 1024 if tiny else 4096
        self.out = out

    def argvs(self):
        argv = ["pulse", "--preset", "fig3", "--delta-p", repr(self.delta_p),
                "--threads", "2", "--out", str(self.out)]
        return [argv + (["--n-freq", str(self.n_freq)] if self.n_freq != 4096 else [])]

    def outputs(self):
        return [self.out / "pulse.csv"]

    def _plateau(self) -> float:
        """Mean output signal over the final third of the input pulse,
        recomputed from the CSV as PulseResult.plateau does."""
        manifest, cols = read_csv(self.out / "pulse.csv")
        t, signal = cols["time_over_gamma_inv"], cols["output_signal"]
        window = (t[1] - t[0]) * t.size
        onset, duration = window / 8.0, manifest["arg_duration"]
        mask = (t >= onset + 2.0 * duration / 3.0) & (t < onset + duration)
        return float(np.mean(signal[mask]))

    def check(self, i: int) -> Check:
        from diamondfwm import observables_at, preset

        _, cols = read_csv(self.out / "pulse.csv")
        n = cols["output_signal"].size
        if n != self.n_freq or not all(np.all(np.isfinite(c)) for c in cols.values()):
            return Check(False, n, detail="wrong length or non-finite value")
        plateau = self._plateau()
        cw = observables_at(preset("fig3"), delta_p=self.delta_p).eta_s
        rel = abs(plateau - cw) / cw
        if rel > PLATEAU_RTOL:
            return Check(False, n, plateau, f"plateau {plateau:.5f} vs cw {cw:.5f}: {rel:.2%}")
        return Check(True, n, plateau)

    def max_err(self) -> float:
        """Largest gap in the output probe and signal intensities read
        from pulse.csv, against propagate_pulse on n_z 8000 with the
        detuning and duration of the run's manifest and the same time
        grid.  The plateau's gap to the CW eta_s (the convergence check)
        is set by the pulse length, not the grid, so it is not used here."""
        from diamondfwm import preset, propagate_pulse

        manifest, cols = read_csv(self.out / "pulse.csv")
        t = cols["time_over_gamma_inv"]
        ref = propagate_pulse(_fine(preset("fig3")), duration=manifest["arg_duration"],
                              delta_p=manifest["arg_delta_p"], n_freq=t.size, threads=2)
        if not np.allclose(ref.time, t, rtol=1e-12, atol=0.0):
            raise ValueError("pulse.csv is not on the default time grid")
        return max(float(np.max(np.abs(cols[c] - getattr(ref, c))))
                   for c in ("output_probe", "output_signal"))


class Spectra:
    """The pulse command, then the sweep commands.  Both are batched numpy
    work whose speed follows the machine's memory traffic, so they share
    one workload and one long measuring window."""

    name = "spectra"

    def __init__(self, seed: int, out: Path, tiny: bool = False):
        rng = random.Random(seed)
        self.parts = (Pulse(rng, out / "pulse", tiny), Sweep(rng, out / "sweep", tiny))
        self._owner = [(part, i) for part in self.parts for i in range(len(part.argvs()))]

    def argvs(self):
        return [argv for part in self.parts for argv in part.argvs()]

    def outputs(self):
        return [path for part in self.parts for path in part.outputs()]

    def check(self, i: int) -> Check:
        part, j = self._owner[i]
        return part.check(j)

    def max_err(self) -> float:
        """The sum of the parts' gaps, so that a loss of accuracy in either
        shows: the pulse's gap (about 3e-14) would hide under the sweep's
        (about 1.6e-12) in their maximum."""
        return sum(part.max_err() for part in self.parts)


class Optimize:
    """The OD 200 drive search: a Latin hypercube of starts seeded by the
    benchmark seed, each start a Nelder-Mead run with a fixed evaluation
    budget, 1 thread.  Each evaluation is one single-point transfer
    matrix, so the workload is bound by single-point latency."""

    name = "optimize"
    STARTS = 10
    MAX_EVALS = 120

    REF_STEP = 0.1   # probe-detuning step of the max_err spectrum

    def __init__(self, seed: int, out: Path, tiny: bool = False):
        self.seed = seed % 2 ** 32
        self.starts, self.max_evals = (1, 12) if tiny else (self.STARTS, self.MAX_EVALS)
        self.ref_step = 1.0 if tiny else self.REF_STEP
        self.tiny = tiny
        self.out = out
        self.first = None
        self.objective = None

    def capture(self) -> None:
        """Keep the objective each search builds, so that max_err runs the
        search's own single-point path on its own grid.  The search builds
        it once per command, so the timed evaluations are untouched."""
        from diamondfwm import optimize

        make = optimize.make_objective

        def capturing(*args, **kwargs):
            self.objective = make(*args, **kwargs)
            return self.objective

        optimize.make_objective = capturing

    def argvs(self):
        return [["optimize", "--od", "200", "--starts", str(self.starts),
                 "--seed", str(self.seed), "--max-evals", str(self.max_evals),
                 "--threads", "1", "--out", str(self.out)]]

    def outputs(self):
        return [self.out / "optimize_result.json"]

    def result(self) -> dict:
        doc = json.loads((self.out / "optimize_result.json").read_text(encoding="utf-8"))
        doc.pop("manifest")
        return doc

    def check(self, i: int) -> Check:
        doc = self.result()
        n, eta = doc["n_evaluations"], doc["eta_s"]
        if not all(math.isfinite(v) for v in (eta, *doc["best"].values())):
            return Check(False, n, detail="non-finite optimum")
        if self.first is None:
            self.first = doc
        elif doc != self.first:
            return Check(False, n, eta, "repeat of the same seed gave a different optimum")
        if not self.tiny and not ETA_TARGET[0] <= eta <= ETA_TARGET[1]:
            return Check(False, n, eta, f"eta_s {eta:.4f} outside {ETA_TARGET}")
        return Check(True, n, eta)

    def max_err(self) -> float:
        """Largest gap in eta_s against n_z 8000: at the optimum the result
        file reports, and over the fwm spectrum at the optimum drive, -15
        to 15 in steps of 0.1, evaluated through the objective the search
        built.  At the optimum alone the gap is round-off (1e-15 to 2e-14),
        which hides a coarser grid; over the spectrum the grid's truncation
        error sets the value."""
        from diamondfwm import ConfigBundle, DriveConfig, MediumConfig, RateTable, \
            observables_at, spectrum_sweep
        from diamondfwm.optimize import PARAM_NAMES

        doc = self.result()
        x = [doc["best"][name] for name in PARAM_NAMES]
        rates = RateTable()
        fine = ConfigBundle(rates=rates, drive=DriveConfig(**doc["best"]),
                            medium=MediumConfig.derive(rates, od=200.0, n_z=REF_NZ))
        ref = spectrum_sweep("fwm", fine, start=-15.0, stop=15.0, step=self.ref_step,
                             threads=2)
        coarse = np.array([self.objective([*x[:4], dp]) for dp in ref.delta_p])
        return max(float(np.max(np.abs(coarse - ref.eta_s))),
                   abs(doc["eta_s"] - observables_at(fine).eta_s))

    def layer_metrics(self) -> dict:
        """Search efficiency from the result file: starts that used their
        whole budget, evaluations until the running best came within 1e-4
        of the final best, and that count over all evaluations."""
        doc = self.result()
        etas = [eta for trace in doc["traces"] for _, eta in trace]
        best = max(etas)
        to_best = next(k for k, v in enumerate(np.maximum.accumulate(etas))
                       if v >= best - 1e-4) + 1
        return {"optimize.starts_budget_exhausted":
                sum(len(t) >= self.max_evals for t in doc["traces"]),
                "optimize.evals_to_best": to_best,
                "optimize.useful_frac": to_best / len(etas)}


WORKLOADS = {w.name: w for w in (Optimize, Spectra)}
