"""Time-domain probe-pulse conversion by spectral synthesis.

A square input envelope is decomposed into sideband components
exp(-i omega t), each component is multiplied by the transfer-matrix
entries A(omega) (transmitted probe) and C(omega) (generated signal),
and the outputs are resynthesized.  All times are in 1/Gamma units and
the returned traces are intensity envelopes normalized to unit peak
input.

The kernel runs at a few hundred of the n_freq sideband frequencies; a
rational interpolant of (a, c) stands in for it at the rest.  The
frequencies are sampled in rounds, in sorted order:

- the first round runs the kernel at _START frequencies evenly spaced
  over the grid;
- each round fits one vector-valued AAA interpolant (Nakatsukasa, Sete &
  Trefethen, SIAM J. Sci. Comput. 40 (2018) A1494) to a and c at every
  frequency the kernel has run at, runs the kernel at the midpoint of
  every open gap, all midpoints in one call, and compares;
- a gap whose midpoint agrees within _FIT_TOL x max |entry| closes, and
  the interpolant fills it; a gap whose midpoint fails is split in two
  (the refinement of Driscoll, Nakatsukasa & Trefethen, "AAA rational
  approximation on a continuum", SIAM J. Sci. Comput. 2024), or, once
  it spans no more than _FILL_WIDTH grid steps, is filled by the kernel
  instead, in one call after the last round.  Filled gaps stay out of
  the fits, so every fit is small: at most a few dozen support points
  on the first rounds' samples.

A fit to data at round-off level can put Froissart doublets, poles with
a residue near round-off, between its samples, where the midpoint
tests do not look.  Wherever a doublet's term, residue / distance, may
exceed the tolerance, the kernel runs too.

The output holds the kernel's own values wherever it ran and the last
round's interpolant elsewhere.  The fig3 pulse (n_freq 4096, window
60.3/Gamma, delta_p -1) runs the kernel at 350 frequencies in 7 calls,
and its entries lie within 2.8e-14 of the every-frequency kernel; over
delta_p from -1.1 to -0.9 the largest gap was 3.6e-14, since the tests
bound the error only where they run.  When the fit stops paying, the
kernel runs at every remaining frequency in one call, so the outputs
equal the every-frequency synthesis bit for bit: when the fit needs more
than _MAX_SUPPORT support points, the kernel has run at more than
_MAX_SHARE of the grid before a round, an SVD or eigensolve fails, or an
interpolated entry is not finite or gains photons, |a|^2 + |c|^2 above
1 + PASSIVITY_TOL (that frequency's kernel call then raises as it would
have).

A feature is seen only where it moves a or c by more than the tolerance
at a frequency the kernel runs at.  Before any gap can close the kernel
has run at 63 frequencies, one every (n_freq - 1) / 62 grid steps: 6.9
Gamma apart at the fig3 default, where the presets' resonances, with
poles 0.2 to 1 Gamma off the real axis, are resolved by their tails.  A
feature narrower than that spacing whose tails stay below the tolerance
at every sample goes unseen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import MAX_MAGNITUDE, ConfigBundle, _check_numbers
from .propagation import PASSIVITY_TOL, _transfer_components, coupling_profile

_FIT_TOL = 3e-14       # interpolant error allowed, relative to max |entry|
_START = 32            # evenly spaced kernel frequencies of the first round
_FILL_WIDTH = 16       # a failing gap this narrow (grid steps) is filled by the kernel
_MAX_SUPPORT = 64      # a fit that needs more support points takes the fallback
_MAX_SHARE = 0.5       # so does a grid on which the kernel has run this often
_DOUBLET = 1e-11       # residue, relative to max |entry|, below which a pole is spurious


@dataclass(frozen=True)
class PulseResult:
    """Input and output intensity envelopes on the synthesis time grid.

    ``kernel_frequencies`` counts the sideband frequencies at which the
    transfer-matrix kernel ran (``n_freq`` when it ran at all of them),
    and ``fit_err`` is the largest error of the interpolant, relative to
    max |entry|, at the frequencies it was fitted to or tested at
    outside the kernel-filled gaps (0.0 when nothing was interpolated).
    """

    time: np.ndarray
    input_probe: np.ndarray
    output_probe: np.ndarray
    output_signal: np.ndarray
    delta_p: float
    duration: float
    onset: float
    window: float
    n_freq: int
    kernel_frequencies: int
    fit_err: float

    def plateau(self, trace: str = "output_signal") -> float:
        """Mean of a trace over the final third of the input pulse."""
        y = getattr(self, trace)
        lo = self.onset + 2.0 * self.duration / 3.0
        hi = self.onset + self.duration
        mask = (self.time >= lo) & (self.time < hi)
        return float(np.mean(y[mask]))

    def columns(self):
        return {"time_over_gamma_inv": self.time,
                "input_probe": self.input_probe,
                "output_probe": self.output_probe,
                "output_signal": self.output_signal}


@dataclass(frozen=True)
class _Rational:
    """A vector-valued rational function in barycentric form,
    sum_j w_j f_j / (z - z_j) over sum_j w_j / (z - z_j), or the constant
    ``mean`` when it has no support points.  ``err`` is its largest error
    at the samples it was fitted to."""

    nodes: np.ndarray     # (m,) support points z_j
    values: np.ndarray    # (2, m) f_j
    weights: np.ndarray   # (m,) w_j
    mean: np.ndarray      # (2,)
    err: float

    def __call__(self, z):
        if self.nodes.size == 0:
            return np.repeat(self.mean[:, None], z.size, axis=1)
        num = np.zeros((2, z.size), complex)
        den = np.zeros(z.size, complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for zj, fj, wj in zip(self.nodes, self.values.T, self.weights):
                c = wj / (z - zj)
                den += c
                num += fj[:, None] * c
            return num / den

    def doublets(self, small):
        """The poles whose residue is below ``small`` in both rows, and
        those residues: Froissart doublets, which a fit to data at
        round-off level puts between samples.  The poles are the finite
        eigenvalues of the arrowhead pencil (E, B) of the barycentric form,
        shifted off the real axis so that E - sigma B is invertible; the
        residue is n(p) / d'(p)."""
        m = self.nodes.size
        if m == 0:
            return np.zeros(0, complex), np.zeros(0)
        E = np.zeros((m + 1, m + 1), complex)
        E[0, 1:], E[1:, 0], E[1:, 1:] = self.weights, 1.0, np.diag(self.nodes)
        B = np.eye(m + 1)
        B[0, 0] = 0.0
        sigma = 1j * (np.ptp(self.nodes) + 1.0)
        mu = np.linalg.eigvals(np.linalg.solve(E - sigma * B, B))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            poles = sigma + 1.0 / mu[mu != 0.0]
            c = 1.0 / (poles[:, None] - self.nodes)
            residues = (c * self.weights) @ self.values.T / -(c ** 2 @ self.weights)[:, None]
        size = np.max(np.abs(residues), axis=1)
        return poles[size < small], size[size < small]


def _aaa(z, F, tol):
    """The AAA fit to samples F (2, N) at the real points z, greedy until
    every sample lies within ``tol``, or None if that takes more than
    _MAX_SUPPORT support points.  The weights are the last right singular
    vector of the stacked Loewner matrix of both rows, taken from its R
    factor."""
    n = z.size
    cap = min(_MAX_SUPPORT, n)
    free = np.ones(n, bool)              # samples that are not support points
    cauchy = np.zeros((n, cap))          # 1 / (z_i - z_j) on the free rows
    loewner = np.zeros((2, n, cap), complex)
    mean = F.mean(axis=1)
    err = np.max(np.abs(F - mean[:, None]), axis=0)
    support, w = [], np.zeros(0, complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while not err.max() <= tol:   # a NaN error runs on to the cap
            m = len(support)
            if m == cap:
                return None
            j = int(np.argmax(err))
            support.append(j)
            free[j] = False
            cauchy[free, m] = 1.0 / (z[free] - z[j])
            loewner[:, :, m] = (F - F[:, j, None]) * cauchy[:, m]
            r = np.linalg.qr(loewner[:, free, :m + 1].reshape(-1, m + 1), mode="r")
            w = np.linalg.svd(r)[2][-1].conj()
            c = cauchy[free, :m + 1]
            fit = (c @ (w * F[:, support]).T).T / (c @ w)
            err[~free] = 0.0
            err[free] = np.max(np.abs(F[:, free] - fit), axis=0)
    return _Rational(z[support], F[:, support], w, mean, float(err.max()))


def _sampled_entries(kernel, z):
    """a and c on the sorted grid z, from ``kernel`` (frequencies -> a, c)
    where it runs and from the interpolant elsewhere, as
    (entries (2, n), kernel frequencies, fit_err); see the module docstring."""
    n = z.size
    F = np.empty((2, n), complex)
    known = np.zeros(n, bool)    # the kernel has run here
    fill = np.zeros(n, bool)     # the kernel runs here after the last round

    def run(where):
        if where.size:
            F[:, where] = kernel(z[where])
            known[where] = True

    first = np.unique(np.round(np.linspace(0.0, n - 1, _START)).astype(int))
    run(first)
    gaps = np.stack((first[:-1], first[1:]), axis=1)
    gaps = gaps[gaps[:, 1] - gaps[:, 0] > 1]
    fit, fit_err = None, 0.0
    try:
        while gaps.size:
            if (known | fill).mean() > _MAX_SHARE:
                fit = None
                break
            scale = np.max(np.abs(F[:, known]))
            fit = _aaa(z[known], F[:, known], _FIT_TOL * scale)
            if fit is None:
                break
            mid = gaps.sum(axis=1) // 2
            run(mid)
            err = np.max(np.abs(fit(z[mid]) - F[:, mid]), axis=0)
            passed = err <= _FIT_TOL * scale
            fit_err = max(fit.err, np.max(err[passed], initial=0.0)) / scale if scale else 0.0
            failed, mid = gaps[~passed], mid[~passed]
            narrow = failed[:, 1] - failed[:, 0] <= _FILL_WIDTH
            for a, b in failed[narrow]:
                fill[a + 1:b] = True
            wide, mid = failed[~narrow], mid[~narrow]
            halves = np.concatenate((np.stack((wide[:, 0], mid), axis=1),
                                     np.stack((mid, wide[:, 1]), axis=1)))
            gaps = halves[halves[:, 1] - halves[:, 0] > 1]
        if fit is not None:
            # where a doublet's term, residue / distance, may exceed the
            # tolerance, the kernel runs instead
            rest = np.flatnonzero(~known & ~fill)
            poles, residues = fit.doublets(_DOUBLET * scale)
            for p, r in zip(poles, residues):
                fill[rest[r > _FIT_TOL * scale * np.abs(z[rest] - p)]] = True
    except np.linalg.LinAlgError:   # an SVD or eigensolve that does not converge
        fit = None
    rest = ~known & ~fill
    if fit is not None and rest.any():
        F[:, rest] = fit(z[rest])
        with np.errstate(over="ignore", invalid="ignore"):
            gain = np.sum(np.abs(F[:, rest]) ** 2, axis=0) - 1.0
        if not (np.isfinite(F[:, rest]).all() and np.max(gain) <= PASSIVITY_TOL):
            fit = None
    if fit is None:   # the fallback: the kernel at every remaining frequency
        fill = ~known
    run(np.flatnonzero(fill & ~known))
    interpolated = n - int(known.sum())
    return F, n - interpolated, fit_err if interpolated else 0.0


def propagate_pulse(bundle: ConfigBundle, duration: Optional[float] = None,
                    delta_p: Optional[float] = None, window: Optional[float] = None,
                    n_freq: Optional[int] = None, threads: int = 1) -> PulseResult:
    """Propagate a square probe pulse of unit amplitude through the medium.

    The synthesis window defaults to 8x the pulse duration with the
    pulse switched on at window/8, leaving most of the window for the
    causal medium response to ring down before it wraps around.
    ``threads``, an integer from 1 to 1e8, changes nothing: each kernel
    call runs its tiles on the calling thread.  The transfer-matrix
    entries are sampled as the module docstring describes.
    """
    _check_numbers("threads", threads, 1, MAX_MAGNITUDE, integer=True)
    given = {"duration": duration, "window": window, "n_freq": n_freq}
    # replace() re-runs PulseOptions validation, grid rules included, on the overrides
    opts = replace(bundle.pulse, **{k: v for k, v in given.items() if v is not None})
    duration, window, n_freq = opts.duration, opts.synthesis_window, opts.n_freq
    profile = coupling_profile(bundle)   # raises for a drive-less bundle
    # replace() re-runs DriveConfig validation on the override
    drive = bundle.drive if delta_p is None else replace(bundle.drive, delta_p=delta_p)
    dt = window / n_freq
    t = dt * np.arange(n_freq)
    onset = window / 8.0
    envelope = np.where((t >= onset) & (t < onset + duration), 1.0, 0.0)

    # components f(t) = sum_k F_k exp(-i omega_k t): analysis via ifft
    spectrum = np.fft.ifft(envelope)
    omegas = 2.0 * np.pi * np.fft.fftfreq(n_freq, d=dt)

    def kernel(omega):
        out = _transfer_components(bundle, profile, drive.delta_p, omega, threads=threads)
        return out[[0, 2]]

    entries, kernel_frequencies, fit_err = _sampled_entries(kernel, np.fft.fftshift(omegas))
    a, c = np.fft.ifftshift(entries, axes=1)
    out_p = np.fft.fft(spectrum * a)
    out_s = np.fft.fft(spectrum * c)
    return PulseResult(time=t,
                       input_probe=np.abs(envelope) ** 2,
                       output_probe=np.abs(out_p) ** 2,
                       output_signal=np.abs(out_s) ** 2,
                       delta_p=drive.delta_p, duration=duration,
                       onset=onset, window=window, n_freq=n_freq,
                       kernel_frequencies=kernel_frequencies, fit_err=fit_err)
