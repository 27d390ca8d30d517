"""Field propagation across the medium: coupling-beam attenuation,
probe/signal transfer matrices, steady-state observables and swept
spectra.

Propagation works on flux-normalized amplitudes

    u_p = omega_p / sqrt(gamma21 * alpha_p)
    u_s = omega_s / sqrt(gamma43 * alpha_s)

whose squared magnitudes are proportional to photon flux, so that
|C|^2 is a true photon-number conversion efficiency.  The coupled
equations along zeta in [0, 1] are

    d/dzeta (u_p, u_s) = M(zeta, omega) (u_p, u_s)

with M assembled from the local linear response at the attenuated
coupling field omega_c(zeta).  The coupling profile is evaluated in
closed form (Wright omega function) at half-step resolution, so the
fixed-step RK4 transfer-matrix integrator finds its midpoint values on
the same grid.

The transfer-matrix kernel (chi assembly, RK4 step propagators and
their ordered product) runs over tiles of the detuning batch.  A tile
holds max(1, _TILE_ELEMENTS // (2 n_z + 1)) frequencies, laid out
frequency-major so that each numpy operation runs along the grid, and
every operation writes through ``out=`` into the calling thread's
Workspace, a stack in one buffer from which each stage frees its
scratch for the next.  The buffer grows only when a larger tile arrives
and is reused across tiles and calls, so the kernel allocates nothing
per tile.  Freshly allocated megabyte-sized temporaries are mapped from and
returned to the kernel on every operation: without the workspace, one
pass of ``bench/run.py --workload spectra`` took about 2.4 million minor
page faults and one single-point evaluation about 330.  The tile budget
was measured on a 2-core x86_64 host over a serial sweep plus a
two-thread pulse: smaller tiles sit better in cache, but make each
numpy call so short that two threads stop scaling.  The operations and
their operand order are those of the plain expressions, so the results
do not depend on the tile size or the thread count, bit for bit.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy import fft as sfft
from scipy.special import wrightomega

from .config import ConfigBundle, with_mode
from .errors import ConfigValidationError, NumericalError
from .response import Workspace, _chi_arrays, _two_level_arrays

# grid samples x frequencies per tile; see the module docstring
_TILE_ELEMENTS = 65536

_thread = threading.local()   # holds each thread's Workspace


@dataclass(frozen=True)
class CouplingProfile:
    """Coupling Rabi frequency sampled on the half-step spatial grid.

    ``zeta`` and ``omega_c`` have 2*n_steps + 1 entries; even indices are
    the RK4 nodes, odd indices the midpoints.
    """

    zeta: np.ndarray
    omega_c: np.ndarray
    n_steps: int

    def __post_init__(self):
        self.zeta.setflags(write=False)
        self.omega_c.setflags(write=False)


@dataclass(frozen=True)
class Observables:
    """Steady-state transmissions and conversion efficiencies."""

    T_p: float
    eta_s: float
    T_s: float
    eta_p: float


@dataclass(frozen=True)
class TransferMatrix:
    """Frequency-domain map from input to output flux amplitudes.

    (u_p, u_s)_out = [[a, b], [c, d]] (u_p, u_s)_in; a and d preserve the
    mode, b and c convert between probe and signal.
    """

    omega: float
    a: complex
    b: complex
    c: complex
    d: complex

    @property
    def passivity_defect(self) -> float:
        """max(column photon gain, 0); should stay <= ~1e-9 for an
        absorptive medium."""
        col_p = abs(self.a) ** 2 + abs(self.c) ** 2
        col_s = abs(self.b) ** 2 + abs(self.d) ** 2
        return max(col_p - 1.0, col_s - 1.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


def coupling_profile(bundle: ConfigBundle, omega_c0: Optional[complex] = None) -> CouplingProfile:
    """Coupling-field envelope across the medium, in closed form.

    The envelope obeys d omega_c/d zeta = (i gamma31 alpha_c / 2) rho_31
    with the local two-level steady state slaved to omega_c(zeta) (the
    coupling beam reaches steady state long before the probe arrives),
    i.e. d w/d zeta = num * w / (den0 + gamma31 |w|^2).  The ODE is
    separable: with s = |w|^2, a = gamma31 s0/den0 and
    r = 2 Re(num) zeta/den0, x = gamma31 s/den0 solves x + ln x = z with
    z = ln a + a + r, so x is the Wright omega function of z (Corless &
    Jeffrey 2002), and w = w0 exp(num/(2 Re num) * ln(s/s0)).
    """
    if omega_c0 is None:
        if bundle.drive is None:
            raise ConfigValidationError("fields", "this config has no drive fields")
        omega_c0 = bundle.drive.omega_c
    rates, medium = bundle.rates, bundle.medium
    n = medium.n_z
    zeta = np.linspace(0.0, 1.0, 2 * n + 1)
    w0 = complex(omega_c0)
    g31, G3 = rates.gamma31, rates.Gamma3_total
    dc = bundle.drive.delta_c if bundle.drive is not None else 0.0
    # rhs(w) = (i g31 ac / 2) * (i/2) w (1 - 2 rho33) / (g31 - i dc)
    #        = num * w / (den0 + g31 |w|^2),  den0 = G3 (g31^2 + dc^2),
    # num = -(g31 ac / 4) den0 / (g31 - i dc); it vanishes with alpha_c,
    # gamma31 or den0, and then the beam is not absorbed at all
    den0 = G3 * (g31 ** 2 + dc ** 2)
    num = -0.25 * g31 * medium.alpha_c * G3 * (g31 + 1j * dc)
    if w0 == 0.0 or num == 0.0:
        return CouplingProfile(zeta=zeta, omega_c=np.full(zeta.size, w0), n_steps=n)
    ln_a = 2.0 * math.log(abs(w0)) + math.log(g31 / den0)
    a = g31 * abs(w0) ** 2 / den0
    r = (2.0 * num.real / den0) * zeta
    x = wrightomega(ln_a + a + r)
    # x < 1: ln x = z - x, so ln(s/s0) = (a - x) + r, safe even if x underflows;
    # x >= 1: log(x) keeps the digits that a - x would cancel when saturated
    with np.errstate(divide="ignore"):
        log_ratio = np.where(x < 1.0, (a - x) + r, np.log(x) - ln_a)
    omega_c = w0 * np.exp((num / (2.0 * num.real)) * log_ratio)
    return CouplingProfile(zeta=zeta, omega_c=omega_c, n_steps=n)


def _mat_mul(a, b, out, tmp):
    """out = a @ b for 2x2 matrices held as (11, 12, 21, 22) arrays.

    ``out`` must not share memory with ``a`` or ``b``; ``tmp`` has the
    shape of each entry.
    """
    for i in (0, 2):
        for j in (0, 1):
            np.multiply(a[i], b[j], out=out[i + j])
            np.add(out[i + j], np.multiply(a[i + 1], b[j + 2], out=tmp), out=out[i + j])


def _step_propagators(Mpp, Mps, Msp, Mss, h, ws: Workspace):
    """Per-step RK4 propagators R_i for dU/dzeta = M U on the half grid.

    For a linear system the RK4 update is U_{i+1} = R_i U_i with

        k1 = M0;  k2 = Mm (I + h/2 k1);  k3 = Mm (I + h/2 k2)
        k4 = M1 (I + h k3);  R = I + h/6 (k1 + 2k2 + 2k3 + k4)

    where M0, Mm, M1 sample the node, midpoint and next node.  The half
    grid is the last axis of M and the step axis the last axis of R.
    The propagators are taken from ``ws`` and stay taken.
    """
    mats = (Mpp, Mps, Msp, Mss)
    shape = Mpp.shape[:-1] + ((Mpp.shape[-1] - 1) // 2,)
    A0 = tuple(m[..., 0:-2:2] for m in mats)
    Am = tuple(m[..., 1:-1:2] for m in mats)
    A1 = tuple(m[..., 2::2] for m in mats)
    acc = tuple(ws.take(shape) for _ in range(4))
    with ws.frame():
        eye_plus = tuple(ws.take(shape) for _ in range(4))
        k = tuple(ws.take(shape) for _ in range(4))
        tmp = ws.take(shape)

        def next_k(prev, scale, mid):   # k = mid (I + scale prev)
            for dst, src in zip(eye_plus, prev):
                np.multiply(scale, src, out=dst)
            np.add(1.0, eye_plus[0], out=eye_plus[0])
            np.add(1.0, eye_plus[3], out=eye_plus[3])
            _mat_mul(mid, eye_plus, k, tmp)

        next_k(A0, 0.5 * h, Am)                   # k2
        for dst, k1, k2 in zip(acc, A0, k):       # k1 + 2 k2
            np.add(k1, np.multiply(2, k2, out=dst), out=dst)
        next_k(k, 0.5 * h, Am)                    # k3
        for dst, k3 in zip(acc, k):               # ... + 2 k3
            np.add(dst, np.multiply(2, k3, out=tmp), out=dst)
        next_k(k, h, A1)                          # k4
        for dst, k4 in zip(acc, k):               # ... + k4
            np.add(dst, k4, out=dst)
    for dst in acc:                               # R = I + h/6 (...)
        np.multiply(h / 6.0, dst, out=dst)
    np.add(1.0, acc[0], out=acc[0])
    np.add(1.0, acc[3], out=acc[3])
    return acc


def _ordered_product(r11, r12, r21, r22, ws: Workspace):
    """Product R_{n-1} @ ... @ R_0 by pairwise reduction along the last axis.

    Each level writes into the other of two buffer sets taken from
    ``ws``: an ``out=`` that overlaps its inputs would make numpy copy
    them.  The inputs are not modified.
    """
    cur = (r11, r12, r21, r22)
    n = r11.shape[-1]
    shape = r11.shape[:-1] + ((n + 1) // 2,)
    sets = [tuple(ws.take(shape) for _ in range(4)) for _ in range(2)]
    tmp = ws.take(shape[:-1] + (n // 2,))
    while n > 1:
        m = n // 2
        dst = tuple(x[..., :m + n % 2] for x in sets[0])
        head = tuple(x[..., 1:2 * m:2] for x in cur)
        tail = tuple(x[..., 0:2 * m:2] for x in cur)
        _mat_mul(head, tail, tuple(x[..., :m] for x in dst), tmp[..., :m])
        if n % 2:
            for x, src in zip(dst, cur):
                x[..., m] = src[..., n - 1]
        cur, n = dst, m + n % 2
        sets.reverse()
    return tuple(x[..., 0] for x in cur)


def _workspace() -> Workspace:
    """The calling thread's Workspace, made on its first use."""
    ws = getattr(_thread, "workspace", None)
    if ws is None:
        ws = _thread.workspace = Workspace()
    return ws


def _transfer_components(bundle: ConfigBundle, profile: CouplingProfile,
                         delta_p, omega, step_range=None, threads: int = 1):
    """Transfer-matrix entries (a, b, c, d) for arrays of detuning pairs.

    ``delta_p`` and ``omega`` are broadcast to a common 1-D batch; the
    result arrays have that batch shape.  ``step_range`` selects a slice
    [i0, i1) of the n_z RK4 steps (used for compositionality checks).
    Raises NumericalError if any entry is not finite.
    """
    if bundle.drive is None:
        raise ConfigValidationError("fields", "this config has no drive fields")
    rates, medium, drive = bundle.rates, bundle.medium, bundle.drive
    delta_p, omega = np.broadcast_arrays(np.atleast_1d(np.asarray(delta_p, float)),
                                         np.atleast_1d(np.asarray(omega, float)))
    n = profile.n_steps
    i0, i1 = step_range if step_range is not None else (0, n)
    if not (0 <= i0 <= i1 <= n):
        raise ValueError(f"step range {(i0, i1)} outside [0, {n}]")
    h = 1.0 / n

    wc = profile.omega_c[2 * i0:2 * i1 + 1]
    rho33, rho31 = _two_level_arrays(wc, drive.delta_c, rates.gamma31, rates.Gamma3_total)
    rho11 = 1.0 - rho33
    rho13 = np.conj(rho31)

    cp = 0.5 * rates.gamma21 * medium.alpha_p
    cs = 0.5 * rates.gamma43 * medium.alpha_s
    cx = 0.5 * math.sqrt(rates.gamma21 * medium.alpha_p * rates.gamma43 * medium.alpha_s)
    couplings = (1j * cp, 1j * cx, 1j * cx, 1j * cs)

    out = [np.empty(delta_p.shape, dtype=np.complex128) for _ in range(4)]

    def run_tile(sl):
        ws = _workspace()
        ws.reset()
        # an overflow shows as a non-finite output, which the guard below
        # reports once; errstate is set here because it is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            chi = _chi_arrays(wc, rho11, rho13, rho31, rho33,
                              delta_p[sl][:, None], omega[sl][:, None],
                              drive.delta_c, drive.delta_d, drive.omega_d, rates, ws=ws)
            mats = [np.multiply(k, x, out=x) for k, x in zip(couplings, chi)]   # M = i c chi
            props = _step_propagators(*mats, h, ws=ws)
            comps = (1.0, 0.0, 0.0, 1.0) if i1 == i0 else _ordered_product(*props, ws=ws)
            for dst, src in zip(out, comps):
                dst[sl] = src

    per_tile = max(1, _TILE_ELEMENTS // wc.size)
    slices = [slice(k, min(k + per_tile, delta_p.size))
              for k in range(0, delta_p.size, per_tile)]
    if threads > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_tile, slices))
    else:
        for sl in slices:
            run_tile(sl)
    if not all(np.isfinite(x).all() for x in out):
        raise NumericalError(
            f"transfer matrix is not finite at OD {medium.od:g} with medium.n_z = "
            f"{medium.n_z}; the RK4 step is too coarse for this optical depth "
            "(raise medium.n_z)")
    return tuple(out)


def transfer_matrix(omega: float, bundle: ConfigBundle,
                    profile: Optional[CouplingProfile] = None,
                    delta_p: Optional[float] = None,
                    zeta_span=(0.0, 1.0)) -> TransferMatrix:
    """Transfer matrix at one sideband frequency.

    ``zeta_span`` is snapped to the nearest RK4 step boundaries; the
    default covers the whole medium.
    """
    if profile is None:
        profile = coupling_profile(bundle)
    if delta_p is None:
        delta_p = bundle.drive.delta_p if bundle.drive is not None else 0.0
    n = profile.n_steps
    i0 = round(zeta_span[0] * n)
    i1 = round(zeta_span[1] * n)
    a, b, c, d = _transfer_components(bundle, profile, [delta_p], [omega],
                                      step_range=(i0, i1))
    return TransferMatrix(omega=float(omega), a=complex(a[0]), b=complex(b[0]),
                          c=complex(c[0]), d=complex(d[0]))


def observables_at(bundle: ConfigBundle, delta_p: Optional[float] = None,
                   omega: float = 0.0,
                   profile: Optional[CouplingProfile] = None) -> Observables:
    """Steady-state observables T_p = |a|^2, eta_s = |c|^2, T_s = |d|^2,
    eta_p = |b|^2 at the carrier detuning."""
    tm = transfer_matrix(omega, bundle, profile=profile, delta_p=delta_p)
    return Observables(T_p=abs(tm.a) ** 2, eta_s=abs(tm.c) ** 2,
                       T_s=abs(tm.d) ** 2, eta_p=abs(tm.b) ** 2)


@dataclass(frozen=True)
class SpectrumTable:
    """Swept steady-state observables, one row per probe detuning."""

    mode: str
    delta_p: np.ndarray
    T_p: np.ndarray
    eta_s: np.ndarray
    T_s: np.ndarray
    eta_p: np.ndarray
    linewidth: Optional[float] = None
    T_p_conv: Optional[np.ndarray] = None
    eta_s_conv: Optional[np.ndarray] = None

    def columns(self):
        cols = {"delta_p_over_gamma": self.delta_p, "T_p": self.T_p,
                "eta_s": self.eta_s, "T_s": self.T_s, "eta_p": self.eta_p}
        if self.T_p_conv is not None:
            cols["T_p_conv"] = self.T_p_conv
            cols["eta_s_conv"] = self.eta_s_conv
        return cols

    def peak_delta_p(self, column: str = "T_p") -> float:
        """Location of the highest interior local maximum of a column.

        Off-resonant transmission rises toward the sweep edges, so the
        physically meaningful transparency/conversion peak is the best
        interior local maximum; if none exists the global argmax is
        returned.
        """
        y = getattr(self, column)
        return float(self.delta_p[_peak_index(y)])


def _peak_index(y: np.ndarray) -> int:
    if y.size < 3:
        return int(np.argmax(y))
    interior = np.where((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    if interior.size == 0:
        return int(np.argmax(y))
    return int(interior[np.argmax(y[interior])])


def lorentzian_convolve(x: np.ndarray, y: np.ndarray, fwhm: float) -> np.ndarray:
    """Convolve samples on a uniform grid with a unit-area Lorentzian.

    The kernel is renormalized over the in-range samples at every point,
    so a constant input is returned unchanged at the edges.  On a
    uniform grid the kernel depends only on the index offset, so the
    weighted sum and its normalization are both FFT convolutions, in
    O(N) memory.  Raises ValueError if ``x`` is not uniformly spaced.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return np.array(y, dtype=float)
    step = (x[-1] - x[0]) / (n - 1)
    if not np.allclose(np.diff(x), step, rtol=1e-6, atol=0.0):
        raise ValueError("lorentzian_convolve needs uniformly spaced x")
    half = 0.5 * fwhm
    offsets = step * np.arange(1 - n, n)
    kernel = half / (offsets ** 2 + half ** 2)   # 1/pi absorbed by normalization
    size = sfft.next_fast_len(3 * n - 2, real=True)
    kernel_f = sfft.rfft(kernel, size)

    def weighted_sum(v):   # sum_j kernel(x_i - x_j) v_j
        return sfft.irfft(sfft.rfft(v, size) * kernel_f, size)[n - 1:2 * n - 1]

    return weighted_sum(np.asarray(y, dtype=float)) / weighted_sum(np.ones(n))


def spectrum_sweep(mode: str, bundle: ConfigBundle, start: Optional[float] = None,
                   stop: Optional[float] = None, step: Optional[float] = None,
                   linewidth: Optional[float] = None, threads: int = 1) -> SpectrumTable:
    """Sweep the probe detuning at omega = 0 in one of the four modes.

    Modes zero out strong fields: v_type drops the driving field,
    cascade drops the coupling field, two_level drops both, fwm keeps
    the configured drive.  When ``linewidth`` (or the config's
    sweep.linewidth) is set, T_p and eta_s are additionally convolved
    with a Lorentzian of that FWHM and emitted as extra columns.
    """
    given = (("start", start), ("stop", stop), ("step", step), ("linewidth", linewidth))
    # replace() re-runs SweepOptions validation on the mode and overrides
    sweep = replace(bundle.sweep, mode=mode,
                    **{k: float(v) for k, v in given if v is not None})
    n_pts = int(math.floor((sweep.stop - sweep.start) / sweep.step + 1e-9)) + 1
    if n_pts < 1:
        raise ConfigValidationError("sweep.from",
                                    f"empty sweep range [{sweep.start}, {sweep.stop}]")
    delta_ps = sweep.start + sweep.step * np.arange(n_pts)

    run = with_mode(bundle, mode)
    profile = coupling_profile(run)
    a, b, c, d = _transfer_components(run, profile, delta_ps,
                                      np.zeros_like(delta_ps), threads=threads)
    table = SpectrumTable(mode=mode, delta_p=delta_ps,
                          T_p=np.abs(a) ** 2, eta_s=np.abs(c) ** 2,
                          T_s=np.abs(d) ** 2, eta_p=np.abs(b) ** 2)
    if sweep.linewidth is not None:
        table = replace(table, linewidth=sweep.linewidth,
                        T_p_conv=lorentzian_convolve(delta_ps, table.T_p, sweep.linewidth),
                        eta_s_conv=lorentzian_convolve(delta_ps, table.eta_s, sweep.linewidth))
    return table
