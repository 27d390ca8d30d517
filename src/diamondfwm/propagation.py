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
coupling field omega_c(zeta).  The coupling profile, with the
two-level state it drives, is evaluated once in closed form at the three
Gauss-Legendre nodes of each of the n_z steps, through the real Wright
omega function, computed here by the Fritsch-Shafer-Crowley iteration
(Fritsch, Shafer & Crowley, CACM 16 (1973) 123; Lawrence, Corless &
Jeffrey, ACM TOMS 38 (2012) 20, Algorithm 917).  Each step's
propagator is exp(Omega) with Omega the sixth-order Magnus expansion
built from M at those three nodes (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009), section 4).  The 2x2 exponential of
Omega = t I + N (N traceless, N^2 = q^2 I) is e^(i Im t) times
e^(Re t) (cosh q I + sinh(q)/q N): where |q^2| is small, as on every
step at the presets, cosh q - 1 and sinh(q)/q are short series in q^2
and e^(Re t) is a real exponential, so no step takes a complex sinh,
cosh, sqrt or exp; elsewhere the closed form e^(Re t +- q) is taken on
those lanes alone, the standard split of a small matrix's exponential
(Moler & Van Loan, SIAM Rev. 45 (2003) 3).  The phases e^(i Im t)
commute with every step, so each frequency's product takes their sum
once.  The method is of sixth order, so 256 steps reach the
accuracy that fixed-step RK4 needed 2000 steps for at the presets;
above OD ~300 the grid must grow with the optical depth (README,
"Spatial grid").  Two kinds of medium skip the steps' product, exactly
in exact arithmetic.  Where M is diagonal (no FWM loop: omega_d = 0 or
omega_c = 0, as in the v_type, cascade and two_level modes) every
commutator vanishes, and each channel's transfer is the exponential of
the Gauss quadrature of its entry over all steps; where omega_d = 0,
chi solves its two blocks alone.  Where no profile row absorbs the
coupling beam, M is the same at every node, and the whole span is one
step.

The transfer-matrix kernel (chi assembly, step propagators and their
ordered product) runs over tiles of the detuning batch; one drive is a
batch of one that all detunings share.  Each tile passes chi its
frequencies and its drive rows' slice of the profile and of the drive,
for a DriveBatch as for one drive; chi forms its terms from them, so
they last one tile.  A tile holds max(1, _TILE_ELEMENTS // (3 n))
frequencies on n steps (n_z, or 1 for a uniform medium), laid out as
(entry, Gauss node, frequency, step): the four entries of each 2x2
matrix, or the three of a traceless part, are one block, so that one
numpy call covers them and runs along the steps.  Every operation
writes through ``out=`` into the calling thread's Workspace, a stack in
one buffer from which each stage frees its scratch for the next; it
grows only when a larger tile arrives, so no array of a tile's full
size is allocated per tile.  A call runs its tiles in order on the
calling thread, in that one Workspace (4.56 MB at the default grid), so
a warm call allocates under 1 MB; ``threads`` starts no thread, as two
threads no longer beat one on the sampled pulse.  Plain expressions map
and unmap their temporaries on every operation: on a 2-core x86_64
host at 16,384 elements per tile, a 1,001-row fig3 sweep took 473 ms
against 303 ms (59 k minor page faults against 5) and a one-thread
4,096-frequency pulse 2.2 s against 1.2 s (258 k faults); at 4,096
elements the sweep's faults vanish, but a two-thread pulse took 2.8 s
against 0.95 s.  The operations and their operand order are those of
the plain expressions, so the results do not depend on the tile size,
bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .config import (MAX_MAGNITUDE, POSITIVE, ConfigBundle, DriveConfig, _check_numbers,
                     _require, _schema, absorptions, with_mode)
from .errors import ConfigValidationError, NumericalError
from .response import _UNPHYSICAL, Workspace, _chi_arrays, _physical, _two_level_arrays

# chi samples x frequencies per tile; see the module docstring
_TILE_ELEMENTS = 16384

# Gauss-Legendre nodes of one step, as fractions of it, and their weights
_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)
_W_OUTER, _W_MID = 5.0 / 18.0, 4.0 / 9.0

# largest column photon gain |a|^2 + |c|^2 or |b|^2 + |d|^2 accepted as
# passive; the tolerance of `diamondfwm validate`
PASSIVITY_TOL = 1e-9

_thread = threading.local()   # holds each thread's Workspace


@dataclass(frozen=True)
class CouplingProfile:
    """The kernel's zeroth-order input: the coupling Rabi frequency and
    the two-level state it drives, at the Gauss-Legendre nodes.

    ``omega_c``, ``rho33`` and ``rho31`` are (node, row, step) arrays,
    one row for a DriveConfig and one per point of a DriveBatch; ``zeta``
    is (node, 1, step).  Node 1 is the midpoint of each of the n_steps.
    ``_uniform`` marks a profile in which no row's beam is absorbed, so
    that every node holds the same values.
    """

    zeta: np.ndarray
    omega_c: np.ndarray
    rho33: np.ndarray
    rho31: np.ndarray
    n_steps: int
    _uniform: bool = False

    def __post_init__(self):
        for v in (self.zeta, self.omega_c, self.rho33, self.rho31):
            v.setflags(write=False)


@dataclass(frozen=True)
class DriveBatch:
    """K drive points solved side by side, one probe detuning each.

    Each field is a (K,) float array whose entry k is that field of
    point k.  DriveConfig's fields are checked in its order, each with
    its range, so a field with an entry outside the domain raises the
    keyed error that DriveConfig gives for its first bad entry alone; one
    that is not a 1-D array as long as omega_c raises ConfigValidationError
    naming its ``fields.`` key.  A bundle with a DriveBatch as its drive
    gets one coupling-profile row per point, and ``_transfer_components``
    pairs point k with detuning k.
    """

    omega_c: np.ndarray
    omega_d: np.ndarray
    delta_p: np.ndarray
    delta_c: np.ndarray
    delta_d: np.ndarray

    def __post_init__(self):
        for key, (f, _, _) in _schema(DriveConfig).items():
            v = _check_numbers(f"fields.{key}", getattr(self, f.name),
                               f.metadata.get("low", -MAX_MAGNITUDE), scalar=False)
            if v.ndim != 1 or v.size != np.size(self.omega_c):
                raise ConfigValidationError(f"fields.{key}", "must be a 1-D array as long as "
                                            f"fields.omega_c, got shape {v.shape}")
            object.__setattr__(self, f.name, v.astype(float, copy=False))

    @classmethod
    def stack(cls, drives) -> "DriveBatch":
        return cls(*(np.array([getattr(d, f.name) for d in drives], float)
                     for f in fields(cls)))


@dataclass(frozen=True)
class Observables:
    """Steady-state transmissions and conversion efficiencies; arrays for a batch."""

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

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])


def _wright_omega(z: np.ndarray) -> np.ndarray:
    """Real Wright omega function: the w solving w + ln w = z, elementwise.

    Algorithm 917 (Lawrence, Corless & Jeffrey 2012) on the real line:
    the initial guess e^z below z = -2, e^(2(z - 1)/3) on [-2, 1) and
    z - ln z + ln z / z above, then two Fritsch-Shafer-Crowley steps
    (Fritsch, Shafer & Crowley 1973), each of fourth order.  Below
    z = -50, w = e^z to double precision (it may underflow to 0); above
    z = 1e20, w = z.  The iteration runs on z clipped to [-50, 1e20], so
    that no lane under- or overflows into a warning.
    """
    zc = np.clip(z, -50.0, 1e20)
    zl, zh = np.minimum(zc, 1.0), np.maximum(zc, 1.0)   # each guess's lanes, kept in its range
    ln = np.log(zh)
    w = np.where(zc < 1.0, np.exp(np.where(zc < -2.0, zc, 2.0 * (zl - 1.0) / 3.0)),
                 zh - ln + ln / zh)
    for _ in range(2):
        r = zc - w - np.log(w)
        wp1 = w + 1.0
        t = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
        w = w * (1.0 + r / wp1 * (t - r) / (t - 2.0 * r))
    return np.where(z < -50.0, np.exp(np.minimum(z, -50.0)), np.where(z > 1e20, z, w))


def coupling_profile(bundle: ConfigBundle) -> CouplingProfile:
    """Coupling-field envelope across the medium, in closed form.

    The envelope obeys d omega_c/d zeta = (i gamma31 alpha_c / 2) rho_31
    with the local two-level steady state slaved to omega_c(zeta) (the
    coupling beam reaches steady state long before the probe arrives),
    i.e. d w/d zeta = num * w / (den0 + gamma31 |w|^2).  The ODE is
    separable: with s = |w|^2, a = gamma31 s0/den0 and
    r = 2 Re(num) zeta/den0, x = gamma31 s/den0 solves x + ln x = z with
    z = ln a + a + r, so x is the Wright omega function of z (Corless &
    Jeffrey 2002), evaluated by ``_wright_omega`` (Fritsch-Shafer-Crowley
    iteration, Algorithm 917), and w = w0 exp(num/(2 Re num) * ln(s/s0)).

    Every drive quantity is a numpy expression on (row, 1) columns, so a
    DriveConfig is a batch of one and a profile row equals the profile
    of its drive alone, bit for bit.  One ``_two_level_arrays`` call
    gives the state at all nodes.  The inputs are within MAX_MAGNITUDE,
    so nothing overflows but over a den0 that tiny rates underflow.  A
    row whose state leaves its physical bounds (``response._physical``),
    as it does where its profile leaves the float range, raises
    NumericalError naming fields.omega_c, fields.delta_c,
    rates.Gamma3_total and rates.gamma31.
    """
    if bundle.drive is None:
        raise ConfigValidationError("fields", "this config has no drive fields")
    rates, medium, drive = bundle.rates, bundle.medium, bundle.drive
    n = medium.n_z
    zeta = ((np.arange(n) + np.array(_NODES)[:, None]) / n)[:, None]   # (node, 1, step)
    g31, G3 = rates.gamma31, rates.Gamma3_total
    wc0, dc = (np.reshape(v, (-1, 1)) for v in (drive.omega_c, drive.delta_c))
    # rhs(w) = (i g31 ac / 2) * (i/2) w (1 - 2 rho33) / (g31 - i dc)
    #        = num * w / (den0 + g31 |w|^2),  den0 = G3 (g31^2 + dc^2),
    # num = -(g31 ac / 4) den0 / (g31 - i dc).  |ln(w/w0)| <= |num| / (den0 + g31 |w0|^2)
    # across the medium, so where that is below rounding (num vanishes with
    # alpha_c, gamma31 or Gamma3, or underflows) the beam keeps w = w0
    s0, den0 = np.square(wc0), G3 * (g31 ** 2 + np.square(dc))
    num = -0.25 * g31 * absorptions(rates, medium)[0] * G3 * (g31 + 1j * dc)
    omega_c = np.broadcast_to(wc0, (3, wc0.shape[0], n)).astype(complex, order="C")
    k = ((wc0 != 0.0) & (np.abs(num) > 1e-16 * (den0 + g31 * s0)))[:, 0]   # absorbed rows
    w0, s0, den0, num = wc0[k], s0[k], den0[k], num[k]
    with np.errstate(all="ignore"):   # a row beyond the float range comes out non-finite
        ln_a = 2.0 * np.log(np.abs(w0)) + np.log(g31 / den0)
        a = g31 * s0 / den0
        r = 2.0 * num.real / den0 * zeta
        x = _wright_omega(ln_a + a + r)
        # x < 1: ln x = z - x, so ln(s/s0) = (a - x) + r, safe even if x underflows;
        # x >= 1: log(x) keeps the digits that a - x would cancel when saturated
        log_ratio = np.where(x < 1.0, (a - x) + r, np.log(x) - ln_a)
        omega_c[:, k] = w0 * np.exp(num / (2.0 * num.real) * log_ratio)
    rho33, rho31 = _two_level_arrays(omega_c, dc, g31, G3)
    bad = ~_physical(rho33, rho31).all(axis=(0, 2))   # also where omega_c is not finite
    if bad.any():
        raise NumericalError(
            "the coupling beam's saturation is too large for the float range at fields.omega_c "
            f"= {wc0[bad][0, 0]:g}, fields.delta_c = {dc[bad][0, 0]:g}, "
            f"rates.Gamma3_total = {G3:g} and rates.gamma31 = {g31:g}, {_UNPHYSICAL}")
    return CouplingProfile(zeta=zeta, omega_c=omega_c, rho33=rho33, rho31=rho31, n_steps=n,
                           _uniform=not k.any())


def _mat_mul(a, b, out, tmp):
    """out = a @ b for 2x2 matrices held as (2, 2, ...) arrays:
    out[i, j] = a[i, 0] b[0, j] + a[i, 1] b[1, j].

    ``out`` must not share memory with ``a`` or ``b``; ``tmp`` has the
    shape of ``out``.
    """
    np.multiply(a[:, :1], b[:1], out=out)
    np.add(out, np.multiply(a[:, 1:], b[1:], out=tmp), out=out)


def _comm(a, b, scale, out, tmp):
    """out = scale [a, b] for traceless 2x2 matrices held as (x, y, z),
    the matrix [[x, y], [z, -x]], stacked on the first axis:

        [a, b] = (a_y b_z - b_y a_z, 2 (a_x b_y - b_x a_y), 2 (a_z b_x - b_z a_x))

    ``scale`` is the vector (s, 2 s, 2 s) of the scalar s, shaped to
    broadcast along the first axis (see ``_comm_scales``).  ``out`` must
    not share memory with ``a`` or ``b``; ``tmp`` has the shape of one
    component.
    """
    terms = ((a[1], b[2], b[1], a[2]), (a[0], b[1], b[0], a[1]), (a[2], b[0], b[2], a[0]))
    for dst, (p, q, r, s) in zip(out, terms):
        np.multiply(p, q, out=dst)
        np.subtract(dst, np.multiply(r, s, out=tmp), out=dst)
    np.multiply(out, scale, out=out)


def _comm_scales(h):
    """``_comm``'s scale vectors for (3, freq, step) blocks in a Magnus
    step of length h: those of [a1, a2], of [a1, 2 a3 + [a1, a2]] / 60 and
    of the outer commutator / 240 (see ``_step_propagators``)."""
    s = np.array((h * (math.sqrt(15.0) * h / 3.0), h / 60.0, 1.0 / 240.0))
    return np.multiply.outer(s, (1.0, 2.0, 2.0)).reshape(3, 3, 1, 1)


def _gauss_sum(c1, c2, c3, out, s13, scratch):
    """out = 5/18 (c1 + c3) + 4/9 c2, the Gauss-Legendre sum over one
    step's nodes, leaving c1 + c3 in ``s13`` (which may be ``out``);
    ``scratch`` has the shape of ``out``.  Returns ``out``."""
    np.add(c1, c3, out=s13)
    np.multiply(s13, _W_OUTER, out=out)
    return np.add(out, np.multiply(c2, _W_MID, out=scratch), out=out)


def _step_propagators(M, h, scales, ws: Workspace):
    """Per-step propagators for dU/dzeta = M U, and the phase that they
    leave out.

    ``M`` is one (4, node, freq, step) block holding the entries
    (11, 12, 21, 22) of M at the three Gauss nodes of each step, and
    ``scales`` are ``_comm_scales(h)``.  With A_k = M at node k of a
    step, the sixth-order Magnus term is

        a1 = h A_2,  a2 = (sqrt(15) h / 3)(A_3 - A_1),
        a3 = (10 h / 3)(A_3 - 2 A_2 + A_1),
        Omega = a1 + a3/12 + (1/240) [-20 a1 - a3 + [a1, a2],
                                      a2 - (1/60) [a1, 2 a3 + [a1, a2]]]

    whose identity part t I is h times the Gauss quadrature of tr(M)/2
    (commutators are traceless).  The step's propagator is
    exp(Omega) = e^(i Im t) R with R = exp(Re t I + N), N = Omega - t I;
    ``_exp_terms`` gives R.  A scalar phase commutes with every step, so
    the product of the exp(Omega) is e^(i Phi) times that of the R, with
    Phi the sum of Im t over the steps: each frequency's phase is taken
    once, from real cos and sin.  ``M[0]`` is overwritten.  The R come
    back as one (4, freq, step) block and the phases e^(i Phi) as one
    (freq,) array, both taken from ``ws``, which stay taken.  Each
    frequency's sum runs along its own steps, so it does not depend on
    the tile.
    """
    shape, comps = M.shape[2:], (3,) + M.shape[2:]
    h_a2, h_a3 = math.sqrt(15.0) * h / 3.0, 10.0 * h / 3.0
    mul, add, sub = np.multiply, np.add, np.subtract
    R, phase = ws.take((4,) + shape), ws.take(shape[:-1])
    with ws.frame():
        tmp, tmp2 = ws.take(comps), ws.take(comps)
        # half trace at each node; then M[0] becomes the traceless x, so
        # that M[:3, k] is the traceless part (x, y, z) of M at node k
        tau = mul(add(M[0], M[3], out=ws.take(M.shape[1:])), 0.5, out=ws.take(M.shape[1:]))
        mul(sub(M[0], M[3], out=M[0]), 0.5, out=M[0])
        A1, A2, A3 = (M[:3, k] for k in range(3))
        t, omega, b2, b3 = ws.take(shape), ws.take(comps), ws.take(comps), ws.take(comps)
        mul(_gauss_sum(*tau, t, tmp[0], tmp2[0]), h, out=t)
        mul(_gauss_sum(A1, A2, A3, omega, b3, tmp2), h, out=omega)   # b3 = A1 + A3
        sub(A3, A1, out=b2)                              # a2 / h_a2
        sub(b3, mul(A2, 2.0, out=tmp), out=b3)           # a3 / h_a3
        c, u, w = ws.take(comps), ws.take(comps), ws.take(comps)
        _comm(A2, b2, scales[0], c, tmp[0])              # [a1, a2]
        sub(c, mul(A2, 20.0 * h, out=u), out=u)          # u = -20 a1 + [a1, a2]
        sub(u, mul(b3, h_a3, out=tmp), out=u)            #     - a3
        add(c, mul(b3, 2.0 * h_a3, out=w), out=w)        # w = 2 a3 + [a1, a2]
        _comm(A2, w, scales[1], c, tmp[0])
        sub(mul(b2, h_a2, out=b2), c, out=b2)            # v = a2 - [a1, w] / 60
        _comm(u, b2, scales[2], c, tmp[0])
        nx, ny, nz = add(omega, c, out=omega)
        phi = np.sum(t.imag, axis=-1, out=ws.take(shape[:-1], np.float64))
        np.cos(phi, out=phase.real)
        np.sin(phi, out=phase.imag)
        D, S = R[1], R[2]   # overwritten last, below
        re_t = ws.take(shape, np.float64)
        np.copyto(re_t, t.real)
        _exp_terms(re_t, nx, ny, nz, D, S, ws)
        mul(S, nx, out=tmp[0])
        add(add(D, tmp[0], out=R[0]), 1.0, out=R[0])
        add(sub(D, tmp[0], out=R[3]), 1.0, out=R[3])
        mul(S, ny, out=R[1])
        mul(S, nz, out=R[2])
    return R, phase


# cosh q - 1 = z (1/2! + z/4! + ...) and sinh(q)/q = 1/1! + z/3! + ... in
# z = q^2, each through z^5, as (power, series, freq, step) coefficients;
# for |z| <= _SERIES_BOUND the first term left out is below 1e-17
_SERIES = np.array([[1.0 / math.factorial(2 * k + 2), 1.0 / math.factorial(2 * k + 1)]
                    for k in range(6)], complex).reshape(6, 2, 1, 1)
_SERIES_BOUND = 1.0 / 16.0


def _exp_terms(tau, nx, ny, nz, D, S, ws: Workspace):
    """D and S of exp(tau I + N) = I + D I + S N for real ``tau`` and the
    traceless N = (nx, ny, nz), written into ``D`` and ``S``.

    With q^2 = N_11^2 + N_12 N_21 (N^2 = q^2 I),

        D = expm1(tau) cosh q + (cosh q - 1),  S = e^tau sinh(q)/q,

    which has no cancellation near the identity, so a channel the medium
    does not couple stays exactly 1.  Where |q^2| <= _SERIES_BOUND,
    cosh q - 1 and sinh(q)/q are their series in q^2, summed by Horner's
    rule on the two at once, and e^tau and expm1(tau) are real.  Beyond
    the bound, where the truncated series no longer holds to round-off,
    D = (e^(tau+q) + e^(tau-q))/2 - 1 and S = (e^(tau+q) - e^(tau-q))/(2q)
    on those lanes alone; this form neither cancels with Re q large (a
    strongly absorbed channel next to a clear one) nor overflows where
    cosh q would.  The arrays are (freq, step).
    """
    mul, add = np.multiply, np.add
    shape = tau.shape
    with ws.frame():
        z, series, decay = ws.take(shape), ws.take((2,) + shape), ws.take((2,) + shape)
        add(mul(nx, nx, out=z), mul(ny, nz, out=D), out=z)   # q^2
        np.copyto(series, _SERIES[-1])
        for c in _SERIES[-2::-1]:
            add(mul(series, z, out=series), c, out=series)
        ch, sh = series                                   # cosh q - 1, sinh(q)/q
        mul(ch, z, out=ch)
        # e^tau and expm1(tau), held as complex: numpy multiplies a complex
        # array by a real one through a cast, at half the speed
        decay.imag = 0.0
        np.exp(tau, out=decay[0].real)
        np.expm1(tau, out=decay[1].real)
        mul(decay[1], add(ch, 1.0, out=D), out=D)         # expm1(tau) cosh q
        add(D, ch, out=D)
        mul(sh, decay[0], out=S)
        far = np.greater(np.abs(z, out=ws.take(shape, np.float64)), _SERIES_BOUND,
                         out=ws.take(shape, np.bool_))
        if far.any():
            tw, qw = tau[far], np.sqrt(z[far])
            up, down = np.exp(tw + qw), np.exp(tw - qw)
            D[far] = (up + down) * 0.5 - 1.0
            S[far] = (up - down) * 0.5 / qw


def _ordered_product(R, ws: Workspace):
    """Product R_{n-1} @ ... @ R_0 by pairwise reduction along the last axis.

    ``R`` is one (4, ..., step) block of entries (11, 12, 21, 22); the
    result is one (4, ...) block.  Each level writes into the other of
    two buffers taken from ``ws``: an ``out=`` that overlaps its inputs
    would make numpy copy them.  ``R`` is not modified.
    """
    n = R.shape[-1]
    shape = (2, 2) + R.shape[1:-1] + ((n + 1) // 2,)
    bufs = [ws.take(shape), ws.take(shape)]
    tmp = ws.take(shape[:-1] + (n // 2,))
    cur = R.reshape(shape[:-1] + (n,))
    while n > 1:
        m = n // 2
        dst = bufs[0][..., :m + n % 2]
        _mat_mul(cur[..., 1:2 * m:2], cur[..., 0:2 * m:2], dst[..., :m], tmp[..., :m])
        if n % 2:
            dst[..., m] = cur[..., n - 1]
        cur, n = dst, m + n % 2
        bufs.reverse()
    return cur[..., 0].reshape(R.shape[:-1])


def _diagonal_propagator(M, h, ws: Workspace):
    """Transfer matrix of a diagonal M, whose Magnus commutators all vanish.

    The propagator over the steps is then exp of the Gauss quadrature of
    M over all of them: entries 11 and 22 are
    exp(h sum_steps (5/18 (M_1 + M_3) + 4/9 M_2)), and 12 and 21 are 0.
    The exponential is taken entry by entry, so a channel the medium does
    not couple stays exactly 1 and one absorbed beyond the float range
    goes to exactly 0.  ``M`` is one (4, node, freq, step) block as in
    ``_step_propagators``; the result is one (4, freq) block taken from
    ``ws``, which stays taken.  Each frequency's sum runs along its own
    steps, so it does not depend on the tile.
    """
    d = M[::3]   # entries 11 and 22, (2, node, freq, step)
    R = ws.take((4,) + M.shape[2:-1])
    R[1:3] = 0.0
    diag = R[::3]
    with ws.frame():
        quad = ws.take(d[:, 0].shape)
        _gauss_sum(d[:, 0], d[:, 1], d[:, 2], quad, quad, ws.take(quad.shape))
        np.sum(quad, axis=-1, out=diag)
    np.exp(np.multiply(diag, h, out=diag), out=diag)
    return R


def _response_gain(M, h):
    """The most column photon gain that the exact transfer of M (one
    (4, node, 1, step) block as in ``_step_propagators``) can give:
    e^(2 int lambda+) - 1, with lambda+ the largest eigenvalue of M's
    Hermitian part where it is positive, since d|u|^2 <= 2 lambda |u|^2 dzeta.
    Where M + M^H <= 0 at every node the exact transfer is a contraction,
    and any gain is the steps' error."""
    h11, h22 = M[0].real, M[3].real
    lam = 0.5 * (h11 + h22) + np.hypot(0.5 * (h11 - h22), 0.5 * np.abs(M[1] + np.conj(M[2])))
    lam = np.maximum(lam, 0.0)
    return math.expm1(2.0 * h * float(np.sum(_W_OUTER * (lam[0] + lam[2]) + _W_MID * lam[1])))


def _workspace() -> Workspace:
    """The calling thread's Workspace, made on its first use."""
    ws = getattr(_thread, "workspace", None)
    if ws is None:
        ws = _thread.workspace = Workspace()
    return ws


def _transfer_components(bundle: ConfigBundle, profile: CouplingProfile,
                         delta_p, omega, step_range=None, threads: int = 1):
    """Transfer-matrix entries for arrays of detuning pairs, as one
    (4, batch) array whose rows are a, b, c and d.

    ``delta_p`` and ``omega`` (scalars or 1-D arrays of numbers within
    +-MAX_MAGNITUDE; ConfigValidationError, keyed fields.delta_p or omega,
    names an entry outside that domain, and ValueError an array of higher
    rank) are broadcast to a common 1-D batch.  The sideband
    frequency shifts every detuning of the response alike, so the kernel
    sees only delta_p + omega.  The bundle's drive, which its
    callers check is set, and ``profile``, its coupling profile with the
    two-level state, have one row per point of a DriveBatch or one for a
    DriveConfig; entry k of the batch is solved at row k, or at the only
    row (ValueError if neither fits).  ``step_range`` selects a slice
    [i0, i1) of the n_z steps (used for compositionality checks).  Raises
    NumericalError if any entry is not finite or any column gains
    photons, |a|^2 + |c|^2 or |b|^2 + |d|^2 above 1 + PASSIVITY_TOL.

    Two reductions, exact in exact arithmetic, are decided once per call
    from the drive, the medium and the profile:

    - M is diagonal when the cross coupling vanishes or every drive point
      has omega_d = 0 or omega_c = 0 (the v_type, cascade and two_level
      modes).  Every commutator is then zero, and ``_diagonal_propagator``
      takes one exponential per channel instead of the step propagators
      and their ordered product.
    - M is the same at every node when no profile row absorbs the
      coupling beam.  The span [i0, i1) is then one step of length
      (i1 - i0) / n_z, so each frequency needs 3 chi samples.

    A DriveBatch that mixes diagonal points with others takes the general
    path for all of its rows, and whether chi has an FWM loop is decided
    once per call, so that every tile takes the same branch.  Each tile
    passes ``_chi_arrays`` its frequencies and its drive rows' slice of
    the profile and of the drive, as does the passivity guard at the
    column of most gain.

    The tiles run in order on the calling thread, in its Workspace, and
    the first tile that raises ends the call.  ``threads`` starts no
    thread and changes nothing; the CLI's ``--threads`` passes it.
    """
    rates, medium, drive = bundle.rates, bundle.medium, bundle.drive
    detunings = {"fields.delta_p": delta_p, "omega": omega}
    for name, v in detunings.items():
        v = detunings[name] = _check_numbers(name, v, scalar=False).astype(float, copy=False)
        if v.ndim > 1:
            raise ValueError(f"{name} must be a scalar or a 1-D array, got shape {v.shape}")
    x = np.add(*np.broadcast_arrays(*map(np.atleast_1d, detunings.values())))
    n = profile.n_steps
    i0, i1 = step_range if step_range is not None else (0, n)
    if not (0 <= i0 <= i1 <= n):
        raise ValueError(f"step range {(i0, i1)} outside [0, {n}]")
    h = 1.0 / n
    if i0 == i1:   # no steps: the identity
        out = np.zeros((4,) + x.shape, complex)
        out[[0, 3]] = 1.0
        return out
    if profile._uniform:   # one step over the span
        i1, h = i0 + 1, (i1 - i0) / n

    # the profile of steps i0..i1-1, as (node, row, step), and the drive
    # as (row, 1) columns: one row per point of a DriveBatch, or one row
    # that all detunings share; see _step_propagators
    wc, rho33, rho31 = (v[..., i0:i1] for v in (profile.omega_c, profile.rho33, profile.rho31))
    delta_c, delta_d, omega_d = (np.reshape(v, (-1, 1))
                                 for v in (drive.delta_c, drive.delta_d, drive.omega_d))
    points = delta_c.shape[0]
    if wc.shape[1] != points or points not in (1, x.size):
        raise ValueError(f"{points} drive points, {wc.shape[1]} profile rows "
                         f"and {x.size} detunings do not pair up")

    alpha_s = absorptions(rates, medium)[1]
    cp = 0.5 * rates.gamma21 * medium.alpha_p
    cs = 0.5 * rates.gamma43 * alpha_s
    cx = 0.5 * math.sqrt(rates.gamma21 * medium.alpha_p * rates.gamma43 * alpha_s)
    couplings = np.array((1j * cp, 1j * cx, 1j * cx, 1j * cs)).reshape(4, 1, 1, 1)
    # no FWM loop, so chi_ps = chi_sp = 0, at every point without omega_d or omega_c
    loopless = (omega_d == 0.0) | (np.reshape(drive.omega_c, (-1, 1)) == 0.0)
    diagonal = cx == 0.0 or bool(loopless.all())

    per_tile = max(1, _TILE_ELEMENTS // (3 * (i1 - i0)))
    slices = [slice(k, min(k + per_tile, x.size)) for k in range(0, x.size, per_tile)]
    out = np.empty((4,) + x.shape, dtype=np.complex128)
    no_loop = not np.any(omega_d)   # one chi branch for every tile
    scales = _comm_scales(h)

    def coupling_matrix(sl, ws):
        """M = i c chi at the frequencies ``sl`` and their drive rows, taken from ``ws``."""
        rows = slice(None) if points == 1 else sl
        M = _chi_arrays(wc[:, rows], rho33[:, rows], rho31[:, rows], x[sl, None], delta_c[rows],
                        delta_d[rows], omega_d[rows], rates, no_loop, ws)
        return np.multiply(couplings, M, out=M)

    ws = _workspace()
    # an overflow shows as a non-finite or non-passive output, which the
    # guard below reports once
    with np.errstate(over="ignore", invalid="ignore"):
        for sl in slices:
            ws.reset()
            M = coupling_matrix(sl, ws)
            if diagonal:
                out[:, sl] = _diagonal_propagator(M, h, ws)
            else:
                R, phase = _step_propagators(M, h, scales, ws)
                np.multiply(_ordered_product(R, ws=ws), phase, out=out[:, sl])
    finite = np.isfinite(out).all()
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.abs(out.reshape(2, 2, -1)) ** 2   # (|a|^2, |b|^2), (|c|^2, |d|^2)
        column_sums = rows[0] + rows[1]
        gain = np.max(column_sums, initial=1.0) - 1.0
    if not finite or gain > PASSIVITY_TOL:
        what = f"not passive (column photon gain {gain:.3g})" if finite else "not finite"
        cause = "the steps are too coarse for this optical depth (raise medium.n_z)"
        if finite:   # M at every node of the column of most gain
            k = int(np.argmax(column_sums)) % x.size
            with np.errstate(over="ignore", invalid="ignore"):
                bound = _response_gain(coupling_matrix(slice(k, k + 1), Workspace()), h)
            if bound > PASSIVITY_TOL:
                cause = (f"the medium's own response has gain, up to {bound:.3g}, which no grid "
                         "removes (check the rates: a coherence rate below half the sum of its "
                         "levels' decay rates, or dephased far beyond the others, lets it amplify)")
        raise NumericalError(f"transfer matrix is {what} at OD {medium.od:g} with "
                             f"medium.n_z = {medium.n_z}; {cause}")
    return out


def transfer_matrix(omega: float, bundle: ConfigBundle,
                    profile: Optional[CouplingProfile] = None,
                    delta_p: Optional[float] = None,
                    zeta_span=(0.0, 1.0)) -> TransferMatrix:
    """Transfer matrix at one sideband frequency.

    ``zeta_span``, two numbers in the input domain (else
    ConfigValidationError, keyed zeta_span), is snapped to the nearest
    step boundaries; the default covers the whole medium.
    """
    span = _check_numbers("zeta_span", zeta_span, scalar=False)
    _require(span.shape == (2,), "zeta_span", f"must be two numbers, got {zeta_span!r}")
    if profile is None or bundle.drive is None:
        profile = coupling_profile(bundle)   # raises for a drive-less bundle
    if delta_p is None:
        delta_p = bundle.drive.delta_p
    steps = tuple(round(z * profile.n_steps) for z in span.tolist())
    out = _transfer_components(bundle, profile, [delta_p], [omega], step_range=steps)
    return TransferMatrix(float(omega), *(complex(v) for v in out[:, 0]))


def observables_at(bundle: ConfigBundle, delta_p=None, omega=0.0) -> Observables:
    """Steady-state observables T_p = |a|^2, eta_s = |c|^2, T_s = |d|^2,
    eta_p = |b|^2, from one ``_transfer_components`` call.

    ``delta_p`` (default: the drive's, one per point of a DriveBatch)
    and ``omega`` are scalars, giving floats, or 1-D arrays, giving one
    entry per broadcast pair.
    """
    profile = coupling_profile(bundle)
    if delta_p is None:
        delta_p = bundle.drive.delta_p
    T_p, eta_p, eta_s, T_s = np.abs(_transfer_components(bundle, profile, delta_p, omega)) ** 2
    if np.ndim(delta_p) == np.ndim(omega) == 0:
        T_p, eta_p, eta_s, T_s = (float(v[0]) for v in (T_p, eta_p, eta_s, T_s))
    return Observables(T_p=T_p, eta_s=eta_s, T_s=T_s, eta_p=eta_p)


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
    O(N) memory.  Any FWHM > 0 gives finite values, a subnormal one
    included.  ConfigValidationError, keyed fwhm, names an FWHM that is
    not a number in (0, MAX_MAGNITUDE]; ValueError an ``x`` that is not
    uniformly spaced.
    """
    _check_numbers("fwhm", fwhm, POSITIVE, MAX_MAGNITUDE)
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        return np.array(y, dtype=float)
    step = (x[-1] - x[0]) / (n - 1)
    if not np.allclose(np.diff(x), step, rtol=1e-6, atol=0.0):
        raise ValueError("lorentzian_convolve needs uniformly spaced x")
    # offsets and half-width in units of 2^e ~ FWHM: exact, and cancelled by
    # the normalization, so (FWHM/2)^2 does not underflow; an offset that
    # overflows instead has a kernel weight below rounding, and gets 0
    m, e = math.frexp(fwhm)
    half = 0.5 * m
    with np.errstate(over="ignore"):
        offsets = np.ldexp(step * np.arange(1 - n, n), -e)
        kernel = half / (offsets ** 2 + half ** 2)   # 1/pi absorbed by normalization
    size = 1 << (2 * n - 2).bit_length()   # >= 2n - 1: no wrap-around in the n sums kept
    kernel_f = np.fft.rfft(kernel, size)

    def weighted_sum(v):   # sum_j kernel(x_i - x_j) v_j
        return np.fft.irfft(np.fft.rfft(v, size) * kernel_f, size)[n - 1:2 * n - 1]

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
    ``threads``, an integer from 1 to 1e8, changes nothing: the tiles run
    on the calling thread.
    """
    _check_numbers("threads", threads, 1, MAX_MAGNITUDE, integer=True)
    given = (("start", start), ("stop", stop), ("step", step), ("linewidth", linewidth))
    # replace() re-runs SweepOptions validation on the mode and overrides
    sweep = replace(bundle.sweep, mode=mode, **{k: v for k, v in given if v is not None})
    delta_ps = sweep.start + sweep.step * np.arange(sweep.rows)

    run = with_mode(bundle, mode)
    profile = coupling_profile(run)
    T_p, eta_p, eta_s, T_s = np.abs(_transfer_components(run, profile, delta_ps, 0.0,
                                                         threads=threads)) ** 2
    table = SpectrumTable(mode=mode, delta_p=delta_ps, T_p=T_p, eta_s=eta_s, T_s=T_s,
                          eta_p=eta_p)
    if sweep.linewidth is not None:
        table = replace(table, linewidth=sweep.linewidth,
                        T_p_conv=lorentzian_convolve(delta_ps, table.T_p, sweep.linewidth),
                        eta_s_conv=lorentzian_convolve(delta_ps, table.eta_s, sweep.linewidth))
    return table
