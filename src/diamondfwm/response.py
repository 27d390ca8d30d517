"""Steady state of the driven coupling transition and the weak-field
linear response of the four-level medium.

Index convention: density-matrix elements are written rho_jk = <j|rho|k>
with levels numbered 1..4, so the collective lowering operator for the
|k> -> |j> transition has expectation value rho_kj.  Arrays use 0-based
indices, i.e. rho_21 lives at ``rho[1, 0]``.

The rotating frame places |1> at zero, |2> at the probe frequency,
|3> at the coupling frequency and |4> at probe + driving.  In that frame

    H = -delta_p |2><2| - delta_c |3><3| - delta |4><4|
        - (omega_p |2><1| + omega_c |3><1| + omega_d |4><2|
           + omega_s |4><3|) / 2 + h.c.

with delta = delta_p + delta_d.  A weak-field component oscillating as
exp(-i omega t) relative to its carrier sees every detuning shifted by
the sideband frequency omega.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DriveConfig, RateTable
from .errors import NoUniqueSteadyStateError, NumericalError, SingularResponseError

_DET_TOL = 1e-28   # singularity threshold on |det|, scaled by matrix magnitude
_STATE_MARGIN = 1e-12   # round-off margin on the two-level state's bounds

# why a two-level state leaves its bounds, after the saturation's cause
_UNPHYSICAL = ("or rates.gamma31 is below rates.Gamma3_total / 4: the two-level state "
               "leaves 0 <= rho33 <= 1/2, |rho31| <= 1/2")


@dataclass(frozen=True)
class ZerothOrderState:
    """Steady state of the coupling-driven |1> <-> |3> subsystem."""

    rho33: float
    rho31: complex

    @property
    def rho11(self) -> float:
        return 1.0 - self.rho33

    @property
    def rho13(self) -> complex:
        return np.conj(self.rho31)


@dataclass(frozen=True)
class ResponseMatrix:
    """Linear susceptibility coefficients of the two weak coherences.

    rho_21 = chi_pp * omega_p + chi_ps * omega_s
    rho_43 = chi_sp * omega_p + chi_ss * omega_s
    """

    chi_pp: complex
    chi_ps: complex
    chi_sp: complex
    chi_ss: complex


def _two_level_arrays(omega_c, delta_c, gamma31, Gamma3):
    """Vectorized closed-form steady state of the driven two-level pair.

    From the optical Bloch equations with total decay Gamma3 back to the
    ground state (closed transition):

        rho33 = (s/2) * gamma31 / (Gamma3*(gamma31^2 + delta_c^2) + s*gamma31)
        rho31 = (i/2) omega_c (1 - 2 rho33) / (gamma31 - i delta_c)

    with s = |omega_c|^2.  The form above stays finite for Gamma3 -> 0
    (full saturation, rho33 -> 1/2).  ``delta_c`` may be an array of
    per-drive detunings that broadcasts against ``omega_c``: a lone
    drive and a row of a batch share one numpy path.  A delta_c whose
    square overflows gives the far-detuned limit rho33 = 0; an omega_c
    whose square overflows gives a non-finite state, for the caller to
    report.
    """
    omega_c = np.asarray(omega_c, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = omega_c.real ** 2 + omega_c.imag ** 2
        den = Gamma3 * (gamma31 ** 2 + np.square(delta_c)) + s * gamma31
        rho33 = np.where(den > 0.0, 0.5 * s * gamma31 / np.where(den > 0.0, den, 1.0), 0.0)
        rho31 = 0.5j * omega_c * (1.0 - 2.0 * rho33) / (gamma31 - 1j * delta_c)
    return rho33, rho31


def _physical(rho33, rho31):
    """Where a two-level state is within its physical bounds, 0 <= rho33
    <= 1/2 and |rho31| <= 1/2, to round-off; a non-finite one is not.
    The closed form leaves them where its saturation leaves the float
    range (its denominator underflows, or omega_c's square overflows),
    or where gamma31 < Gamma3 / 4, a coherence decay that no physical
    state has."""
    return ((np.abs(rho33 - 0.25) <= 0.25 + _STATE_MARGIN)
            & (np.abs(rho31) <= 0.5 + _STATE_MARGIN))


def two_level_steady_state(omega_c_local: complex, delta_c: float,
                           rates: RateTable) -> ZerothOrderState:
    """Steady state of the coupling transition at a (possibly complex)
    local Rabi frequency.  NumericalError names fields.omega_c,
    rates.Gamma3_total and rates.gamma31 if the state leaves its
    physical bounds (see ``_physical``)."""
    rho33, rho31 = _two_level_arrays(omega_c_local, delta_c,
                                     rates.gamma31, rates.Gamma3_total)
    if not _physical(rho33, rho31):
        raise NumericalError(
            f"fields.omega_c = {abs(omega_c_local):g} is too large for the float range at "
            f"fields.delta_c = {delta_c:g}, rates.Gamma3_total = {rates.Gamma3_total:g} and "
            f"rates.gamma31 = {rates.gamma31:g}, {_UNPHYSICAL}")
    return ZerothOrderState(rho33=float(rho33), rho31=complex(rho31))


def _cross(a, x, b, y, inv, scale=None, out=None):
    """(a x - b y) inv, or ((a x - b y) scale) inv: one entry of a 2x2
    solve by the adjugate, with inv = 1 / det; written into ``out`` if
    given."""
    t = a * x
    t -= b * y
    if scale is not None:
        t = scale * t
    return np.multiply(t, inv, out=out)


def _chi_arrays(omega_c, rho33, rho31, x, delta_c, delta_d, omega_d, rates, no_loop):
    """Susceptibility coefficients at the frequencies x of a drive, from
    the two-level state: ``omega_c``, ``rho33`` and ``rho31`` are arrays
    of the grid's shape, and ``delta_c``, ``delta_d`` and ``omega_d`` are
    scalars, or per-drive arrays that broadcast like x.  ``no_loop`` is
    whether omega_d = 0 at every point of the caller's drive: no FWM loop.

    Solves the steady-state system for the first-order coherences
    X = (rho_21, rho_23, rho_41, rho_43) of a weak-field component at
    sideband frequency omega; the detunings enter only through
    x = delta_p + omega:

        0 = [i x - g21] r21 + (i/2)(-Wc r23 + Wd* r41) + (i/2) Wp rho11
        0 = [i(x-dc) - g23] r23 + (i/2)(-Wc* r21 + Wd* r43) + (i/2) Wp rho13
        0 = [i(x+dd) - g41] r41 + (i/2)(Wd r21 - Wc r43) + (i/2) Ws rho31
        0 = [i(x+dd-dc) - g43] r43 + (i/2)(Wd r23 - Wc* r41) + (i/2) Ws rho33

    The system splits into 2x2 blocks coupled by scalar multiples of the
    identity ((i/2) Wd), so it is eliminated in closed form; this is
    exact dense elimination specialized to the block structure and
    vectorizes over position and frequency.  Each step, as its comment
    gives it, is one 2x2 block solve with Dp, Dq or the Schur complement
    S, and each entry of one is a ``_cross``.  Where omega_d = 0 at every
    point the blocks decouple: chi_ps = chi_sp = 0, and chi_pp and chi_ss
    are each one block's solve, the operations the elimination performs
    on them when omega_d = 0, so the values are the same.

    The full shape is the grid's broadcast against x; the result is one
    (4,) + full block of chi_pp, chi_ps, chi_sp and chi_ss.  Each step is
    the numpy operation of the formula in the comments, on the same
    operands in the same order, so the result does not depend on how a
    caller splits its frequencies and drive rows into calls, bit for bit.
    """
    xd = x + delta_d
    d1 = 1j * x - rates.gamma21
    d2 = 1j * (x - delta_c) - rates.gamma23
    d3 = 1j * xd - rates.gamma41
    d4 = 1j * (xd - delta_c) - rates.gamma43
    w = 0.5j * np.conj(omega_d)   # couples P=(r21,r23) to Q=(r41,r43)
    v = 0.5j * omega_d
    # oc = -0.5j omega_c, occ = -0.5j conj(omega_c): upper off-diagonals
    # of the 2x2 blocks; g = oc occ = -|omega_c|^2 / 4
    oc, occ = np.multiply(-0.5j, omega_c), np.multiply(-0.5j, np.conj(omega_c))
    g = oc * occ
    # sources bp = -(i/2)(rho11, rho13) and bq = -(i/2)(rho31, rho33)
    bp1, bp2 = np.multiply(-0.5j, 1.0 - rho33), np.multiply(-0.5j, np.conj(rho31))
    bq1, bq2 = np.multiply(-0.5j, rho31), np.multiply(-0.5j, rho33)
    chi = np.empty((4,) + np.broadcast_shapes(np.shape(oc), np.shape(d1)), np.complex128)
    chi_pp, chi_ps, chi_sp, chi_ss = (chi[k, ...] for k in range(4))   # arrays even if 0-d
    threshold = _DET_TOL * np.square(1.0 + np.abs(d1) + np.abs(d2) + np.abs(d3) + np.abs(d4)
                                     + np.abs(omega_c) + np.abs(omega_d))

    def inverse(det, block, rates_named):
        """1 / det, unless |det| is below the threshold somewhere."""
        if (np.abs(det) < threshold).any():
            raise SingularResponseError(
                f"{block} is singular (zero decoherence with coincident resonances: "
                f"{rates_named} vanish against the detunings)")
        return 1.0 / det

    inv_q = inverse(d3 * d4 - g, "lower coherence block", "rates.gamma41 and rates.gamma43")
    probe_block = ("reduced probe block", "rates.gamma21 and rates.gamma23")

    if no_loop:
        # one block each: chi_pp = [Dp^{-1} bp]_1 with det_p = d1 d2 - g,
        # chi_ss = [Dq^{-1} bq]_2
        inv_p = inverse(d1 * d2 - g, *probe_block)
        _cross(d2, bp1, oc, bp2, inv_p, out=chi_pp)
        _cross(d3, bq2, occ, bq1, inv_q, out=chi_ss)
        chi[1:3] = 0.0   # chi_ps, chi_sp
        return chi

    # Schur complement of the Q block: S = Dp - e Dq^{-1}, with
    # f = e inv_q (e = w v = -|omega_d|^2 / 4): s11 = d1 - f d4,
    # s22 = d2 - f d3, fac = 1 + f, off-diagonals oc fac and occ fac
    f = (w * v) * inv_q
    s11, s22, fac = d1 - f * d4, d2 - f * d3, 1.0 + f
    oc_fac, occ_fac = oc * fac, occ * fac
    inv_p = inverse(s11 * s22 - (g * fac) * fac, *probe_block)   # det_p

    # probe source, bp = -(i/2)(rho11, rho13) and bq = 0:
    # (chi_pp, p2) = S^{-1} bp, chi_sp = -v [Dq^{-1} (chi_pp, p2)]_2
    _cross(s22, bp1, oc_fac, bp2, inv_p, out=chi_pp)
    p2 = _cross(s11, bp2, occ_fac, bp1, inv_p)
    _cross(d3, p2, occ, chi_pp, inv_q, scale=-v, out=chi_sp)

    # signal source, bp = 0 and bq = -(i/2)(rho31, rho33):
    # rp = -w Dq^{-1} bq, (chi_ps, p2) = S^{-1} rp,
    # chi_ss = [Dq^{-1} (bq - v (chi_ps, p2))]_2
    rp1 = _cross(d4, bq1, oc, bq2, inv_q, scale=-w)
    rp2 = _cross(d3, bq2, occ, bq1, inv_q, scale=-w)
    _cross(s22, rp1, oc_fac, rp2, inv_p, out=chi_ps)
    p2 = _cross(s11, rp2, occ_fac, rp1, inv_p)
    _cross(d3, bq2 - v * p2, occ, bq1 - v * chi_ps, inv_q, out=chi_ss)
    return chi


def linear_response(omega: float, drive: DriveConfig, omega_c_local: complex,
                    zeroth: ZerothOrderState, rates: RateTable) -> ResponseMatrix:
    """First-order response of the four weak-field coherences at sideband
    frequency ``omega``, for the given local coupling Rabi frequency and
    the zeroth-order state consistent with it."""
    chi = _chi_arrays(np.complex128(omega_c_local), zeroth.rho33, zeroth.rho31,
                      float(drive.delta_p) + float(omega), drive.delta_c, drive.delta_d,
                      drive.omega_d, rates, not drive.omega_d)
    return ResponseMatrix(*(complex(c) for c in chi))


def liouvillian_generator(omega_p: complex, omega_s: complex, omega_c: complex,
                          omega_d: complex, delta_p: float, delta_c: float,
                          delta_d: float, rates: RateTable) -> np.ndarray:
    """Full 16x16 generator of the four-level master equation.

    Coherent part from the rotating-frame Hamiltonian above; relaxation
    from the four population decay channels as Lindblad dissipators plus
    pure dephasing, so that every coherence the rate table holds decays
    at its rate there, gamma21...gamma43, as in the linear response.  The
    dissipators give coherence a-b the half-sum (out_a + out_b) / 2 of
    the channel rates out of its levels, and the dephasing adds the
    excess of the table's rate over it; coherence 4-2, which the table
    does not hold, takes the half-sum plus ``gamma_extra``.
    """
    delta = delta_p + delta_d
    H = np.zeros((4, 4), dtype=np.complex128)
    H[1, 1] = -delta_p
    H[2, 2] = -delta_c
    H[3, 3] = -delta
    for (j, k, w) in ((1, 0, omega_p), (2, 0, omega_c), (3, 1, omega_d), (3, 2, omega_s)):
        H[j, k] = -0.5 * w
        H[k, j] = -0.5 * np.conj(w)
    eye = np.eye(4)
    gen = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    channels = ((1, 0, rates.Gamma21), (2, 0, rates.Gamma31),
                (3, 1, rates.Gamma42), (3, 2, rates.Gamma43))
    for j, k, rate in channels:
        if rate == 0.0:
            continue
        c = np.zeros((4, 4))
        c[k, j] = 1.0
        cc = c.T @ c
        gen += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cc, eye) - 0.5 * np.kron(eye, cc.T))
    out = (0.0, rates.Gamma21, rates.Gamma31, rates.Gamma42 + rates.Gamma43)
    for a, b, rate in ((1, 0, rates.gamma21), (1, 2, rates.gamma23), (2, 0, rates.gamma31),
                       (3, 0, rates.gamma41), (3, 2, rates.gamma43), (3, 1, None)):
        excess = rates.gamma_extra if rate is None else rate - 0.5 * (out[a] + out[b])
        gen[4 * a + b, 4 * a + b] -= excess
        gen[4 * b + a, 4 * b + a] -= excess
    return gen


def liouvillian_steady_state(drive: DriveConfig, omega_c_local: complex,
                             rates: RateTable, omega_p: complex = 0.0,
                             omega_s: complex = 0.0) -> np.ndarray:
    """Brute-force steady state of the full master equation.

    Returns the 4x4 density matrix (trace one) found from the null space
    of the generator.  This is the test oracle for the perturbative
    linear response; the probe/signal amplitudes should stay <= 1e-2 for
    meaningful comparisons.
    """
    gen = liouvillian_generator(omega_p, omega_s, omega_c_local, drive.omega_d,
                                drive.delta_p, drive.delta_c, drive.delta_d, rates)
    _, svals, vh = np.linalg.svd(gen)
    tol = 1e-10 * max(1.0, svals[0])
    nullity = int(np.sum(svals < tol))
    if nullity != 1:
        raise NoUniqueSteadyStateError(
            f"generator nullity is {nullity}, steady state is not unique")
    rho = vh[-1].conj().reshape(4, 4)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)
