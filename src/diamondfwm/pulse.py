"""Time-domain probe-pulse conversion by spectral synthesis.

A square input envelope is decomposed into sideband components
exp(-i omega t), each component is multiplied by the transfer-matrix
entries A(omega) (transmitted probe) and C(omega) (generated signal),
and the outputs are resynthesized.  All times are in 1/Gamma units and
the returned traces are intensity envelopes normalized to unit peak
input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import MAX_MAGNITUDE, ConfigBundle, _check_numbers
from .propagation import _transfer_components, coupling_profile


@dataclass(frozen=True)
class PulseResult:
    """Input and output intensity envelopes on the synthesis time grid."""

    time: np.ndarray
    input_probe: np.ndarray
    output_probe: np.ndarray
    output_signal: np.ndarray
    delta_p: float
    duration: float
    onset: float
    window: float
    n_freq: int

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


def propagate_pulse(bundle: ConfigBundle, duration: Optional[float] = None,
                    delta_p: Optional[float] = None, window: Optional[float] = None,
                    n_freq: Optional[int] = None, threads: int = 1) -> PulseResult:
    """Propagate a square probe pulse of unit amplitude through the medium.

    The synthesis window defaults to 8x the pulse duration with the
    pulse switched on at window/8, leaving most of the window for the
    causal medium response to ring down before it wraps around.
    ``threads`` worker threads, an integer from 1 to 1e8, share the tiles.
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

    a, _, c, _ = _transfer_components(bundle, profile, np.full(n_freq, drive.delta_p),
                                      omegas, threads=threads)
    out_p = np.fft.fft(spectrum * a)
    out_s = np.fft.fft(spectrum * c)
    return PulseResult(time=t,
                       input_probe=np.abs(envelope) ** 2,
                       output_probe=np.abs(out_p) ** 2,
                       output_signal=np.abs(out_s) ** 2,
                       delta_p=drive.delta_p, duration=duration,
                       onset=onset, window=window, n_freq=n_freq)
