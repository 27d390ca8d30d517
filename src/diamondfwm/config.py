"""Configuration schema, unit conventions and operating-point presets.

Unit conventions used throughout the package:

* Rates, Rabi frequencies and detunings are in units of
  Gamma = 2*pi*6 MHz, the total decay rate of the coupling transition's
  upper state.
* Time is in units of 1/Gamma (26.526 ns).
* Position along the medium is the dimensionless zeta = z/L in [0, 1];
  the medium length and atom number never appear on their own.

``alpha_p`` is the absorption parameter that multiplies the probe
propagation equation.  With the equations used here, the resonant
intensity transmission of the bare probe transition is
``exp(-alpha_p/2)``, so the conventional optical depth
``OD = -ln(T)`` equals ``alpha_p/2``.  Config documents may specify the
medium by either quantity (``alpha_p`` or ``od``); presets are defined
by their quoted OD.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigParseError, ConfigValidationError, UnknownPresetError

GAMMA_HZ = 6.0e6                      # Gamma / 2pi
GAMMA_RAD_PER_S = 2.0 * math.pi * GAMMA_HZ
TIME_UNIT_NS = 1e9 / GAMMA_RAD_PER_S  # one 1/Gamma in nanoseconds (26.526)

# 200 ns square pulse expressed in 1/Gamma units
DEFAULT_PULSE_DURATION = 200e-9 * GAMMA_RAD_PER_S
# 5 MHz combined laser linewidth expressed in Gamma units
DEFAULT_LINEWIDTH = 5.0 / 6.0

_EPS = 1e-9


def _require(cond, key, message):
    if not cond:
        raise ConfigValidationError(key, message)


@dataclass(frozen=True)
class RateTable:
    """Decay and decoherence rates of the four-level scheme, in Gamma units.

    Levels: |1> ground, |2> and |3> intermediate (probe and coupling
    transitions from |1>), |4> upper.  Decay channels are
    |2>->|1>, |3>->|1>, |4>->|2> and |4>->|3>.

    Coherence decay rates left unset default to the half-sum of the
    total population decay rates of the two levels plus ``gamma_extra``
    (the ground state |1> has zero decay).  The shipped totals are
    standard Rb-line values; they are configuration, not ground truth.
    """

    Gamma2_total: float = 0.958
    Gamma3_total: float = 1.0
    Gamma4_total: float = 0.583
    Gamma21: Optional[float] = None   # default: Gamma2_total (closed)
    Gamma31: Optional[float] = None   # default: Gamma3_total (closed)
    Gamma42: Optional[float] = None   # default branching 0.2/0.583 of Gamma4_total
    Gamma43: Optional[float] = None   # default branching 0.383/0.583 of Gamma4_total
    gamma_extra: float = 0.0
    gamma21: Optional[float] = None
    gamma23: Optional[float] = None
    gamma31: Optional[float] = None
    gamma41: Optional[float] = None
    gamma43: Optional[float] = None

    def __post_init__(self):
        s = object.__setattr__
        if self.Gamma21 is None:
            s(self, "Gamma21", self.Gamma2_total)
        if self.Gamma31 is None:
            s(self, "Gamma31", self.Gamma3_total)
        if self.Gamma42 is None:
            s(self, "Gamma42", self.Gamma4_total * (0.2 / 0.583))
        if self.Gamma43 is None:
            s(self, "Gamma43", self.Gamma4_total * (0.383 / 0.583))
        halfsum = {
            "gamma21": self.Gamma2_total / 2.0,
            "gamma23": (self.Gamma2_total + self.Gamma3_total) / 2.0,
            "gamma31": self.Gamma3_total / 2.0,
            "gamma41": self.Gamma4_total / 2.0,
            "gamma43": (self.Gamma4_total + self.Gamma3_total) / 2.0,
        }
        for name, default in halfsum.items():
            if getattr(self, name) is None:
                s(self, name, default + self.gamma_extra)
        for f in fields(self):
            value = getattr(self, f.name)
            _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                     f"rates.{f.name}", "must be a number")
            _require(math.isfinite(value) and value >= 0.0, f"rates.{f.name}",
                     f"must be finite and >= 0, got {value}")
            s(self, f.name, float(value))
        _require(self.Gamma21 <= self.Gamma2_total + _EPS, "rates.Gamma21",
                 f"partial rate {self.Gamma21} exceeds rates.Gamma2_total = {self.Gamma2_total}")
        _require(self.Gamma31 <= self.Gamma3_total + _EPS, "rates.Gamma31",
                 f"partial rate {self.Gamma31} exceeds rates.Gamma3_total = {self.Gamma3_total}")
        _require(self.Gamma42 + self.Gamma43 <= self.Gamma4_total + _EPS, "rates.Gamma42",
                 f"Gamma42 + Gamma43 = {self.Gamma42 + self.Gamma43} exceeds "
                 f"rates.Gamma4_total = {self.Gamma4_total}")

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class DriveConfig:
    """Strong-field Rabi frequencies and laser detunings, in Gamma units.

    The two-photon detuning is always derived: delta = delta_p + delta_d.
    """

    omega_c: float = 0.0
    omega_d: float = 0.0
    delta_p: float = 0.0
    delta_c: float = 0.0
    delta_d: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            _require(isinstance(value, (int, float)) and not isinstance(value, bool),
                     f"fields.{f.name}", "must be a number")
            _require(math.isfinite(value), f"fields.{f.name}", f"must be finite, got {value}")
            object.__setattr__(self, f.name, float(value))
        _require(self.omega_c >= 0.0, "fields.omega_c", "Rabi frequency must be >= 0")
        _require(self.omega_d >= 0.0, "fields.omega_d", "Rabi frequency must be >= 0")

    @property
    def delta(self) -> float:
        """Two-photon detuning delta_p + delta_d."""
        return self.delta_p + self.delta_d

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MediumConfig:
    """Optical depths, wavelengths and the spatial grid.

    ``alpha_c`` and ``alpha_s`` are never configured directly; they
    follow from alpha_p at fixed density and length:

        alpha_l / alpha_p = (lambda_l/lambda_p)^2
                            * (Gamma_jk/gamma_jk) / (Gamma21/gamma21)

    ``n_z`` is the number of fixed RK4 steps across zeta in [0, 1].
    """

    alpha_p: float
    alpha_c: float
    alpha_s: float
    lambda_p: float = 795.0
    lambda_c: float = 780.0
    lambda_d: float = 1324.0
    lambda_s: float = 1367.0
    n_z: int = 2000

    def __post_init__(self):
        for name in ("alpha_p", "alpha_c", "alpha_s", "lambda_p", "lambda_c",
                     "lambda_d", "lambda_s"):
            _require(math.isfinite(getattr(self, name)), f"medium.{name}",
                     f"must be finite, got {getattr(self, name)}")
        _require(self.alpha_p >= 0.0, "medium.alpha_p", "optical depth must be >= 0")
        _require(isinstance(self.n_z, int) and not isinstance(self.n_z, bool),
                 "medium.n_z", "must be an integer")
        _require(self.n_z >= 2, "medium.n_z", f"needs at least 2 grid steps, got {self.n_z}")
        for name in ("lambda_p", "lambda_c", "lambda_d", "lambda_s"):
            _require(getattr(self, name) > 0.0, f"medium.{name}", "wavelength must be > 0")
        # four-wave-mixing energy conservation: 1/lp + 1/ld = 1/lc + 1/ls
        lhs = 1.0 / self.lambda_p + 1.0 / self.lambda_d
        rhs = 1.0 / self.lambda_c + 1.0 / self.lambda_s
        mismatch = abs(lhs / rhs - 1.0)
        _require(mismatch <= 5e-3, "medium.lambda_s",
                 f"wavelengths violate energy conservation by {mismatch:.2%} (> 0.5%)")

    @classmethod
    def derive(cls, rates: RateTable, alpha_p: Optional[float] = None,
               od: Optional[float] = None, lambda_p: float = 795.0,
               lambda_c: float = 780.0, lambda_d: float = 1324.0,
               lambda_s: float = 1367.0, n_z: int = 2000) -> "MediumConfig":
        """Build a medium, deriving alpha_c and alpha_s from the rates.

        Exactly one of ``alpha_p`` (the propagation-equation parameter)
        or ``od`` (the conventional resonant optical depth, -ln T) must
        be given; they are related by alpha_p = 2*od.
        """
        _require((alpha_p is None) != (od is None), "medium.alpha_p",
                 "specify exactly one of alpha_p or od")
        if alpha_p is None:
            _require(math.isfinite(od) and od >= 0.0, "medium.od",
                     f"optical depth must be finite and >= 0, got {od}")
            alpha_p = 2.0 * float(od)
        alpha_p = float(alpha_p)
        if alpha_p > 0.0:
            for key, value in (("rates.Gamma21", rates.Gamma21),
                               ("rates.gamma31", rates.gamma31),
                               ("rates.gamma43", rates.gamma43)):
                _require(value > 0.0, key, "must be > 0 to derive alpha_c/alpha_s")
            alpha_c = alpha_p * (lambda_c / lambda_p) ** 2 \
                * (rates.Gamma31 / rates.gamma31) * (rates.gamma21 / rates.Gamma21)
            alpha_s = alpha_p * (lambda_s / lambda_p) ** 2 \
                * (rates.Gamma43 / rates.gamma43) * (rates.gamma21 / rates.Gamma21)
        else:
            alpha_c = alpha_s = 0.0
        return cls(alpha_p=alpha_p, alpha_c=alpha_c, alpha_s=alpha_s,
                   lambda_p=lambda_p, lambda_c=lambda_c, lambda_d=lambda_d,
                   lambda_s=lambda_s, n_z=n_z)

    @property
    def od(self) -> float:
        """Conventional resonant optical depth, -ln(T) = alpha_p/2."""
        return self.alpha_p / 2.0


@dataclass(frozen=True)
class SweepOptions:
    mode: str = "fwm"
    start: float = -10.0
    stop: float = 15.0
    step: float = 0.1
    linewidth: Optional[float] = None   # Lorentzian FWHM for the convolved columns

    def __post_init__(self):
        _require(self.mode in SWEEP_MODES, "sweep.mode",
                 f"must be one of {SWEEP_MODES}, got {self.mode!r}")
        _require(math.isfinite(self.step) and self.step > 0.0, "sweep.step",
                 "must be finite and > 0")
        _require(math.isfinite(self.start) and math.isfinite(self.stop),
                 "sweep.from", "sweep range must be finite")
        if self.linewidth is not None:
            _require(math.isfinite(self.linewidth) and self.linewidth > 0.0,
                     "sweep.linewidth", "FWHM must be finite and > 0")


@dataclass(frozen=True)
class PulseOptions:
    shape: str = "square"
    duration: float = DEFAULT_PULSE_DURATION   # in 1/Gamma
    window: Optional[float] = None             # default 8 x duration
    n_freq: int = 4096

    def __post_init__(self):
        _require(self.shape == "square", "pulse.shape",
                 f"only 'square' is implemented, got {self.shape!r}")
        _require(math.isfinite(self.duration) and self.duration > 0.0, "pulse.duration",
                 "must be finite and > 0")
        _require(isinstance(self.n_freq, int) and self.n_freq >= 16,
                 "pulse.n_freq", "must be an integer >= 16")
        if self.window is not None:
            _require(math.isfinite(self.window) and self.window > 0.0, "pulse.window",
                     "must be finite and > 0")


@dataclass(frozen=True)
class OptimizeOptions:
    starts: int = 32
    seed: int = 0
    max_evals: int = 2000
    omega_min: float = 0.0
    omega_max: float = 30.0
    delta_min: float = -15.0
    delta_max: float = 15.0

    def __post_init__(self):
        _require(isinstance(self.starts, int) and self.starts >= 1,
                 "optimize.starts", "must be an integer >= 1")
        _require(isinstance(self.seed, int), "optimize.seed", "must be an integer")
        _require(isinstance(self.max_evals, int) and self.max_evals >= 1,
                 "optimize.max_evals", "must be an integer >= 1")
        for lo, hi, k in ((self.omega_min, self.omega_max, "omega"),
                          (self.delta_min, self.delta_max, "delta")):
            _require(math.isfinite(lo) and math.isfinite(hi) and lo <= hi,
                     f"optimize.{k}_min", f"needs finite {k}_min <= {k}_max")

    def bounds(self):
        """(5, 2) bound pairs ordered (omega_c, omega_d, delta_c, delta_d, delta_p)."""
        w = (self.omega_min, self.omega_max)
        d = (self.delta_min, self.delta_max)
        return (w, w, d, d, d)


@dataclass(frozen=True)
class ConfigBundle:
    """Everything one run needs; immutable and safe to share across workers."""

    rates: RateTable
    medium: MediumConfig
    drive: Optional[DriveConfig] = None
    sweep: SweepOptions = field(default_factory=SweepOptions)
    pulse: PulseOptions = field(default_factory=PulseOptions)
    optimize: OptimizeOptions = field(default_factory=OptimizeOptions)


SWEEP_MODES = ("fwm", "v_type", "cascade", "two_level")
PRESET_NAMES = ("fig3", "fig4", "od200")

# document schema: section -> key -> (python type, target dataclass field)
_SCHEMA = {
    "rates": {name: float for name in (
        "Gamma2_total", "Gamma3_total", "Gamma4_total", "Gamma21", "Gamma31",
        "Gamma42", "Gamma43", "gamma_extra", "gamma21", "gamma23", "gamma31",
        "gamma41", "gamma43")},
    "medium": {"alpha_p": float, "od": float, "lambda_p": float, "lambda_c": float,
               "lambda_d": float, "lambda_s": float, "n_z": int},
    "fields": {name: float for name in (
        "omega_c", "omega_d", "delta_p", "delta_c", "delta_d")},
    "sweep": {"mode": str, "from": float, "to": float, "step": float, "linewidth": float},
    "pulse": {"shape": str, "duration": float, "window": float, "n_freq": int},
    "optimize": {"starts": int, "seed": int, "max_evals": int, "omega_min": float,
                 "omega_max": float, "delta_min": float, "delta_max": float},
}


def _checked_section(doc, section):
    raw = doc.get(section, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigValidationError(section, "section must be a mapping of scalar keys")
    schema = _SCHEMA[section]
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigValidationError(f"{section}.{key}", "unknown key")
        want = schema[key]
        if want in (float, int):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigValidationError(f"{section}.{key}",
                                            f"must be a number, got {value!r}")
            if want is int and int(value) != value:
                raise ConfigValidationError(f"{section}.{key}",
                                            f"must be an integer, got {value!r}")
            out[key] = want(value)
        else:
            if not isinstance(value, str):
                raise ConfigValidationError(f"{section}.{key}",
                                            f"must be a string, got {value!r}")
            out[key] = value
    return out


def parse_config(text: str) -> ConfigBundle:
    """Parse and validate a YAML config document into a ConfigBundle."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"malformed config document: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigParseError("config document must be a mapping of sections")
    for section in doc:
        if section not in _SCHEMA:
            raise ConfigValidationError(str(section), "unknown section")

    rates = RateTable(**_checked_section(doc, "rates"))

    med = _checked_section(doc, "medium")
    if "alpha_p" in med and "od" in med:
        raise ConfigValidationError("medium.alpha_p", "specify either alpha_p or od, not both")
    if "alpha_p" not in med and "od" not in med:
        raise ConfigValidationError("medium.alpha_p", "config must set medium.alpha_p or medium.od")
    medium = MediumConfig.derive(rates, **med)

    drive = None
    if "fields" in doc and doc["fields"] is not None:
        drive = DriveConfig(**_checked_section(doc, "fields"))

    sw = _checked_section(doc, "sweep")
    sweep = SweepOptions(mode=sw.get("mode", "fwm"),
                         start=sw.get("from", -10.0),
                         stop=sw.get("to", 15.0),
                         step=sw.get("step", 0.1),
                         linewidth=sw.get("linewidth"))
    pulse = PulseOptions(**_checked_section(doc, "pulse"))
    optimize = OptimizeOptions(**_checked_section(doc, "optimize"))
    return ConfigBundle(rates=rates, medium=medium, drive=drive,
                        sweep=sweep, pulse=pulse, optimize=optimize)


def load_config(path) -> ConfigBundle:
    """Load and validate a config document from a file path."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def canonical_dict(bundle: ConfigBundle) -> dict:
    """Fully-resolved plain-dict form; the basis for hashing and round-trips."""
    doc = {
        "rates": bundle.rates.as_dict(),
        "medium": {
            "alpha_p": bundle.medium.alpha_p,
            "lambda_p": bundle.medium.lambda_p,
            "lambda_c": bundle.medium.lambda_c,
            "lambda_d": bundle.medium.lambda_d,
            "lambda_s": bundle.medium.lambda_s,
            "n_z": bundle.medium.n_z,
        },
        "sweep": {
            "mode": bundle.sweep.mode,
            "from": bundle.sweep.start,
            "to": bundle.sweep.stop,
            "step": bundle.sweep.step,
        },
        "pulse": {
            "shape": bundle.pulse.shape,
            "duration": bundle.pulse.duration,
            "n_freq": bundle.pulse.n_freq,
        },
        "optimize": {
            "starts": bundle.optimize.starts,
            "seed": bundle.optimize.seed,
            "max_evals": bundle.optimize.max_evals,
            "omega_min": bundle.optimize.omega_min,
            "omega_max": bundle.optimize.omega_max,
            "delta_min": bundle.optimize.delta_min,
            "delta_max": bundle.optimize.delta_max,
        },
    }
    if bundle.sweep.linewidth is not None:
        doc["sweep"]["linewidth"] = bundle.sweep.linewidth
    if bundle.pulse.window is not None:
        doc["pulse"]["window"] = bundle.pulse.window
    if bundle.drive is not None:
        doc["fields"] = bundle.drive.as_dict()
    return doc


def dump_config(bundle: ConfigBundle) -> str:
    """Serialize a bundle; parse_config(dump_config(b)) reproduces b exactly."""
    return yaml.safe_dump(canonical_dict(bundle), sort_keys=True)


def bundle_hash(bundle: ConfigBundle) -> str:
    """Stable hex digest of the fully-resolved config."""
    return hashlib.sha256(dump_config(bundle).encode("utf-8")).hexdigest()


def preset(name: str) -> ConfigBundle:
    """Named operating points.

    fig3   -- bright-MOT point: OD 75 (alpha_p 150), coupling 11, driving 9,
              delta_c +5, delta_d -4, carrier delta_p -1.
    fig4   -- dark-SPOT point: OD 110 (alpha_p 220), coupling 20, driving 12,
              delta_c +8, delta_d -5, carrier delta_p -4.
    od200  -- OD 200 medium with the drive parameters left unset, to be
              found by the optimizer.
    """
    rates = RateTable()
    if name == "fig3":
        return ConfigBundle(
            rates=rates,
            medium=MediumConfig.derive(rates, od=75.0),
            drive=DriveConfig(omega_c=11.0, omega_d=9.0, delta_p=-1.0,
                              delta_c=5.0, delta_d=-4.0))
    if name == "fig4":
        return ConfigBundle(
            rates=rates,
            medium=MediumConfig.derive(rates, od=110.0),
            drive=DriveConfig(omega_c=20.0, omega_d=12.0, delta_p=-4.0,
                              delta_c=8.0, delta_d=-5.0))
    if name == "od200":
        return ConfigBundle(rates=rates, medium=MediumConfig.derive(rates, od=200.0),
                            drive=None)
    raise UnknownPresetError(name, PRESET_NAMES)


def with_mode(bundle: ConfigBundle, mode: str) -> ConfigBundle:
    """Return the bundle with strong fields zeroed per spectroscopy mode.

    fwm keeps both fields, v_type drops the driving field, cascade drops
    the coupling field, two_level drops both.
    """
    if mode not in SWEEP_MODES:
        raise ConfigValidationError("sweep.mode", f"must be one of {SWEEP_MODES}, got {mode!r}")
    if bundle.drive is None:
        raise ConfigValidationError("fields", "this config has no drive fields")
    drive = bundle.drive
    if mode in ("cascade", "two_level"):
        drive = replace(drive, omega_c=0.0)
    if mode in ("v_type", "two_level"):
        drive = replace(drive, omega_d=0.0)
    return replace(bundle, drive=drive)
