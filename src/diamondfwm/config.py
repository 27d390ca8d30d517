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

import functools
import hashlib
import math
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Optional, get_args, get_type_hints

import numpy as np
import yaml

from .errors import ConfigParseError, ConfigValidationError, PulseGridError, UnknownPresetError

GAMMA_HZ = 6.0e6                      # Gamma / 2pi
GAMMA_RAD_PER_S = 2.0 * math.pi * GAMMA_HZ
TIME_UNIT_NS = 1e9 / GAMMA_RAD_PER_S  # one 1/Gamma in nanoseconds (26.526)

# 200 ns square pulse expressed in 1/Gamma units
DEFAULT_PULSE_DURATION = 200e-9 * GAMMA_RAD_PER_S
# 5 MHz combined laser linewidth expressed in Gamma units
DEFAULT_LINEWIDTH = 5.0 / 6.0
MIN_SPAN_GAMMA = 40.0   # the pulse's frequency grid must reach at least +-40 Gamma

_EPS = 1e-9

# The input domain: every number that enters the package lies within +-MAX_MAGNITUDE,
# above the 795 nm carrier (about 6.3e7 Gamma) where a rotating-wave model
# stops meaning anything; within it no square or product the model forms overflows
MAX_MAGNITUDE = 1e8
# The least positive double: a double x is > 0 exactly when x >= POSITIVE
POSITIVE = math.ulp(0.0)

# Each config dataclass declares its document keys in its fields, which only
# ``_schema`` reads: a key is its field's name unless the field carries the
# metadata {"key": ...}, and a number lies within [low, MAX_MAGNITUDE], low its
# metadata {"low": ...} (POSITIVE for "> 0") or else its section's.


def _require(cond, key, message):
    if not cond:
        raise ConfigValidationError(key, message)


def _check_numbers(key, value, low=-MAX_MAGNITUDE, high=MAX_MAGNITUDE, integer=False,
                   scalar=True, error=ConfigValidationError) -> np.ndarray:
    """The input domain's one check: ``value`` (a scalar if ``scalar``, else
    any array) as an array of numbers, or integers if ``integer``, each in
    [low, high] (printed (0, high] if low is POSITIVE), so not inf or nan;
    else ``error`` names ``key``.  Bools, strings, None and complex values
    are not numbers, nor is a ragged sequence; a Python int beyond int64
    (an object to numpy, also among floats) is an integer, out of range."""
    try:
        v = np.asarray(value)
    except ValueError:   # a ragged sequence, which numpy takes as no array
        v = None
    what, types = ("an integer", (int,)) if integer else ("a number", (int, float))
    if (v is None or v.dtype.kind not in ("iu" if integer else "iuf")
            and not (v.dtype == object and all(type(x) in types for x in v.flat))
            or scalar and v.ndim
            or v.ndim and not isinstance(value, np.ndarray)   # numpy reads [True, 1] as ints
            and any(isinstance(x, (bool, np.bool_)) for x in np.asarray(value, object).flat)):
        raise error(key, f"must be {what if scalar else 'numbers'}, got {value!r}")
    with np.errstate(invalid="ignore"):   # nan among objects compares as outside, silently
        inside = np.asarray((low <= v) & (v <= high), dtype=bool)
    if not inside.all():   # an entry's message, whatever array holds it
        lower = "(0" if low == POSITIVE else f"[{low:g}"
        raise error(key, f"must be {what} within {lower}, {high:g}], "
                         f"got {v[~inside].tolist()[0]!r}")
    return v


def _number_fields(config, section: str, low=-MAX_MAGNITUDE) -> None:
    """Check each int and float field of a config (an Optional one when
    set) with ``_check_numbers`` within its declared bounds (see
    ``_schema``), keyed ``section.key``, and store it as its type."""
    for key, (f, want, optional) in _schema(type(config)).items():
        value = getattr(config, f.name)
        if want in (int, float) and not (optional and value is None):
            _check_numbers(f"{section}.{key}", value, f.metadata.get("low", low),
                           integer=want is int)
            object.__setattr__(config, f.name, want(value))


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
    ``replace(rates, gamma_extra=...)`` keeps the coherence rates already
    resolved (fig3 stays at eta_s 0.7104); build a new RateTable instead.
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
        _number_fields(self, "rates", low=0.0)   # so the defaults computed from them are >= 0
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
        _require(self.Gamma21 <= self.Gamma2_total + _EPS, "rates.Gamma21",
                 f"partial rate {self.Gamma21} exceeds rates.Gamma2_total = {self.Gamma2_total}")
        _require(self.Gamma31 <= self.Gamma3_total + _EPS, "rates.Gamma31",
                 f"partial rate {self.Gamma31} exceeds rates.Gamma3_total = {self.Gamma3_total}")
        _require(self.Gamma42 + self.Gamma43 <= self.Gamma4_total + _EPS, "rates.Gamma42",
                 f"Gamma42 + Gamma43 = {self.Gamma42 + self.Gamma43} exceeds "
                 f"rates.Gamma4_total = {self.Gamma4_total}")


@dataclass(frozen=True)
class DriveConfig:
    """Strong-field Rabi frequencies and laser detunings, in Gamma units.

    The two-photon detuning is always derived: delta = delta_p + delta_d.
    """

    omega_c: float = field(default=0.0, metadata={"low": 0.0})
    omega_d: float = field(default=0.0, metadata={"low": 0.0})
    delta_p: float = 0.0
    delta_c: float = 0.0
    delta_d: float = 0.0

    def __post_init__(self):
        _number_fields(self, "fields")

    @property
    def delta(self) -> float:
        """Two-photon detuning delta_p + delta_d."""
        return self.delta_p + self.delta_d


@dataclass(frozen=True)
class MediumConfig:
    """Probe optical depth, wavelengths and the spatial grid (the other
    absorptions are not stored: see ``absorptions``).

    ``n_z`` is the number of integration steps across zeta in [0, 1],
    each a sixth-order Gauss-Magnus step (see ``propagation``).  The
    default 256 holds the presets within ~1e-13 of the converged
    transfer matrix; the error grows steeply with the optical depth
    (README, "Spatial grid"), so above OD ~300 raise n_z with the OD.
    """

    alpha_p: float = field(metadata={"low": 0.0})
    lambda_p: float = field(default=795.0, metadata={"low": POSITIVE})
    lambda_c: float = field(default=780.0, metadata={"low": POSITIVE})
    lambda_d: float = field(default=1324.0, metadata={"low": POSITIVE})
    lambda_s: float = field(default=1367.0, metadata={"low": POSITIVE})
    n_z: int = field(default=256, metadata={"low": 2})

    def __post_init__(self):
        _number_fields(self, "medium")
        # four-wave-mixing energy conservation: 1/lp + 1/ld = 1/lc + 1/ls
        lhs = 1.0 / self.lambda_p + 1.0 / self.lambda_d
        rhs = 1.0 / self.lambda_c + 1.0 / self.lambda_s
        mismatch = abs(lhs / rhs - 1.0)
        _require(mismatch <= 5e-3, "medium.lambda_s",
                 f"wavelengths violate energy conservation by {mismatch:.2%} (> 0.5%)")

    @classmethod
    def derive(cls, rates: RateTable, alpha_p: Optional[float] = None,
               od: Optional[float] = None, **grid) -> "MediumConfig":
        """Build a medium, checking that the rates derive its absorptions.

        Exactly one of ``alpha_p`` (the propagation-equation parameter)
        or ``od`` (the conventional resonant optical depth, -ln T) must
        be given; they are related by alpha_p = 2*od.  ``grid`` sets the
        wavelengths and ``n_z``; unset ones keep the field defaults.
        """
        _require((alpha_p is None) != (od is None), "medium.alpha_p",
                 "specify exactly one of alpha_p or od")
        if alpha_p is None:
            _check_numbers("medium.od", od, 0.0, MAX_MAGNITUDE / 2.0)   # alpha_p = 2 od
            alpha_p = 2.0 * od
        medium = cls(alpha_p=alpha_p, **grid)
        absorptions(rates, medium)
        return medium

    @property
    def od(self) -> float:
        """Conventional resonant optical depth, -ln(T) = alpha_p/2."""
        return self.alpha_p / 2.0


def absorptions(rates: RateTable, medium: MediumConfig) -> tuple:
    """The coupling and signal absorptions (alpha_c, alpha_s), which follow
    from alpha_p at fixed density and length, with jk = 31 and 43:

        alpha_l / alpha_p = (lambda_l/lambda_p)^2
                            * (Gamma_jk/gamma_jk) / (Gamma21/gamma21)

    ConfigValidationError names a rate that is not > 0, the medium.lambda_
    key of a wavelength ratio whose square leaves the float range, or the
    rates. key of the larger ratio when an absorption does.
    """
    for key in ("Gamma21", "gamma31", "gamma43"):
        _require(getattr(rates, key) > 0.0, f"rates.{key}", "must be > 0 to derive alpha_c/alpha_s")
    probe, alphas = rates.gamma21 / rates.Gamma21, []
    for name, lam, G, g in (("alpha_c", "lambda_c", "Gamma31", "gamma31"),
                            ("alpha_s", "lambda_s", "Gamma43", "gamma43")):
        wavelengths = getattr(medium, lam) / medium.lambda_p
        try:
            wavelengths **= 2   # a float's ** raises OverflowError where * would give inf
        except OverflowError:
            wavelengths = math.inf
        _require(math.isfinite(wavelengths), f"medium.{lam}",
                 f"{name} leaves the float range: (medium.{lam} / medium.lambda_p)^2 = "
                 f"({getattr(medium, lam):g} / {medium.lambda_p:g})^2")
        ratio = getattr(rates, G) / getattr(rates, g)
        alphas.append(medium.alpha_p * wavelengths * ratio * probe)
        _require(math.isfinite(alphas[-1]), f"rates.{g}" if ratio >= probe else "rates.Gamma21",
                 f"{name} leaves the float range at rates.{G} / rates.{g} = {ratio:g} "
                 f"and rates.gamma21 / rates.Gamma21 = {probe:g}")
    return tuple(alphas)


@dataclass(frozen=True)
class SweepOptions:
    mode: str = "fwm"
    start: float = field(default=-10.0, metadata={"key": "from"})
    stop: float = field(default=15.0, metadata={"key": "to"})
    step: float = field(default=0.1, metadata={"low": POSITIVE})
    # Lorentzian FWHM for the convolved columns
    linewidth: Optional[float] = field(default=None, metadata={"low": POSITIVE})

    def __post_init__(self):
        _require(self.mode in SWEEP_MODES, "sweep.mode",
                 f"must be one of {SWEEP_MODES}, got {self.mode!r}")
        _number_fields(self, "sweep")
        # bounds the step count either way, so rows is a finite count
        _require(abs(self.stop - self.start) <= self.step * MAX_MAGNITUDE, "sweep.step",
                 f"more than {MAX_MAGNITUDE:g} steps from sweep.from to sweep.to")
        _require(self.rows >= 1, "sweep.from", f"empty sweep range [{self.start}, {self.stop}]")

    @property
    def rows(self) -> int:
        """Number of probe detunings start, start + step, ... up to stop."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1


@dataclass(frozen=True)
class PulseOptions:
    # in 1/Gamma; the pulse is square, and the window defaults to 8 x duration
    duration: float = field(default=DEFAULT_PULSE_DURATION, metadata={"low": POSITIVE})
    window: Optional[float] = field(default=None, metadata={"low": POSITIVE})
    n_freq: int = field(default=4096, metadata={"low": 16})

    def __post_init__(self):
        _number_fields(self, "pulse")
        window = self.synthesis_window
        if window < 4.0 * self.duration:
            raise PulseGridError(
                "pulse.window",
                f"window {window:g} is shorter than 4x the pulse duration {self.duration:g}; "
                "the wrapped medium response would alias into the pulse")
        omega_max = math.pi * self.n_freq / window   # the sidebands' half-span
        if omega_max < MIN_SPAN_GAMMA:
            raise PulseGridError(
                "pulse.n_freq",
                f"frequency grid spans only +-{omega_max:.1f} Gamma; "
                f"needs +-{MIN_SPAN_GAMMA:.0f} (raise n_freq or shrink window)")
        if omega_max > MAX_MAGNITUDE:
            raise PulseGridError("pulse.window", f"frequency grid spans +-{omega_max:g} Gamma, "
                                 f"beyond the input domain +-{MAX_MAGNITUDE:g} (widen window)")
        # PulseResult.plateau averages the samples in the last third of the pulse
        if self.n_freq * self.duration <= 3.0 * window:
            raise PulseGridError(
                "pulse.n_freq",
                f"the last third of the pulse holds no sample: needs n_freq * duration > "
                f"3 * window, got {self.n_freq} * {self.duration:g} <= 3 * {window:g}")

    @property
    def synthesis_window(self) -> float:
        """The synthesis window: ``window`` if set, else 8x the duration."""
        return 8.0 * self.duration if self.window is None else self.window


@dataclass(frozen=True)
class ConfigBundle:
    """Everything one run needs; immutable and safe to share across workers."""

    rates: RateTable
    medium: MediumConfig
    drive: Optional[DriveConfig] = field(default=None, metadata={"key": "fields"})
    sweep: SweepOptions = field(default_factory=SweepOptions)
    pulse: PulseOptions = field(default_factory=PulseOptions)


SWEEP_MODES = ("fwm", "v_type", "cascade", "two_level")
PRESET_NAMES = ("fig3", "fig4", "od200")

def _key(f) -> str:
    return f.metadata.get("key", f.name)


@functools.cache
def _schema(cls) -> dict:
    """Document key -> (field, value type, optional) of a config dataclass,
    from its resolved annotations however spelled (``Optional[T]``, ``T |
    None``, a string): the one reading of its declarations, cached, so read-only."""
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        args = get_args(hints[f.name])
        want = next((t for t in args if t is not type(None)), hints[f.name])
        schema[_key(f)] = (f, want, type(None) in args)
    return MappingProxyType(schema)


_SECTIONS = _schema(ConfigBundle)   # section -> (bundle field, config dataclass, optional)


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads exponent floats as YAML 1.2 does.

    YAML 1.1 needs a dot and a signed exponent, so PyYAML alone reads
    ``1e5`` and ``1.0e4`` as strings.  Quoted scalars stay strings.
    """


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _checked_section(doc, section, **aliases):
    """A section's values keyed by field name, for its config class (or
    ``MediumConfig.derive``) to check.

    ``aliases`` maps input-only keys to their value type.
    """
    raw = doc.get(section, {})
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigValidationError(section, "section must be a mapping of scalar keys")
    schema = {key: (f.name, want) for key, (f, want, _) in _schema(_SECTIONS[section][1]).items()}
    schema.update((key, (key, want)) for key, want in aliases.items())
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigValidationError(f"{section}.{key}", "unknown key")
        name, want = schema[key]
        _require(value is not None, f"{section}.{key}", "must be set, got null")
        if want is int and isinstance(value, float) and value.is_integer():
            value = int(value)   # YAML reads 4e3 as a float
        out[name] = value
    return out


def parse_config(text: str) -> ConfigBundle:
    """Parse and validate a YAML config document into a ConfigBundle."""
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"malformed config document: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigParseError("config document must be a mapping of sections")
    for section in doc:
        if section not in _SECTIONS:
            raise ConfigValidationError(str(section), "unknown section")

    rates = RateTable(**_checked_section(doc, "rates"))

    medium = MediumConfig.derive(rates, **_checked_section(doc, "medium", od=float))

    drive = None
    if doc.get("fields") is not None:
        drive = DriveConfig(**_checked_section(doc, "fields"))
    return ConfigBundle(rates=rates, medium=medium, drive=drive,
                        sweep=SweepOptions(**_checked_section(doc, "sweep")),
                        pulse=PulseOptions(**_checked_section(doc, "pulse")))


def load_config(path) -> ConfigBundle:
    """Load and validate a config document from a file path."""
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def canonical_dict(config) -> dict:
    """Fully-resolved plain-dict form; the basis for hashing and round-trips.

    Every field that is set is written under its document key; a nested
    config dataclass becomes a section.
    """
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if value is not None:
            doc[_key(f)] = canonical_dict(value) if is_dataclass(value) else value
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
