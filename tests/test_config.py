from __future__ import annotations   # the annotations below are strings, as in config.py

import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import diamondfwm as dfm
from diamondfwm import (ConfigValidationError, ConfigParseError, NumericalError, RateTable,
                        UnknownPresetError, bundle_hash, dump_config, parse_config)
from diamondfwm.config import _check_numbers, _number_fields

MINIMAL = "medium:\n  alpha_p: 75\n"


def test_minimal_document_applies_defaults():
    b = parse_config(MINIMAL)
    assert b.medium.alpha_p == 75.0
    assert b.rates.Gamma3_total == 1.0
    assert b.rates.gamma21 == pytest.approx(0.958 / 2)
    assert b.rates.gamma23 == pytest.approx((0.958 + 1.0) / 2)
    # derived optical depths from the single alpha formula
    want_c = 75.0 * (780.0 / 795.0) ** 2 * (1.0 / 0.5) * (0.479 / 0.958)
    alpha_c, alpha_s = dfm.absorptions(b.rates, b.medium)
    assert alpha_c == pytest.approx(want_c, rel=1e-12)
    assert alpha_s > 0
    assert b.drive is None


def test_partial_rate_exceeding_total_names_both_keys():
    doc = MINIMAL + "rates:\n  Gamma21: 1.2\n  Gamma2_total: 0.958\n"
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc)
    assert "Gamma21" in str(err.value)
    assert "Gamma2_total" in str(err.value)


def test_unknown_key_rejected():
    with pytest.raises(ConfigValidationError) as err:
        parse_config(MINIMAL + "rates:\n  Gamma99: 1\n")
    assert "rates.Gamma99" in str(err.value)
    with pytest.raises(ConfigValidationError):
        parse_config(MINIMAL + "nonsense:\n  a: 1\n")
    with pytest.raises(ConfigValidationError, match="^rates: section must be a mapping"):
        parse_config(MINIMAL + "rates: 5\n")


def test_malformed_document_is_a_parse_error():
    with pytest.raises(ConfigParseError):
        parse_config("rates: [unterminated\n")
    with pytest.raises(ConfigParseError):
        parse_config("- just\n- a\n- list\n")


def test_missing_alpha_rejected():
    with pytest.raises(ConfigValidationError) as err:
        parse_config("rates:\n  gamma_extra: 0.1\n")
    assert err.value.key == "medium.alpha_p"
    with pytest.raises(ConfigValidationError) as err:
        parse_config("medium:\n  alpha_p: 10\n  od: 5\n")
    assert err.value.key == "medium.alpha_p"
    with pytest.raises(ConfigValidationError) as err:
        parse_config("")   # the empty document
    assert err.value.key == "medium.alpha_p"


def test_wavelength_energy_conservation_enforced():
    with pytest.raises(ConfigValidationError) as err:
        parse_config("medium:\n  alpha_p: 10\n  lambda_d: 1200\n")
    assert "energy conservation" in str(err.value)


def test_negative_od_rejected():
    with pytest.raises(ConfigValidationError):
        parse_config("medium:\n  alpha_p: -3\n")


def test_fig3_preset_matches_operating_point():
    b = dfm.preset("fig3")
    assert b.medium.od == 75.0
    assert b.medium.alpha_p == 150.0
    assert (b.drive.omega_c, b.drive.omega_d) == (11.0, 9.0)
    assert (b.drive.delta_c, b.drive.delta_d) == (5.0, -4.0)


def test_fig4_preset_matches_operating_point():
    b = dfm.preset("fig4")
    assert b.medium.od == 110.0
    assert b.drive.omega_c == 20.0
    assert (b.drive.omega_d, b.drive.delta_c, b.drive.delta_d) == (12.0, 8.0, -5.0)


def test_od200_preset_leaves_drive_unset():
    b = dfm.preset("od200")
    assert b.medium.od == 200.0
    assert b.drive is None


def test_unknown_preset():
    with pytest.raises(UnknownPresetError):
        dfm.preset("fig99")


def test_two_photon_detuning_is_always_recomputed():
    d = dfm.DriveConfig(omega_c=1, omega_d=1, delta_p=-1.0, delta_c=0.0, delta_d=-4.0)
    assert d.delta == -5.0
    d2 = replace(d, delta_p=2.5)
    assert d2.delta == -1.5
    d3 = replace(d2, delta_d=0.5)
    assert d3.delta == 3.0


def test_all_totals_one_makes_alpha_c_equal_alpha_p():
    rates = RateTable(Gamma2_total=1.0, Gamma3_total=1.0, Gamma4_total=1.0,
                      Gamma21=1.0, Gamma31=1.0)
    med = dfm.MediumConfig.derive(rates, alpha_p=42.0, lambda_c=795.0,
                                  lambda_s=1324.0)
    assert dfm.absorptions(rates, med)[0] == pytest.approx(42.0, abs=0)


def test_default_gammas_are_halfsums_plus_extra():
    r = RateTable(gamma_extra=0.07)
    assert r.gamma21 == pytest.approx(0.958 / 2 + 0.07)
    assert r.gamma41 == pytest.approx(0.583 / 2 + 0.07)
    assert r.gamma43 == pytest.approx((1.0 + 0.583) / 2 + 0.07)


rate_values = st.floats(min_value=0.05, max_value=3.0)
detunings = st.floats(min_value=-15.0, max_value=15.0)
rabis = st.floats(min_value=0.0, max_value=30.0)


@settings(max_examples=40, deadline=None)
@given(g2=rate_values, g3=rate_values, g4=rate_values, extra=st.floats(0.0, 0.5),
       alpha=st.floats(min_value=0.1, max_value=500.0),
       wc=rabis, wd=rabis, dp=detunings, dc=detunings, dd=detunings,
       nz=st.integers(2, 5000))
def test_config_roundtrip_is_bit_exact(g2, g3, g4, extra, alpha, wc, wd, dp, dc, dd, nz):
    rates = RateTable(Gamma2_total=g2, Gamma3_total=g3, Gamma4_total=g4,
                      gamma_extra=extra)
    bundle = dfm.ConfigBundle(
        rates=rates,
        medium=dfm.MediumConfig.derive(rates, alpha_p=alpha, n_z=nz),
        drive=dfm.DriveConfig(omega_c=wc, omega_d=wd, delta_p=dp, delta_c=dc, delta_d=dd))
    again = parse_config(dump_config(bundle))
    assert again == bundle          # dataclass equality is field-exact
    assert bundle_hash(again) == bundle_hash(bundle)


def test_roundtrip_without_drive():
    b = dfm.preset("od200")
    assert parse_config(dump_config(b)) == b


def test_hash_stable_across_reserialization():
    b = dfm.preset("fig3")
    h1 = bundle_hash(b)
    h2 = bundle_hash(parse_config(dump_config(b)))
    assert h1 == h2


@pytest.mark.parametrize("edit, eta_s", [
    pytest.param(lambda b: replace(b, medium=replace(b.medium, alpha_p=300.0)), 0.0318,
                 id="alpha_p"),
    pytest.param(lambda b: replace(b, medium=replace(b.medium, lambda_c=781.0)), 0.7105,
                 id="lambda_c"),
    pytest.param(lambda b: replace(b, rates=RateTable(gamma_extra=0.5)), 0.0881, id="rates"),
    # replace() on a RateTable keeps the coherence rates it has resolved
    pytest.param(lambda b: replace(b, rates=replace(b.rates, gamma_extra=0.5)), 0.7104,
                 id="rates-replace"),
])
def test_scan_by_replace_is_the_document_it_dumps(edit, eta_s):
    # a config holds only document keys, so a bundle built with replace()
    # is the one its dump parses to, with the same hash and outputs
    b = edit(dfm.preset("fig3"))
    parsed = parse_config(dump_config(b))
    assert parsed == b
    assert bundle_hash(parsed) == bundle_hash(b)
    got, want = dfm.observables_at(b), dfm.observables_at(parsed)
    assert got == want   # floats, none NaN: bit for bit
    assert got.eta_s == pytest.approx(eta_s, abs=5e-5)


def test_od_and_alpha_p_are_consistent_views():
    rates = RateTable()
    m1 = dfm.MediumConfig.derive(rates, od=75.0)
    m2 = dfm.MediumConfig.derive(rates, alpha_p=150.0)
    assert m1 == m2
    assert m1.od == 75.0


def test_booleans_are_not_numbers():
    with pytest.raises(ConfigValidationError):
        parse_config("medium:\n  alpha_p: true\n")


def test_mode_overrides():
    b = dfm.preset("fig3")
    assert dfm.with_mode(b, "v_type").drive.omega_d == 0.0
    assert dfm.with_mode(b, "v_type").drive.omega_c == 11.0
    assert dfm.with_mode(b, "cascade").drive.omega_c == 0.0
    two = dfm.with_mode(b, "two_level").drive
    assert (two.omega_c, two.omega_d) == (0.0, 0.0)
    with pytest.raises(ConfigValidationError):
        dfm.with_mode(b, "sideways")
    with pytest.raises(ConfigValidationError):
        dfm.with_mode(dfm.preset("od200"), "fwm")


SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])
FUZZ_KEYS = {
    "rates": {"Gamma2_total": rate_values, "Gamma3_total": rate_values,
              "Gamma4_total": rate_values, "gamma_extra": st.floats(0.0, 0.5),
              "gamma31": rate_values},
    "medium": {"od": st.floats(0.0, 300.0)},
    "fields": {"omega_c": rabis, "omega_d": rabis, "delta_p": detunings,
               "delta_c": detunings, "delta_d": detunings},
    "sweep": {"step": st.floats(0.01, 1.0), "linewidth": st.floats(0.1, 5.0)},
    # any of these, with the other absent or either default, is a valid pulse:
    # window >= 4 duration, the 4096-sample grid spans +-40 Gamma
    "pulse": {"duration": st.floats(1.0, 25.0), "window": st.floats(100.0, 300.0)},
}
FUZZ_KEY_NAMES = [(section, key) for section, keys in FUZZ_KEYS.items() for key in keys]


@st.composite
def fuzz_documents(draw):
    """YAML documents whose numbers are finite draws or absent, with one key
    inf, -inf or nan in about one document of four, so that most documents
    parse and reach the physics; returns (text, whether a value is non-finite)."""
    doc = {"medium": {"od": 75.0, "n_z": 100}}
    for section, keys in FUZZ_KEYS.items():
        for key, values in keys.items():
            value = draw(st.one_of(st.none(), values))
            if value is not None:
                doc.setdefault(section, {})[key] = value
    special = draw(st.integers(0, 3)) == 0
    if special:
        section, key = draw(st.sampled_from(FUZZ_KEY_NAMES))
        doc.setdefault(section, {})[key] = draw(SPECIAL)
    return yaml.safe_dump(doc), special


@settings(max_examples=60, deadline=None)
@given(drawn=fuzz_documents())
def test_config_is_rejected_or_gives_finite_observables(drawn):
    text, special = drawn
    try:
        bundle = parse_config(text)
    except ConfigValidationError:
        return
    assert not special, "a non-finite value passed validation"
    if bundle.drive is not None:
        try:
            obs = dfm.observables_at(bundle)
        except NumericalError as err:
            # the documented exit 4 of these documents: a drawn gamma31 that no
            # master equation has, below a quarter of Gamma3_total (no physical
            # two-level state at some coupling strength) or out of step with
            # the other rates (the medium amplifies); each names the rates
            assert "gamma31:" in text and "rates" in str(err)
            return
        assert all(math.isfinite(v) for v in (obs.T_p, obs.eta_s, obs.T_s, obs.eta_p))


@pytest.mark.parametrize("key, value", [
    ("fields.delta_c", ".inf"), ("fields.omega_c", ".nan"), ("rates.Gamma2_total", ".inf"),
    ("pulse.duration", ".inf"), ("pulse.window", ".inf"), ("sweep.linewidth", ".inf"),
    ("medium.od", ".inf"), ("medium.alpha_p", "-.inf"), ("pulse.n_freq", ".inf")])
def test_non_finite_value_names_its_key(key, value):
    section, name = key.split(".")
    doc = f"{section}:\n  {name}: {value}\n"
    with pytest.raises(ConfigValidationError) as err:
        parse_config(doc if section == "medium" else MINIMAL + doc)
    assert key in str(err.value)


@pytest.mark.parametrize("make, key", [
    pytest.param(lambda: dfm.MediumConfig.derive(RateTable(), od=True), "medium.od", id="od-bool"),
    pytest.param(lambda: dfm.MediumConfig.derive(RateTable(), od="75"), "medium.od", id="od-str"),
    pytest.param(lambda: dfm.MediumConfig.derive(RateTable(), alpha_p="150"), "medium.alpha_p",
                 id="alpha_p-str"),
    pytest.param(lambda: dfm.MediumConfig.derive(RateTable(), od=75.0, lambda_p="795"),
                 "medium.lambda_p", id="lambda_p-str"),
    pytest.param(lambda: dfm.SweepOptions(start=True), "sweep.from", id="start-bool"),
    pytest.param(lambda: dfm.SweepOptions(linewidth=True), "sweep.linewidth",
                 id="linewidth-bool"),
    pytest.param(lambda: dfm.SweepOptions(step="0.1"), "sweep.step", id="step-str"),
    pytest.param(lambda: dfm.PulseOptions(window=True), "pulse.window", id="window-bool"),
    pytest.param(lambda: dfm.PulseOptions(duration="7"), "pulse.duration", id="duration-str"),
    pytest.param(lambda: RateTable(Gamma4_total="x"), "rates.Gamma4_total",
                 id="Gamma4_total-str")])
def test_python_api_rejects_wrong_types_by_key(make, key):
    # the YAML reader checks these types itself; a Python caller reaches
    # the config classes directly
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(key)}: must be a number"):
        make()


@pytest.mark.parametrize("make, key", [
    pytest.param(lambda: dfm.observables_at(dfm.preset("fig3"), delta_p=[[1, 2], 3]),
                 "fields.delta_p", id="delta_p"),
    pytest.param(lambda: dfm.transfer_matrix(0.0, dfm.preset("fig3"), zeta_span=((0, 1), 2)),
                 "zeta_span", id="zeta_span"),
    pytest.param(lambda: _check_numbers("k", [[1, 2], [3]], integer=True, scalar=False), "k",
                 id="integers")])
def test_ragged_sequence_names_its_key(make, key):
    # numpy takes a ragged sequence as no array, with a bare ValueError
    with pytest.raises(ConfigValidationError, match=f"^{re.escape(key)}: must be numbers, got"):
        make()


def test_nan_among_objects_names_its_key_without_a_warning():
    # an int beyond int64 makes an object array, whose nan numpy compares with
    # a RuntimeWarning: an error under this suite's settings
    with pytest.raises(ConfigValidationError, match=r"^k: must be a number within .* got nan"):
        _check_numbers("k", [float("nan"), 10**30], scalar=False)


@pytest.mark.parametrize("doc, section, name, want", [
    pytest.param("medium:\n  od: 1e5\n", "medium", "od", 1e5, id="1e5"),
    pytest.param(MINIMAL + "fields:\n  omega_c: 1.0e4\n", "drive", "omega_c", 1e4, id="1.0e4"),
    pytest.param(MINIMAL + "fields:\n  delta_c: -2E-3\n", "drive", "delta_c", -2e-3,
                 id="-2E-3"),
    pytest.param("medium:\n  od: 75\n  n_z: 4e3\n", "medium", "n_z", 4000, id="n_z-4e3")])
def test_exponent_floats_are_numbers(doc, section, name, want):
    b = parse_config(doc)
    value = getattr(getattr(b, section), name)
    assert value == want and type(value) is type(want)
    assert parse_config(dump_config(b)) == b


def test_quoted_exponent_stays_a_string():
    with pytest.raises(ConfigValidationError, match=r"medium.od: must be a number, got '1e5'"):
        parse_config('medium:\n  od: "1e5"\n')


# the count bounds' command-line cases are in test_cli.py
@pytest.mark.parametrize("make, key", [
    # (to - from) / step is -inf: the step bound comes before the empty-range rule
    pytest.param(lambda: dfm.SweepOptions(start=5.0, stop=4.0, step=1e-320), "sweep.step",
                 id="empty-step-1e-320"),
    pytest.param(lambda: dfm.SweepOptions(start=5.0, stop=4.0), "sweep.from", id="empty"),
    pytest.param(lambda: dfm.PulseOptions(duration=10.0, window=30.0), "pulse.window",
                 id="window-under-4-durations"),
    pytest.param(lambda: dfm.PulseOptions(n_freq=16), "pulse.n_freq", id="span-under-40")])
def test_each_section_checks_its_own_grid(make, key):
    with pytest.raises(ConfigValidationError) as err:
        make()
    assert err.value.key == key


def test_sweep_rows_and_pulse_window_resolve_once():
    assert dfm.SweepOptions().rows == 251
    assert dfm.SweepOptions(start=0.0, stop=0.0).rows == 1
    assert dfm.SweepOptions(start=0.0, stop=-1e-12, step=1.0).rows == 1   # round-off
    pulse = dfm.PulseOptions(duration=5.0)
    assert pulse.synthesis_window == 40.0
    assert replace(pulse, duration=6.0).synthesis_window == 48.0
    assert replace(pulse, window=30.0).synthesis_window == 30.0


def test_readme_config_example_round_trips():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```yaml\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    b = parse_config(block.group(1))
    assert b.drive is not None
    assert parse_config(dump_config(b)) == b


@dataclass(frozen=True)
class _Spelled:
    """Number fields spelled two ways a config class may spell an optional one."""

    a: Optional[int] = field(default=None, metadata={"low": 1})
    b: float | None = None

    def __post_init__(self):
        _number_fields(self, "spelled")


@pytest.mark.parametrize("key, value", [
    ("a", "abc"), ("a", -5), ("a", 0), ("a", math.nan), ("a", 1.5),
    ("b", "abc"), ("b", -1e9), ("b", math.nan), ("b", math.inf)])
def test_every_declared_field_is_checked_however_spelled(key, value):
    with pytest.raises(ConfigValidationError, match=rf"^spelled\.{key}: must be an? ") as err:
        _Spelled(**{key: value})
    assert err.value.key == f"spelled.{key}"


def test_declared_optional_fields_store_their_type():
    assert _Spelled() == _Spelled(None, None)
    got = _Spelled(a=3, b=2)
    assert (got.a, got.b) == (3, 2.0) and type(got.b) is float


WAVELENGTHS = ("lambda_p", "lambda_c", "lambda_d", "lambda_s")


@pytest.mark.parametrize("make, key", [
    pytest.param(lambda v, name=name: parse_config(f"medium: {{od: 75, {name}: {v}}}\n"),
                 f"medium.{name}", id=name) for name in WAVELENGTHS] + [
    pytest.param(lambda v: dfm.SweepOptions(step=v), "sweep.step", id="step"),
    pytest.param(lambda v: dfm.SweepOptions(linewidth=v), "sweep.linewidth", id="linewidth"),
    pytest.param(lambda v: dfm.PulseOptions(duration=v), "pulse.duration", id="duration"),
    pytest.param(lambda v: dfm.PulseOptions(window=v), "pulse.window", id="window"),
    pytest.param(lambda v: dfm.lorentzian_convolve([0.0, 1.0], [1.0, 1.0], v), "fwhm",
                 id="fwhm")])
@pytest.mark.parametrize("value", [0.0, -0.0, -5e-324])
def test_positive_keys_reject_zero_with_their_bound(make, key, value):
    with pytest.raises(ConfigValidationError,
                       match=rf"^{re.escape(key)}: must be a number within \(0, 1e\+08\], "):
        make(value)
