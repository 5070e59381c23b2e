"""JSON config parsing, unit alternates, and round-trip serialization."""

import json
import math
import re
from pathlib import Path

import pytest

from fastlight import (
    ParameterError,
    default_config,
    group_advance,
    load_config,
    parse_config,
    serialize_config,
    transmission,
)
from fastlight.atomic_response import C_LIGHT
from fastlight.config import _ALIASES, GridConfig, LineConfig, MediumConfig, PulseConfig, RunConfig

_REDUCED = {"line": {"t0_us": 0.28, "gamma_prime_rad_per_us": 1.25}}
_ONE_SECTION = r"config: give exactly one of line \(reduced\) or medium \(physical\)"

# canonical values below mirror the parser's own conversion expressions so
# the equality checks are exact
_MEDIUM_CANONICAL = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_rad_per_us": 2 * math.pi * 6.0,
    "omega_c_rabi_rad_per_us": 2 * math.pi * 40.0,
    "Delta_rad_per_us": 2 * math.pi * 900.0,
    "length_m": 10.0 * 1e-2,
    "omega0_rad_per_us": 2 * math.pi * C_LIGHT / (794.98 * 1e-9) / 1e6,
}
_MEDIUM_ALTERNATE = {
    "beta_rad_per_us": 0.0022,
    "gamma_rad_per_us": 1.2285,
    "Gamma_mhz": 6.0,
    "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0,
    "length_cm": 10.0,
    "wavelength_nm": 794.98,
}


def test_default_config_is_half_transmitting():
    cfg = default_config()
    assert cfg.mode == "reduced"
    assert cfg.line.t0_us == 0.28
    assert cfg.pulse.sigma_us == 28.0
    assert cfg.propagation == "spectral"
    line = cfg.reduced_line()
    assert line.t0 == 0.28 * 1e-6
    assert transmission(line) == pytest.approx(0.5, rel=1e-12)


def test_parse_infers_reduced_mode_and_transmission_spelling():
    cfg = parse_config({"line": {"t0_us": 0.28, "line_center_transmission": 0.5}})
    assert cfg.mode == "reduced" and cfg.medium is None
    assert cfg.line.gamma_prime_rad_per_us == -math.log(0.5) / (2 * 0.28)


# a value in each alternate unit for the table's every alternate spelling
_ALTERNATE_VALUES = {
    "beta_mhz": 0.00035, "gamma_mhz": 0.1955, "Gamma_mhz": 6.0, "omega_c_rabi_mhz": 40.0,
    "Delta_mhz": 900.0, "length_cm": 10.0, "omega0_mhz": 3.771e8, "wavelength_nm": 794.98,
    "line_center_transmission": 0.5,
}


def test_parse_unit_alternates_match_canonical_keys():
    canonical = parse_config({"medium": dict(_MEDIUM_CANONICAL)})
    alternate = parse_config({"medium": dict(_MEDIUM_ALTERNATE)})
    assert canonical == alternate
    # each alternate in the table, alone in place of its key in the canonical
    # section, parses to its converter's value and leaves the other keys as given
    sections = {"medium": _MEDIUM_CANONICAL, "line": _REDUCED["line"]}
    for key, alternates in _ALIASES.items():
        (section_name,) = [name for name, section in sections.items() if key in section]
        section = sections[section_name]
        for spelling, convert in alternates.items():
            given = {k: v for k, v in section.items() if k != key}
            given[spelling] = value = _ALTERNATE_VALUES[spelling]
            parsed = getattr(parse_config({section_name: given}), section_name)
            assert getattr(parsed, key) == convert(value, section), spelling
            assert {k: getattr(parsed, k) for k in given if k != spelling} == {
                k: v for k, v in given.items() if k != spelling
            }, spelling


def test_physical_line_comes_from_the_medium():
    cfg = parse_config({"medium": dict(_MEDIUM_ALTERNATE)})
    assert cfg.mode == "physical"
    assert cfg.reduced_line() == group_advance(cfg.medium.medium_spec())
    spec = cfg.medium.medium_spec()
    assert spec.Gamma == 2 * math.pi * 6.0 * 1e6
    assert spec.length == 0.1


def test_medium_spec_unavailable_in_reduced_mode():
    # the medium section builds the spec, and a reduced config has none
    cfg = default_config()
    assert cfg.medium is None
    assert cfg.reduced_line() == cfg.line.reduced_line()


def test_reduced_line_converts_to_si():
    cfg = parse_config(_REDUCED)
    line = cfg.reduced_line()
    assert line.t0 == 0.28 * 1e-6
    assert line.gamma_prime == 1.25 * 1e6
    assert cfg.pulse_sigma_s() == 28.0 * 1e-6


@pytest.mark.parametrize(
    "data, fragment",
    [
        # The given section is the model, so a config that names a mode is
        # refused.  Pinned ids keep each case's name stable in test reports.
        pytest.param(
            {"mode": "sideways", "line": _REDUCED["line"]}, "^mode: unknown key$", id="data0-mode"
        ),
        pytest.param({}, _ONE_SECTION, id="data1-mode: required"),
        pytest.param(
            {"line": _REDUCED["line"], "medium": _MEDIUM_ALTERNATE},
            _ONE_SECTION,
            id="data2-mode: required",
        ),
        pytest.param(
            {"mode": "reduced", "line": _REDUCED["line"], "medium": _MEDIUM_ALTERNATE},
            "^mode: unknown key$",
            id="data3-not allowed in reduced mode",
        ),
        pytest.param(
            {"mode": "physical", "line": _REDUCED["line"]},
            "^mode: unknown key$",
            id="data4-medium: required",
        ),
        pytest.param({"mode": "reduced"}, "^mode: unknown key$", id="data5-line: required"),
        ({"line": _REDUCED["line"], "bogus": 1}, "bogus: unknown key"),
        ({"line": {"t0_us": 0.28, "gamma_prime_rad_per_us": 1.25, "x": 1}}, "line.x"),
        ({"line": {"gamma_prime_rad_per_us": 1.25}}, "line.t0_us: required"),
        ({"line": {"t0_us": 0.28}}, "exactly one"),
        (
            {
                "line": {
                    "t0_us": 0.28,
                    "gamma_prime_rad_per_us": 1.25,
                    "line_center_transmission": 0.5,
                }
            },
            "exactly one",
        ),
        ({"line": {"t0_us": 0.28, "line_center_transmission": 1.0}}, r"\(0, 1\)"),
        ({"line": {"t0_us": 0.0, "line_center_transmission": 0.5}}, "must be > 0"),
        ({"line": {"t0_us": "fast", "gamma_prime_rad_per_us": 1.25}}, "must be a number"),
        ({"line": {"t0_us": True, "gamma_prime_rad_per_us": 1.25}}, "must be a number"),
        ({"line": 7}, "line: must be an object"),
        pytest.param(
            {"mode": "physical", "line": _REDUCED["line"], "medium": _MEDIUM_ALTERNATE},
            "^mode: unknown key$",
            id="data16-line: not allowed in physical mode",
        ),
    ],
)
def test_parse_rejects_bad_top_level_and_line(data, fragment):
    with pytest.raises(ParameterError, match=fragment):
        parse_config(data)


def _medium_without(*keys, **extra):
    data = {k: v for k, v in _MEDIUM_ALTERNATE.items() if k not in keys}
    data.update(extra)
    return {"medium": data}


@pytest.mark.parametrize(
    "data, fragment",
    [
        (_medium_without("Gamma_mhz"), "medium.Gamma_rad_per_us: required"),
        (_medium_without("length_cm"), "medium.length_m: required"),
        (_medium_without("wavelength_nm"), "medium.omega0_rad_per_us: required"),
        (_medium_without(Gamma_rad_per_us=37.0), "exactly one"),
        (_medium_without(length_m=0.1), "exactly one"),
        (_medium_without(omega0_mhz=3.77e8), "exactly one"),
        (_medium_without("wavelength_nm", wavelength_nm=-5.0), "must be > 0"),
        (_medium_without(dip_angle=3.0), "medium.dip_angle: unknown key"),
        ({"medium": []}, "medium: must be an object"),
        (_medium_without(gamma_rad_per_us=-1.0), "medium.gamma: must be finite and > 0"),
        (_medium_without(length_cm=math.inf), r"^medium\.length: must be finite and >= 0$"),
    ],
)
def test_parse_rejects_bad_medium(data, fragment):
    with pytest.raises(ParameterError, match=fragment):
        parse_config(data)


@pytest.mark.parametrize(
    "extra, fragment",
    [
        ({"theta_list_deg": [0.0, 95.0]}, r"\(-90, 90\]"),
        ({"theta_list_deg": [-90.0]}, r"\(-90, 90\]"),
        ({"theta_list_deg": []}, "must not be empty"),
        ({"theta_list_deg": "all"}, "must be an array"),
        ({"theta_list_deg": [0.0, "up"]}, "entries must be numbers"),
        ({"transmission_list": [0.5, 0.0]}, r"\(0, 1\]"),
        ({"transmission_list": []}, "must not be empty"),
        ({"propagation": "fft"}, "propagation"),
        ({"relative_phase": 0.3}, "relative_phase: unknown key"),
        ({"spectrum_points": 8}, ">= 16"),
        ({"spectrum_points": 3.5}, "must be an integer"),
        ({"output_dir": ""}, "non-empty string"),
        ({"pulse": {"sigma_us": -1.0}}, "pulse.sigma_us"),
        ({"pulse": {"sigma_us": 28.0, "shape": "sech"}}, "pulse.shape: unknown key"),
        ({"grid": {"n_samples": 3000}}, "power-of-two"),
        ({"grid": {"n_samples": 128}}, "power-of-two"),
        ({"grid": {"n_samples": 4096.0}}, "must be an integer"),
        ({"grid": {"span_sigmas": 8.0}}, ">= 16"),
        ({"spectrum_points": 2**20 + 1}, "<= 1048576"),
        ({"spectrum_points": 10**12}, "<= 1048576"),
        ({"grid": {"n_samples": 2**23}}, "<= 4194304"),
        ({"grid": {"n_samples": 2**40}}, "<= 4194304"),
        ({"pulse": {"sigma_us": 10**400}}, "pulse.sigma_us: must be a finite number"),
        ({"theta_list_deg": [0.0, -(10**400)]}, "theta_list_deg: must be a finite number"),
        ({"output_dir": "a\x00b"}, "^output_dir: must not contain a NUL character$"),
    ],
)
def test_parse_rejects_bad_run_options(extra, fragment):
    data = dict(_REDUCED)
    data.update(extra)
    with pytest.raises(ParameterError, match=fragment):
        parse_config(data)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LineConfig(t0_us=-1.0, gamma_prime_rad_per_us=1.0),
        lambda: LineConfig(t0_us=0.28, gamma_prime_rad_per_us=0.0),
        lambda: PulseConfig(sigma_us=0.0),
        lambda: PulseConfig(amplitude=-1.0),
        lambda: GridConfig(n_samples=100),
        lambda: GridConfig(span_sigmas=4.0),
        lambda: RunConfig(line=None),
        lambda: RunConfig(
            line=LineConfig(t0_us=0.28, gamma_prime_rad_per_us=1.25),
            medium=MediumConfig(**_MEDIUM_CANONICAL),
        ),
    ],
)
def test_dataclass_validation(factory):
    with pytest.raises(ParameterError):
        factory()


def _full_reduced_config():
    return parse_config(
        {
            "line": {"t0_us": 0.28, "gamma_prime_rad_per_us": 1.2377},
            "pulse": {"sigma_us": 10.0, "amplitude": 2.0},
            "grid": {"n_samples": 8192, "span_sigmas": 64.0},
            "theta_list_deg": [-40.0, -50.0, -43.0],
            "transmission_list": [0.05, 0.5],
            "propagation": "ideal",
            "spectrum_points": 2001,
            "output_dir": "results",
        }
    )


def test_serialize_round_trips_exactly():
    for cfg in (
        default_config(),
        _full_reduced_config(),
        parse_config({"medium": dict(_MEDIUM_ALTERNATE)}),
    ):
        assert parse_config(serialize_config(cfg)) == cfg


def test_save_and_load_round_trip(tmp_path):
    cfg = _full_reduced_config()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(serialize_config(cfg), indent=2), encoding="utf-8")
    assert load_config(path) == cfg


def test_load_reports_missing_and_invalid_files(tmp_path):
    with pytest.raises(ParameterError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParameterError, match="not valid JSON"):
        load_config(bad)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"line": {"t0_us": 0.28, "line_center_transmission": 0.5, "t0_us": 0.5}}', "t0_us"),
        (
            '{"line": {"t0_us": 0.28, "line_center_transmission": 0.5},'
            ' "line": {"t0_us": 0.5, "line_center_transmission": 0.5}}',
            "line",
        ),
        (
            '{"line": {"t0_us": 0.28, "line_center_transmission": 0.5},'
            ' "pulse": {"sigma_us": 28.0, "sigma_us": 28.0}}',
            "sigma_us",
        ),
    ],
    ids=["in_a_section", "a_section", "same_value"],
)
def test_load_refuses_a_repeated_key(tmp_path, text, key):
    path = tmp_path / "run.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError) as excinfo:
        load_config(path)
    message = f"config file cannot be read: the key {key!r} is given more than once"
    assert str(excinfo.value) == message
    # parse_config reads a dict, which holds each key once
    parse_config(json.loads(text))


def test_readme_config_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    configs = [parse_config(json.loads(block)) for block in blocks]
    assert [cfg.mode for cfg in configs] == ["reduced", "physical"]
    # the reduction the README states for its physical example
    line = configs[1].reduced_line()
    assert round(line.t0 * 1e6, 4) == 0.2802
    assert round(transmission(line), 4) == 0.4997
