"""Run configuration: JSON schema, unit handling, and core-object factories.

Config files carry explicit units in their key names; everything is
canonicalized on parse to microsecond-based units (time in us, angular rates
in rad/us) and converted to SI only when core objects are built.
``_ALIASES`` lists every alternate spelling accepted on input with its
conversion to the canonical key; a key and its alternates are mutually
exclusive.

The line is given by exactly one section, and that section is the model:
``line`` drives the pipeline from (t0, gamma') directly ("reduced"), while
``medium`` derives them from the vapor parameters ("physical").  Bounds live
in the core objects: a config section that has a core counterpart builds it
when constructed, so bad values fail at load time; the time grid takes the
pulse width and the grid section, so ``RunConfig`` builds it.
``serialize_config`` always emits the canonical keys, so
parse(serialize(cfg)) reproduces cfg exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .atomic_response import C_LIGHT, MediumSpec, ReducedLine, group_advance
from .errors import ParameterError, check_angle_deg, check_number, check_path, check_positive
from .errors import check_transmission
from .pulse_engine import TimeGrid, check_grid_shape, default_grid

_US = 1e-6  # seconds per microsecond
_RAD_PER_US = 1e6  # rad/s per rad/us

_PROPAGATIONS = ("spectral", "ideal")
_MAX_SPECTRUM_POINTS = 1 << 20  # 7 float columns of 8 MiB each


@dataclass(frozen=True)
class LineConfig:
    """Reduced line: advance and broadened half-width in config units."""

    t0_us: float
    gamma_prime_rad_per_us: float

    def __post_init__(self):
        for f in fields(self):  # before a unit factor multiplies it
            check_number(f.name, getattr(self, f.name))
        self.reduced_line()

    def reduced_line(self) -> ReducedLine:
        return ReducedLine(
            t0=self.t0_us * _US,
            gamma_prime=self.gamma_prime_rad_per_us * _RAD_PER_US,
        )


@dataclass(frozen=True)
class MediumConfig:
    """Vapor-cell parameters in config units (rates rad/us, length m)."""

    beta_rad_per_us: float
    gamma_rad_per_us: float
    Gamma_rad_per_us: float
    omega_c_rabi_rad_per_us: float
    Delta_rad_per_us: float
    length_m: float
    omega0_rad_per_us: float

    def __post_init__(self):
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))
        self.medium_spec()

    def medium_spec(self) -> MediumSpec:
        return MediumSpec(
            beta=self.beta_rad_per_us * _RAD_PER_US,
            gamma=self.gamma_rad_per_us * _RAD_PER_US,
            Gamma=self.Gamma_rad_per_us * _RAD_PER_US,
            omega_c_rabi=self.omega_c_rabi_rad_per_us * _RAD_PER_US,
            Delta=self.Delta_rad_per_us * _RAD_PER_US,
            length=self.length_m,
            omega0=self.omega0_rad_per_us * _RAD_PER_US,
        )

    def reduced_line(self) -> ReducedLine:
        return group_advance(self.medium_spec())


@dataclass(frozen=True)
class PulseConfig:
    sigma_us: float = 28.0
    amplitude: float = 1.0

    def __post_init__(self):
        check_positive("sigma_us", self.sigma_us)
        check_positive("amplitude", self.amplitude)


@dataclass(frozen=True)
class GridConfig:
    n_samples: int = 4096
    span_sigmas: float = 32.0

    def __post_init__(self):
        check_grid_shape(self.n_samples, self.span_sigmas)


@dataclass(frozen=True)
class RunConfig:
    line: LineConfig | None = None
    medium: MediumConfig | None = None
    pulse: PulseConfig = field(default_factory=PulseConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    theta_list_deg: tuple = (-40.0, -50.0)
    transmission_list: tuple = (0.02, 0.05, 0.1, 0.2, 0.5, 0.9)
    propagation: str = "spectral"
    spectrum_points: int = 1601
    output_dir: str = "out"

    def __post_init__(self):
        if (self.line is None) == (self.medium is None):
            raise ParameterError("config: give exactly one of line (reduced) or medium (physical)")
        if self.propagation not in _PROPAGATIONS:
            raise ParameterError(
                f"propagation: must be one of {_PROPAGATIONS}; got "
                f"{self.propagation!r}"
            )
        if len(self.theta_list_deg) == 0:
            raise ParameterError("theta_list_deg: must not be empty")
        for th in self.theta_list_deg:
            check_angle_deg("theta_list_deg", th)
        if len(self.transmission_list) == 0:
            raise ParameterError("transmission_list: must not be empty")
        for t in self.transmission_list:
            check_transmission("transmission_list", t)
        if not isinstance(self.spectrum_points, int) or not (
            16 <= self.spectrum_points <= _MAX_SPECTRUM_POINTS
        ):
            raise ParameterError(
                f"spectrum_points: must be an integer >= 16 and <= {_MAX_SPECTRUM_POINTS}"
            )
        check_path("output_dir", self.output_dir)
        object.__setattr__(self, "theta_list_deg", tuple(self.theta_list_deg))
        object.__setattr__(self, "transmission_list", tuple(self.transmission_list))
        try:
            self.time_grid  # built now, so that a bad grid fails at load time
        except ParameterError as exc:
            raise ParameterError(
                f"{exc}, from pulse.sigma_us = {self.pulse.sigma_us:g} and "
                f"grid.span_sigmas = {self.grid.span_sigmas:g}"
            ) from None

    @property
    def mode(self) -> str:
        """The line model: "physical" if the medium section gives it, else "reduced"."""
        return "reduced" if self.medium is None else "physical"

    def reduced_line(self) -> ReducedLine:
        """The line the pipeline propagates through, in SI units."""
        return (self.medium or self.line).reduced_line()

    def pulse_sigma_s(self) -> float:
        return self.pulse.sigma_us * _US

    @functools.cached_property
    def time_grid(self) -> TimeGrid:
        """The run's grid: grid.n_samples points over grid.span_sigmas pulse widths."""
        return default_grid(self.pulse_sigma_s(), self.grid.n_samples, self.grid.span_sigmas)


def default_config() -> RunConfig:
    """Quick-start: a half-transmitting line advancing by 0.28 us."""
    return parse_config({"line": {"t0_us": 0.28, "line_center_transmission": 0.5}})


def _from_mhz(mhz: float, section: dict) -> float:
    return 2 * math.pi * mhz


def _from_wavelength(nm: float, section: dict) -> float:
    if not (nm > 0):
        raise ParameterError("medium.wavelength_nm: must be > 0")
    return 2 * math.pi * C_LIGHT / (nm * 1e-9) / _RAD_PER_US


def _from_line_center_transmission(t_tilde: float, section: dict) -> float:
    """gamma' = -ln(T~) / (2 t0), with t0 already read from the section."""
    if not (0 < t_tilde < 1):
        raise ParameterError(
            "line.line_center_transmission: must be in (0, 1) to fix gamma'"
        )
    if not (section["t0_us"] > 0):
        raise ParameterError(
            "line.t0_us: must be > 0 when gamma' is set via "
            "line_center_transmission"
        )
    return -math.log(t_tilde) / (2 * section["t0_us"])


# canonical key -> {alternate spelling: converter(value, canonical values of
# the section's earlier fields) to the canonical unit}
_ALIASES = {
    "beta_rad_per_us": {"beta_mhz": _from_mhz},
    "gamma_rad_per_us": {"gamma_mhz": _from_mhz},
    "Gamma_rad_per_us": {"Gamma_mhz": _from_mhz},
    "omega_c_rabi_rad_per_us": {"omega_c_rabi_mhz": _from_mhz},
    "Delta_rad_per_us": {"Delta_mhz": _from_mhz},
    "length_m": {"length_cm": lambda cm, section: cm * 1e-2},
    "omega0_rad_per_us": {"omega0_mhz": _from_mhz, "wavelength_nm": _from_wavelength},
    "gamma_prime_rad_per_us": {"line_center_transmission": _from_line_center_transmission},
}

_SECTIONS = {"line": LineConfig, "medium": MediumConfig, "pulse": PulseConfig, "grid": GridConfig}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_float(value, path: str) -> float:
    """float(value), refusing a JSON integer too large for a float."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{path}: must be a finite number") from None


def _typed(value, path: str, kind: str):
    """Check a JSON value against a field's annotated type.

    ``kind`` is the annotation as written ("float", "int", "tuple", "str"):
    postponed annotations keep dataclass field types as strings.
    """
    if kind == "float":
        if not _is_number(value):
            raise ParameterError(f"{path}: must be a number")
        return _as_float(value, path)
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParameterError(f"{path}: must be an integer")
        return value
    if kind == "tuple":
        if not isinstance(value, list):
            raise ParameterError(f"{path}: must be an array of numbers")
        if not all(_is_number(v) for v in value):
            raise ParameterError(f"{path}: entries must be numbers")
        return tuple(_as_float(v, path) for v in value)
    if not isinstance(value, str) or not value:
        raise ParameterError(f"{path}: must be a non-empty string")
    return value


def _parse_section(data, cls, section: str = ""):
    """Build ``cls`` from a JSON object, resolving each field's spellings."""
    if not isinstance(data, dict):
        raise ParameterError(f"{section or 'config'}: must be an object")
    prefix = f"{section}." if section else ""
    spellings = {f.name: (f.name, *_ALIASES.get(f.name, ())) for f in fields(cls)}
    unknown = set(data) - {name for names in spellings.values() for name in names}
    if unknown:
        raise ParameterError(f"{prefix}{sorted(unknown)[0]}: unknown key")
    values = {}
    for f in fields(cls):
        names = spellings[f.name]
        given = [name for name in names if name in data]
        if len(given) > 1:
            raise ParameterError(f"{section}: give exactly one of {' or '.join(names)}")
        if not given:
            if f.default is MISSING and f.default_factory is MISSING:
                hint = f" (give exactly one of {' or '.join(names)})" if len(names) > 1 else ""
                raise ParameterError(f"{prefix}{f.name}: required{hint}")
            continue
        name = given[0]
        if f.name in _SECTIONS:
            values[f.name] = _parse_section(data[name], _SECTIONS[f.name], f.name)
        else:
            value = _typed(data[name], prefix + name, f.type)
            convert = _ALIASES.get(f.name, {}).get(name)
            values[f.name] = value if convert is None else convert(value, values)
    try:
        return cls(**values)
    except ParameterError as exc:
        if not section:
            raise
        raise ParameterError(f"{section}.{exc}") from None


def parse_config(data) -> RunConfig:
    """Build a RunConfig from a parsed JSON object (dict)."""
    return _parse_section(data, RunConfig)


def serialize_config(cfg: RunConfig) -> dict:
    """Canonical JSON form; parse_config(serialize_config(cfg)) == cfg."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(cfg).items()
        if value is not None
    }


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refusing a key given twice: json would keep the last."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"the key {key!r} is given more than once")
        data[key] = value
    return data


def load_config(path) -> RunConfig:
    """Read and parse a JSON config file; a key given twice in one object is refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ParameterError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ParameterError(f"config file is not UTF-8 text: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParameterError(f"config file nests too deeply to parse: {path}") from None
    except ValueError as exc:  # a repeated key, int's digit limit, a NUL in the path
        raise ParameterError(f"config file cannot be read: {exc}") from None
    return parse_config(data)
