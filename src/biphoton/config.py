"""Run configuration: unit-aware parsing, validation, and fingerprinting.

Config files are JSON; command-line flags override file values.  Lengths
accept nm/um/mm/cm/m suffixes and angles accept deg/rad; bare numbers are
SI.  Everything is converted to SI at this boundary and the computational
modules never see units.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

# CPython's built-in SHA-256 first: hashlib loads OpenSSL's libcrypto, about
# 3.5 MB of a CLI process's peak, for a digest of a few hundred bytes.
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in module

from . import fields
from .coincidence import DetectorModel
from .phasematch import ConfigurationError, CrystalSetup, PumpSpec

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
_ANGLE_UNITS = {"deg": math.pi / 180.0, "rad": 1.0}


class ConfigError(ConfigurationError):
    """Malformed or inconsistent run configuration."""


def parse_quantity(value, kind: str, key: str = "") -> float:
    """Parse a config value of the given kind ("length" | "angle" | "number").

    Numbers, and strings without a unit suffix, are taken as SI.  The
    result must be finite.
    """
    units = {"length": _LENGTH_UNITS, "angle": _ANGLE_UNITS,
             "number": {}}.get(kind)
    if units is None:
        raise ConfigError(f"{key}: unknown quantity kind {kind!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        text, scale = value, 1.0
    elif isinstance(value, str):
        text, scale = value.strip().replace(" ", ""), 1.0
        for suffix in sorted(units, key=len, reverse=True):
            if text.endswith(suffix):
                text, scale = text[: -len(suffix)], units[suffix]
                break
    else:
        raise ConfigError(
            f"{key}: expected number or unit string, got {value!r}")
    try:
        number = float(text) * scale
    except (ValueError, OverflowError):
        accepted = f"; accepted units: {sorted(units)}" if units else ""
        raise ConfigError(f"{key}: cannot parse {value!r}{accepted}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class GridConfig:
    n: int = fields.DEFAULT_N
    c1: float = fields.EXTENT_C1
    c2: float = fields.EXTENT_C2
    boundary_tol: float = fields.BOUNDARY_TOLERANCE
    memory_budget: int = fields.MEMORY_BUDGET


@dataclass(frozen=True)
class EntanglementConfig:
    m: int | None = None  # None: use the fine grid size


@dataclass(frozen=True)
class CoincidenceConfig:
    pitch: float = DetectorModel.pitch
    quantum_efficiency: float = DetectorModel.quantum_efficiency
    dark_rate: float = DetectorModel.dark_rate
    roi: tuple[int, int] | None = None  # None: auto-size to the grid
    mu_pairs: float = 5.0
    n_frames: int = 10000
    seed: int = 0

    def detector(self, roi: tuple[int, int]) -> DetectorModel:
        return DetectorModel(pitch=self.pitch,
                             quantum_efficiency=self.quantum_efficiency,
                             dark_rate=self.dark_rate, roi=roi)


@dataclass(frozen=True)
class RunConfig:
    """Full run description; defaults are the single-crystal working point
    (355 nm pump, 507 um waist, L = 5 mm, collinear-ish theta_p, z = 5 mm)."""

    pump: PumpSpec = field(default_factory=lambda: PumpSpec(355e-9, 507e-6))
    setup: CrystalSetup = field(
        default_factory=lambda: CrystalSetup.single(5e-3, math.radians(32.9)))
    z: float = 5e-3
    grid: GridConfig = field(default_factory=GridConfig)
    entanglement: EntanglementConfig = field(default_factory=EntanglementConfig)
    coincidence: CoincidenceConfig = field(default_factory=CoincidenceConfig)
    outdir: str = "."
    formats: tuple[str, ...] = ("grd", "csv", "pgm")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["formats"] = list(self.formats)
        return d

    def fingerprint(self) -> str:
        """Stable hash of the physics/seed configuration, embedded in every
        output.  Output location and formats are excluded so the same run
        written to two directories carries the same fingerprint."""
        d = self.to_dict()
        d.pop("outdir", None)
        d.pop("formats", None)
        canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()[:16]


#: Each key's kind, then its range if it has one: "> a", ">= a [unit]" or
#: "in [a, b]".  A value outside its range is a configuration error, raised
#: before any computation.
_SCHEMA = {
    "pump": {"wavelength": "length", "waist": "length"},
    "crystal": {"kind": "str", "length": "length", "gap": "length",
                "theta_p": "angle"},
    "z": "length",
    "grid": {"n": "int", "c1": "float > 0", "c2": "float > 0",
             "boundary_tol": "float > 0", "memory_budget": "int >= 1 byte"},
    "entanglement": {"m": "int"},
    "coincidence": {"pitch": "length > 0",
                    "quantum_efficiency": "float in [0, 1]",
                    "dark_rate": "float >= 0", "roi": "list",
                    "mu_pairs": "float >= 0", "n_frames": "int >= 1",
                    "seed": "int >= 0"},
    "output": {"dir": "str", "formats": "list"},
}


def _in_range(value, rule: str) -> bool:
    op, bound = rule.split(" ", 1)
    if op == "in":
        low, high = json.loads(bound)
        return low <= value <= high
    bound = float(bound.split()[0])
    return {">": value > bound, ">=": value >= bound}[op]


def _check_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, sub in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(schema[key], dict):
            if not isinstance(sub, dict):
                raise ConfigError(f"'{where}' must be a table of settings")
            _check_keys(sub, schema[key], where)


def _convert(value, kind: str, key: str):
    """One config value converted by its ``_SCHEMA`` kind.

    Integer keys accept integral numbers only; lists must be JSON arrays.
    """
    if kind in ("length", "angle"):
        return parse_quantity(value, kind, key)
    if kind == "float":
        return parse_quantity(value, "number", key)
    if kind == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        number = parse_quantity(value, "number", key)
        if not number.is_integer():
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(number)
    if kind == "list":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return list(value)
    return str(value)


def build_config(data: dict) -> RunConfig:
    """Build a validated RunConfig from a (merged) plain dict."""
    _check_keys(data, _SCHEMA)
    defaults = RunConfig()

    def get(section: str, key: str, default):
        # The value converted by its schema kind, or the default if absent.
        table = data.get(section, {})
        if key not in table or (table[key] is None and default is None):
            return default
        kind, _, rule = _SCHEMA[section][key].partition(" ")
        value = _convert(table[key], kind, f"{section}.{key}")
        if rule and not _in_range(value, rule):
            raise ConfigError(f"{section}.{key}: must be {rule}, got {value!r}")
        return value

    def build(section: str, default, **fixed):
        # The section's object, each key not in ``fixed`` got as above.
        return type(default)(**fixed, **{
            key: get(section, key, getattr(default, key))
            for key in _SCHEMA[section] if key not in fixed})

    pump = build("pump", defaults.pump)

    kind = get("crystal", "kind", defaults.setup.kind)
    if kind == "single" and "gap" in data.get("crystal", {}):
        raise ConfigError("crystal.gap requires crystal.kind = double")
    try:
        setup = build("crystal", defaults.setup, kind=kind)
    except ConfigurationError as exc:
        raise ConfigError(f"crystal: {exc}") from exc

    grid = build("grid", defaults.grid)
    if grid.n < 8 or (grid.n & (grid.n - 1)) != 0:
        raise ConfigError(f"grid.n must be a power of two >= 8, got {grid.n}")

    ent = build("entanglement", defaults.entanglement)
    if ent.m is not None and (ent.m < 2 or grid.n % ent.m != 0):
        raise ConfigError(f"entanglement.m must be >= 2 and divide grid.n = "
                          f"{grid.n}, got {ent.m}")

    roi = get("coincidence", "roi", None)
    if roi is not None:
        roi = tuple(_convert(v, "int", "coincidence.roi") for v in roi)
        if len(roi) != 2 or min(roi) < 1:
            raise ConfigError(
                f"coincidence.roi must be [ny, nx] of at least 1 pixel each, "
                f"got {list(roi)}")
    coin = build("coincidence", defaults.coincidence, roi=roi)

    formats = tuple(get("output", "formats", list(defaults.formats)))
    for fmt in formats:
        if fmt not in ("grd", "csv", "pgm"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    return RunConfig(pump=pump, setup=setup,
                     z=parse_quantity(data.get("z", defaults.z), "length", "z"),
                     grid=grid, entanglement=ent, coincidence=coin,
                     outdir=get("output", "dir", defaults.outdir),
                     formats=formats)


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], val)
        else:
            merged[key] = val
    return merged


def parse_config(file_path=None, overrides: dict | None = None) -> RunConfig:
    """Load a JSON config file (optional) and apply flag overrides on top."""
    data: dict = {}
    if file_path is not None:
        try:
            with open(file_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{file_path}: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{file_path}: top level must be a JSON object")
    if overrides:
        data = _deep_merge(data, overrides)
    return build_config(data)
