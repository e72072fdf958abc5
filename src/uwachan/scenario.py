"""Scenario configuration: units, validation, and deterministic RNG streams.

Conventions used across the whole package:

* distances in meters, times in seconds, frequencies in Hz (except where a
  function explicitly takes kHz), angles in radians,
* Rice factor and the two non-direct power fractions are linear ratios,
  never dB,
* every random quantity is drawn from a stream derived from
  ``(master_seed, realization_index, purpose)`` so results are reproducible
  and independent of evaluation order or worker count.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

TAU = 2.0 * math.pi

__all__ = [
    "TAU",
    "ScenarioError",
    "GeometryConfig",
    "IntentionalMotion",
    "DriftConfig",
    "SurfaceMotionConfig",
    "ClusterConfig",
    "PowerConfig",
    "BottomConfig",
    "SignalConfig",
    "ScenarioConfig",
    "validate",
    "normalize_angle",
    "stream_for",
    "scenario_to_dict",
    "scenario_from_dict",
    "merge_documents",
    "overlay",
    "read_document",
    "load_scenario",
    "dump_scenario",
    "write_atomic",
]


class ScenarioError(ValueError):
    """A scenario field violates one of the documented invariants."""


def normalize_angle(angle: float) -> float:
    """Map an angle onto [0, 2*pi), preserving its value modulo 2*pi."""
    if not math.isfinite(angle):
        raise ScenarioError(f"angle must be finite, got {angle!r}")
    wrapped = math.fmod(angle, TAU)
    if wrapped < 0.0:
        wrapped += TAU
    if wrapped >= TAU:  # fmod rounding at the seam
        wrapped = 0.0
    return wrapped


@dataclass(frozen=True)
class GeometryConfig:
    """Static water-column geometry at the start of a run."""

    distance0: float  # horizontal Tx-equipment to Rx separation, m
    water_depth: float  # m
    tx_depth0: float  # m above the bottom, despite the name; the surface is at water_depth
    rx_depth0: float  # m above the bottom, like tx_depth0
    sound_speed: float = 1500.0  # in-water sound speed, m/s


@dataclass(frozen=True)
class IntentionalMotion:
    """Constant-velocity platform motion (speed m/s, heading rad)."""

    tx_speed: float = 0.0
    tx_heading: float = 0.0
    rx_speed: float = 0.0
    rx_heading: float = 0.0


@dataclass(frozen=True)
class DriftConfig:
    """Piecewise-constant random drift of both platforms."""

    v_min: float = 0.0  # m/s
    v_max: float = 0.0  # m/s
    change_freq: float = 1.0  # velocity redraw rate, Hz


@dataclass(frozen=True)
class SurfaceMotionConfig:
    """Sinusoidal displacement of surface scatterers."""

    amplitude: float = 0.0  # m
    freq: float = 0.0  # Hz
    travel_angle: float = math.pi / 2  # rad, direction of oscillation


@dataclass(frozen=True)
class ClusterConfig:
    """Bounce-count limits and micro-ray randomization spreads."""

    max_surface_hops: int = 1  # most surface contacts of a surface-final path
    max_bottom_hops: int = 1  # most bottom contacts of a bottom-final path
    rays_per_path: int = 50
    angle_spread_surface: float = 0.015  # rad, std of a surface point's incidence
    angle_spread_bottom: float = 0.015  # rad, std of a bottom point's incidence


@dataclass(frozen=True)
class PowerConfig:
    """Linear power weighting between the direct and reflected classes."""

    rice_k: float = 0.0
    da_fraction: float = 0.5  # share of reflected power arriving from above
    ua_fraction: float = 0.5  # share of reflected power arriving from below


@dataclass(frozen=True)
class BottomConfig:
    """Acoustic contrast of the sea bottom."""

    density_ratio: float = 1.5  # bottom density / water density
    sound_speed: float = 1600.0  # m/s in the bottom


@dataclass(frozen=True)
class SignalConfig:
    """Carrier and the (time x frequency) evaluation grid."""

    carrier_freq: float  # Hz
    freq_offsets: tuple[float, ...] = (0.0,)  # baseband offsets, Hz
    time_grid: tuple[float, ...] = (0.0,)  # s, uniform step


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, serializable description of one simulation scenario."""

    geometry: GeometryConfig
    intentional: IntentionalMotion = IntentionalMotion()
    drift: DriftConfig = DriftConfig()
    surface: SurfaceMotionConfig = SurfaceMotionConfig()
    clusters: ClusterConfig = ClusterConfig()
    power: PowerConfig = PowerConfig()
    bottom: BottomConfig = BottomConfig()
    signal: SignalConfig = SignalConfig(carrier_freq=15000.0)
    master_seed: int = 0
    realizations: int = 500


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The lower bound of each bounded field, as its error message states it.
# Every other number need only be finite.
_LOWER_BOUNDS = {
    "geometry.distance0": "> 0",
    "geometry.water_depth": "> 0",
    "geometry.sound_speed": "> 0",
    "intentional.tx_speed": ">= 0",
    "intentional.rx_speed": ">= 0",
    "drift.v_min": ">= 0",
    "drift.change_freq": "> 0",
    "surface.amplitude": ">= 0",
    "surface.freq": ">= 0",
    "clusters.max_surface_hops": ">= 1",
    "clusters.max_bottom_hops": ">= 1",
    "clusters.rays_per_path": ">= 1",
    "clusters.angle_spread_surface": ">= 0",
    "clusters.angle_spread_bottom": ">= 0",
    "power.rice_k": ">= 0",
    "power.da_fraction": ">= 0",
    "power.ua_fraction": ">= 0",
    "bottom.density_ratio": "> 0",
    "bottom.sound_speed": "> 0",
    "signal.carrier_freq": "> 0",
    "realizations": ">= 1",
}
# Angles, stored normalized onto [0, 2*pi).
_ANGLES = {"intentional.tx_heading", "intentional.rx_heading", "surface.travel_angle"}


def _meets(value, rule: str | None) -> bool:
    if rule is None:
        return True
    op, bound = rule.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def _checked(name: str, kind: str, value):
    """``value`` of the dotted field ``name``, checked against its annotation
    ``kind`` and its lower bound, and stored as that type."""
    rule = _LOWER_BOUNDS.get(name)
    if kind == "int":
        _require(
            isinstance(value, int) and not isinstance(value, bool) and _meets(value, rule),
            f"{name} must be an int{' ' + rule if rule else ''}, got {value!r}",
        )
        return value
    if kind == "float":
        _require(_is_number(value) and math.isfinite(value), f"{name} must be a finite number, got {value!r}")
        value = float(value)
        _require(_meets(value, rule), f"{name} must be {rule}, got {value!r}")
        return normalize_angle(value) if name in _ANGLES else value
    # a tuple of floats
    _require(
        isinstance(value, (list, tuple)) and all(map(_is_number, value)),
        f"{name} must be a list of numbers, got {value!r}",
    )
    _require(len(value) >= 1, f"{name} must not be empty")
    for v in value:
        _require(math.isfinite(v), f"{name} element must be a finite number, got {v!r}")
    return tuple(float(v) for v in value)


def _checked_fields(config, prefix: str = ""):
    """``config`` with every field checked and stored as its annotated type;
    a section's fields are named ``section.field``."""
    values = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            values[f.name] = _checked_fields(value, f"{f.name}.")
        else:
            values[f.name] = _checked(prefix + f.name, f.type, value)
    return replace(config, **values)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant and return the config with its numbers as
    floats, its lists as tuples and its angles normalized.

    Raises :class:`ScenarioError` naming the first offending field.
    Idempotent: validating an already-validated config returns an equal one.
    """
    cfg = _checked_fields(cfg)
    g, d, p, s = cfg.geometry, cfg.drift, cfg.power, cfg.signal
    _require(
        0 < g.tx_depth0 < g.water_depth,
        f"Tx depth must satisfy 0 < tx_depth0 < water_depth, got {g.tx_depth0}",
    )
    _require(
        0 < g.rx_depth0 < g.water_depth,
        f"Rx depth must satisfy 0 < rx_depth0 < water_depth, got {g.rx_depth0}",
    )
    _require(d.v_min <= d.v_max, f"drift speeds need 0 <= v_min <= v_max, got [{d.v_min}, {d.v_max}]")
    _require(
        abs(p.da_fraction + p.ua_fraction - 1.0) <= 1e-12,
        f"da_fraction+ua_fraction must equal 1, got {p.da_fraction + p.ua_fraction}",
    )
    _require(
        s.carrier_freq + min(s.freq_offsets) > 0,
        f"carrier_freq + min(freq_offsets) must be > 0, got {s.carrier_freq + min(s.freq_offsets)}",
    )
    _require(min(s.time_grid) >= 0, f"signal.time_grid must not be negative, got {min(s.time_grid)!r} s")
    if len(s.time_grid) >= 2:
        steps = np.diff(np.asarray(s.time_grid, dtype=float))
        _require(bool(np.all(steps > 0)), f"time_grid must be strictly increasing, got {s.time_grid}")
        tol = 1e-9 * max(1.0, abs(steps[0]))
        _require(
            bool(np.all(np.abs(steps - steps[0]) <= tol)),
            f"time_grid must have a constant step, got steps {steps.tolist()}",
        )
    _require(0 <= cfg.master_seed < 2**64, f"master_seed must be an integer in [0, 2**64), got {cfg.master_seed!r}")
    return cfg


def stream_for(master_seed: int, realization: int, purpose: str) -> np.random.Generator:
    """Independent deterministic random stream for one (realization, purpose).

    The same triple always yields the identical sequence; distinct
    realization indices or purpose labels yield independent streams.
    """
    if realization < 0:
        raise ValueError(f"realization index must be >= 0, got {realization}")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(realization, _purpose_key(purpose)))
    return np.random.Generator(np.random.PCG64(seq))


@functools.lru_cache(maxsize=1024)
def _purpose_key(purpose: str) -> int:
    """The spawn key of a purpose label: the first 8 bytes of the sha256 of
    its UTF-8 text, little-endian.

    hashlib is imported here, not at module level, so OpenSSL is loaded by
    the first process that draws a stream, never by a ``--jobs`` parent.
    """
    import hashlib

    return int.from_bytes(hashlib.sha256(purpose.encode("utf-8")).digest()[:8], "little")


# ---------------------------------------------------------------------------
# JSON serialization (strict: unknown keys are errors)

_SECTIONS = {
    "geometry": GeometryConfig,
    "intentional": IntentionalMotion,
    "drift": DriftConfig,
    "surface": SurfaceMotionConfig,
    "clusters": ClusterConfig,
    "power": PowerConfig,
    "bottom": BottomConfig,
    "signal": SignalConfig,
}


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    out = dataclasses.asdict(cfg)
    for key in ("freq_offsets", "time_grid"):
        out["signal"][key] = list(out["signal"][key])
    return out


def _section_from_dict(cls, name: str, data: dict):
    if not isinstance(data, dict):
        raise ScenarioError(f"section {name!r} must be an object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise ScenarioError(f"unknown key(s) in {name!r}: {', '.join(unknown)}")
    missing = [f.name for f in fields if f.name not in data and f.default is dataclasses.MISSING]
    if missing:
        raise ScenarioError(f"section {name!r} is missing key(s): {', '.join(missing)}")
    return cls(**data)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a plain dict (strict keys)."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = sorted(set(data) - set(_SECTIONS) - {"master_seed", "realizations"})
    if unknown:
        raise ScenarioError(f"unknown top-level key(s): {', '.join(unknown)}")
    if "geometry" not in data:
        raise ScenarioError("scenario document is missing the 'geometry' section")
    kwargs = dict(data)
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _section_from_dict(cls, name, data[name])
    return validate(ScenarioConfig(**kwargs))


def merge_documents(*documents) -> dict:
    """The scenario ``documents`` merged in order: a later document's keys
    replace an earlier one's, section by section. No document is modified,
    and each section of the result is a new dict."""
    merged: dict = {}
    for document in documents:
        if not isinstance(document, dict):
            raise ScenarioError("scenario document must be a JSON object")
        for key, value in document.items():
            if isinstance(value, dict):
                section = merged.get(key)
                value = {**(section if isinstance(section, dict) else {}), **value}
            merged[key] = value
    return merged


def overlay(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """``cfg`` with a partial scenario document merged over it, section by section."""
    return scenario_from_dict(merge_documents(scenario_to_dict(cfg), changes))


def read_document(path: str):
    """The parsed JSON of a scenario file; a parse error names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc


def load_scenario(path: str) -> ScenarioConfig:
    return scenario_from_dict(read_document(path))


def write_atomic(path: str, write) -> None:
    """Write a text file atomically: ``write(fh)`` fills a temp file next to
    ``path``, ``os.replace`` moves it there, and no temp file outlives the call.
    The file gets the mode ``open(path, "w")`` would create, 0o666 less the
    umask; a ``mkstemp`` file alone would stay 0600.
    """
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fd, 0o666 & ~umask)
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def dump_scenario(cfg: ScenarioConfig, path: str) -> None:
    """Write a scenario file atomically (temp file + rename)."""
    payload = json.dumps(scenario_to_dict(cfg), indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(payload))
