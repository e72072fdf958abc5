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
import hashlib
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
    angle_spread_surface: float = 0.015  # rad, std of ray angles at the surface
    angle_spread_bottom: float = 0.015  # rad, std of ray angles at the bottom


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


def _finite(value: float, name: str) -> None:
    _require(
        isinstance(value, (int, float)) and math.isfinite(value),
        f"{name} must be a finite number, got {value!r}",
    )


def _check_geometry(g: GeometryConfig) -> None:
    for name in ("distance0", "water_depth", "tx_depth0", "rx_depth0", "sound_speed"):
        _finite(getattr(g, name), f"geometry.{name}")
    _require(g.water_depth > 0, f"water_depth must be > 0, got {g.water_depth}")
    _require(
        0 < g.tx_depth0 < g.water_depth,
        f"Tx depth must satisfy 0 < tx_depth0 < water_depth, got {g.tx_depth0}",
    )
    _require(
        0 < g.rx_depth0 < g.water_depth,
        f"Rx depth must satisfy 0 < rx_depth0 < water_depth, got {g.rx_depth0}",
    )
    _require(g.distance0 > 0, f"distance0 must be > 0, got {g.distance0}")
    _require(g.sound_speed > 0, f"sound_speed must be > 0, got {g.sound_speed}")


def _check_intentional(m: IntentionalMotion) -> None:
    for name in ("tx_speed", "tx_heading", "rx_speed", "rx_heading"):
        _finite(getattr(m, name), f"intentional.{name}")
    _require(m.tx_speed >= 0, f"tx_speed must be >= 0, got {m.tx_speed}")
    _require(m.rx_speed >= 0, f"rx_speed must be >= 0, got {m.rx_speed}")


def _check_drift(d: DriftConfig) -> None:
    for name in ("v_min", "v_max", "change_freq"):
        _finite(getattr(d, name), f"drift.{name}")
    _require(0 <= d.v_min <= d.v_max, f"drift speeds need 0 <= v_min <= v_max, got [{d.v_min}, {d.v_max}]")
    _require(d.change_freq > 0, f"drift.change_freq must be > 0, got {d.change_freq}")


def _check_surface(s: SurfaceMotionConfig) -> None:
    for name in ("amplitude", "freq", "travel_angle"):
        _finite(getattr(s, name), f"surface.{name}")
    _require(s.amplitude >= 0, f"surface.amplitude must be >= 0, got {s.amplitude}")
    _require(s.freq >= 0, f"surface.freq must be >= 0, got {s.freq}")


def _check_clusters(c: ClusterConfig) -> None:
    _require(
        isinstance(c.max_surface_hops, int) and c.max_surface_hops >= 1,
        f"max_surface_hops must be an int >= 1, got {c.max_surface_hops!r}",
    )
    _require(
        isinstance(c.max_bottom_hops, int) and c.max_bottom_hops >= 1,
        f"max_bottom_hops must be an int >= 1, got {c.max_bottom_hops!r}",
    )
    _require(
        isinstance(c.rays_per_path, int) and c.rays_per_path >= 1,
        f"rays_per_path must be an int >= 1, got {c.rays_per_path!r}",
    )
    for name in ("angle_spread_surface", "angle_spread_bottom"):
        _finite(getattr(c, name), f"clusters.{name}")
        _require(getattr(c, name) >= 0, f"clusters.{name} must be >= 0, got {getattr(c, name)}")


def _check_power(p: PowerConfig) -> None:
    for name in ("rice_k", "da_fraction", "ua_fraction"):
        _finite(getattr(p, name), f"power.{name}")
    _require(p.rice_k >= 0, f"rice_k must be >= 0, got {p.rice_k}")
    _require(p.da_fraction >= 0, f"da_fraction must be >= 0, got {p.da_fraction}")
    _require(p.ua_fraction >= 0, f"ua_fraction must be >= 0, got {p.ua_fraction}")
    _require(
        abs(p.da_fraction + p.ua_fraction - 1.0) <= 1e-12,
        f"da_fraction+ua_fraction must equal 1, got {p.da_fraction + p.ua_fraction}",
    )


def _check_bottom(b: BottomConfig) -> None:
    for name in ("density_ratio", "sound_speed"):
        _finite(getattr(b, name), f"bottom.{name}")
    _require(b.density_ratio > 0, f"bottom.density_ratio must be > 0, got {b.density_ratio}")
    _require(b.sound_speed > 0, f"bottom.sound_speed must be > 0, got {b.sound_speed}")


def _check_signal(s: SignalConfig) -> None:
    _finite(s.carrier_freq, "signal.carrier_freq")
    _require(s.carrier_freq > 0, f"carrier_freq must be > 0, got {s.carrier_freq}")
    _require(len(s.freq_offsets) >= 1, "freq_offsets must not be empty")
    for f in s.freq_offsets:
        _finite(f, "signal.freq_offsets element")
    _require(
        s.carrier_freq + min(s.freq_offsets) > 0,
        f"carrier_freq + min(freq_offsets) must be > 0, got {s.carrier_freq + min(s.freq_offsets)}",
    )
    _require(len(s.time_grid) >= 1, "time_grid must not be empty")
    for t in s.time_grid:
        _finite(t, "signal.time_grid element")
    if len(s.time_grid) >= 2:
        steps = np.diff(np.asarray(s.time_grid, dtype=float))
        _require(bool(np.all(steps > 0)), f"time_grid must be strictly increasing, got {s.time_grid}")
        tol = 1e-9 * max(1.0, abs(steps[0]))
        _require(
            bool(np.all(np.abs(steps - steps[0]) <= tol)),
            f"time_grid must have a constant step, got steps {steps.tolist()}",
        )


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant and return the config with angles normalized.

    Raises :class:`ScenarioError` naming the first offending field.
    Idempotent: validating an already-validated config returns an equal one.
    """
    _check_geometry(cfg.geometry)
    _check_intentional(cfg.intentional)
    _check_drift(cfg.drift)
    _check_surface(cfg.surface)
    _check_clusters(cfg.clusters)
    _check_power(cfg.power)
    _check_bottom(cfg.bottom)
    _check_signal(cfg.signal)
    _require(
        isinstance(cfg.master_seed, int) and 0 <= cfg.master_seed < 2**64,
        f"master_seed must be an integer in [0, 2**64), got {cfg.master_seed!r}",
    )
    _require(
        isinstance(cfg.realizations, int) and cfg.realizations >= 1,
        f"realizations must be an int >= 1, got {cfg.realizations!r}",
    )
    return replace(
        cfg,
        intentional=replace(
            cfg.intentional,
            tx_heading=normalize_angle(cfg.intentional.tx_heading),
            rx_heading=normalize_angle(cfg.intentional.rx_heading),
        ),
        surface=replace(cfg.surface, travel_angle=normalize_angle(cfg.surface.travel_angle)),
        signal=replace(
            cfg.signal,
            freq_offsets=tuple(float(f) for f in cfg.signal.freq_offsets),
            time_grid=tuple(float(t) for t in cfg.signal.time_grid),
        ),
    )


def stream_for(master_seed: int, realization: int, purpose: str) -> np.random.Generator:
    """Independent deterministic random stream for one (realization, purpose).

    The same triple always yields the identical sequence; distinct
    realization indices or purpose labels yield independent streams.
    """
    if realization < 0:
        raise ValueError(f"realization index must be >= 0, got {realization}")
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    purpose_key = int.from_bytes(digest[:8], "little")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(realization, purpose_key))
    return np.random.Generator(np.random.PCG64(seq))


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
    out: dict = {}
    for key in _SECTIONS:
        out[key] = dataclasses.asdict(getattr(cfg, key))
    out["signal"]["freq_offsets"] = list(out["signal"]["freq_offsets"])
    out["signal"]["time_grid"] = list(out["signal"]["time_grid"])
    out["master_seed"] = cfg.master_seed
    out["realizations"] = cfg.realizations
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _section_from_dict(cls, name: str, data: dict):
    if not isinstance(data, dict):
        raise ScenarioError(f"section {name!r} must be an object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ScenarioError(f"unknown key(s) in {name!r}: {', '.join(unknown)}")
    kwargs = dict(data)
    for field in dataclasses.fields(cls):
        if field.name not in kwargs:
            continue
        value = kwargs[field.name]
        if field.type in ("int",):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"{name}.{field.name} must be an integer, got {value!r}")
        elif isinstance(value, list):
            bad = [v for v in value if not _is_number(v)]
            if bad:
                raise ScenarioError(f"{name}.{field.name} must list numbers, got {bad[0]!r}")
            kwargs[field.name] = tuple(float(v) for v in value)
        elif _is_number(value):
            kwargs[field.name] = float(value)
        else:
            raise ScenarioError(f"{name}.{field.name} has unsupported value {value!r}")
    return cls(**kwargs)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a plain dict (strict keys)."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    known = set(_SECTIONS) | {"master_seed", "realizations"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ScenarioError(f"unknown top-level key(s): {', '.join(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        if name in data:
            kwargs[name] = _section_from_dict(cls, name, data[name])
    if "geometry" not in kwargs:
        raise ScenarioError("scenario document is missing the 'geometry' section")
    for key in ("master_seed", "realizations"):
        if key in data:
            value = data[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"{key} must be an integer, got {value!r}")
            kwargs[key] = value
    return validate(ScenarioConfig(**kwargs))


def overlay(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """``cfg`` with a partial scenario document merged over it, section by section."""
    if not isinstance(changes, dict):
        raise ScenarioError("scenario document must be a JSON object")
    base = scenario_to_dict(cfg)
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key].update(value)
        else:
            base[key] = value
    return scenario_from_dict(base)


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
