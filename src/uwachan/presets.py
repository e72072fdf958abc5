"""Named experiment scenarios and the table of curves each experiment evaluates."""
from __future__ import annotations

import math

import numpy as np

from . import scenario, stats

__all__ = [
    "EXPERIMENTS",
    "PRESET_NAMES",
    "preset_document",
    "preset_scenario",
    "evaluate_curves",
    "table1_check",
    "FIG3_LAGS",
    "FIG4_LAGS",
    "TABLE1_TARGETS",
]

# Lag axes used by the canned correlation experiments, seconds. The second
# axis is dense up to 20 ms to resolve coherence-time crossings at high
# carriers, then coarser out to 0.5 s where anchor-to-anchor differences show.
FIG3_LAGS = np.linspace(0.0, 0.1, 21)
FIG4_LAGS = np.concatenate(
    [np.arange(0.0, 0.02, 0.0005), np.arange(0.02, 0.1, 0.0025), np.arange(0.1, 0.5001, 0.005)]
)

_FC15K = {"signal": {"carrier_freq": 15000.0}}
_FC100K = {"signal": {"carrier_freq": 100000.0}}

# preset -> (statistic, lag axis, {curve label: (anchor t in s, partial scenario
# document overlaid on the preset scenario)}). Curves are written and checked
# in this order; a new experiment is one more row.
EXPERIMENTS = {
    "fig3": ("acf", FIG3_LAGS, {
        "k5_a1": (0.0, {"power": {"rice_k": 5.0}, "surface": {"amplitude": 1.0}}),
        "k0_a1": (0.0, {"power": {"rice_k": 0.0}, "surface": {"amplitude": 1.0}}),
        "k5_a2": (0.0, {"power": {"rice_k": 5.0}, "surface": {"amplitude": 2.0}}),
        "k0_a2": (0.0, {"power": {"rice_k": 0.0}, "surface": {"amplitude": 2.0}}),
    }),
    "fig4-time": ("acf", FIG4_LAGS, {"t0": (0.0, {}), "t5": (5.0, {}), "t10": (10.0, {})}),
    "fig4-freq": ("acf", FIG4_LAGS, {"fc15000": (0.0, _FC15K), "fc100000": (0.0, _FC100K)}),
    "fig5": ("pdp", None, {
        "t0_fc15000": (0.0, _FC15K),
        "t5_fc15000": (5.0, _FC15K),
        "t0_fc100000": (0.0, _FC100K),
        "t5_fc100000": (5.0, _FC100K),
    }),
    "table1": ("delay-stats", None, {"table1": (0.0, {})}),
}

PRESET_NAMES = tuple(EXPERIMENTS)

# Reference delay moments (s) for the measurement-comparison scenario and
# the relative tolerance the `validate` command enforces.
TABLE1_TARGETS = {"average_delay": 1.505e-3, "rms_delay_spread": 2.399e-3, "tolerance": 0.05}

# Shared shallow-water survey geometry used by the fig3/fig4/fig5 scenarios.
_SURVEY = {
    "geometry": {
        "distance0": 2000.0, "water_depth": 100.0, "tx_depth0": 50.0, "rx_depth0": 80.0, "sound_speed": 1500.0
    },
    "clusters": {
        "max_surface_hops": 2,
        "max_bottom_hops": 2,
        "rays_per_path": 50,
        "angle_spread_surface": 0.015,
        "angle_spread_bottom": 0.015,
    },
    "power": {"rice_k": 0.0, "da_fraction": 0.5, "ua_fraction": 0.5},
    "bottom": {"density_ratio": 1.5, "sound_speed": 1600.0},
    "master_seed": 1,
    "realizations": 500,
}

# The fig4/fig5 motion: fast opposed platforms, no drift, a still surface.
_MOTION = {
    "intentional": {"tx_speed": 10.0, "tx_heading": 0.0, "rx_speed": 5.0, "rx_heading": -math.pi},
    "drift": {"v_min": 0.0, "v_max": 0.0, "change_freq": 1.0},
    "surface": {"amplitude": 0.0, "freq": 0.0, "travel_angle": math.pi / 2},
    "signal": {"carrier_freq": 15000.0, "freq_offsets": [0.0], "time_grid": [0.0, 2.5, 5.0]},
}

# The measurement-comparison scenario: a document of its own.
_TABLE1 = {
    "geometry": {
        "distance0": 1500.0, "water_depth": 80.0, "tx_depth0": 34.5, "rx_depth0": 36.0, "sound_speed": 1440.0
    },
    "intentional": {"tx_speed": 0.0, "tx_heading": 0.0, "rx_speed": 0.0, "rx_heading": 0.0},
    "drift": {"v_min": 0.0, "v_max": 0.0, "change_freq": 1.0},
    "surface": {"amplitude": 2.0, "freq": 0.1, "travel_angle": math.pi / 2},
    "clusters": {
        "max_surface_hops": 1,
        "max_bottom_hops": 1,
        "rays_per_path": 50,
        "angle_spread_surface": 0.02317,
        "angle_spread_bottom": 0.02317,
    },
    "power": {"rice_k": 1.44, "da_fraction": 0.5, "ua_fraction": 0.5},
    "bottom": {"density_ratio": 1.5, "sound_speed": 1.11 * 1440.0},
    "signal": {"carrier_freq": 17000.0, "freq_offsets": [0.0], "time_grid": [0.0]},
    "master_seed": 1,
    "realizations": 500,
}

# preset -> the documents its scenario merges, in order.
_PRESETS = {
    "fig3": (_SURVEY, {
        "intentional": {"tx_speed": 1.0, "tx_heading": 0.0, "rx_speed": 1.0, "rx_heading": -math.pi / 2},
        "drift": {"v_min": 0.1, "v_max": 0.12, "change_freq": 1.0},
        "surface": {"amplitude": 1.0, "freq": 0.5, "travel_angle": math.pi / 2},
        "power": {"rice_k": 5.0},
        "signal": {"carrier_freq": 15000.0, "freq_offsets": [0.0], "time_grid": [0.0, 0.05, 0.1]},
    }),
    "fig4-time": (_SURVEY, _MOTION),
    "fig4-freq": (_SURVEY, _MOTION),
    "fig5": (_SURVEY, _MOTION, {"power": {"rice_k": 1.0}}),
    "table1": (_TABLE1,),
}


def _known(name: str) -> str:
    """``name`` itself when it names a preset; otherwise a ValueError listing them."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")
    return name


def preset_document(name: str) -> dict:
    """The scenario document of one named experiment, merged anew at each call."""
    _known(name)
    return scenario.merge_documents(*_PRESETS[name])


def preset_scenario(name: str) -> scenario.ScenarioConfig:
    """The exact parameter set of one named experiment, validated."""
    return scenario.scenario_from_dict(preset_document(name))


def evaluate_curves(name: str, cfg: scenario.ScenarioConfig | None = None, jobs: int = 1) -> dict:
    """``{label: result}`` for every curve of an experiment, in order.

    Each curve's changes are overlaid on ``cfg`` (default: the preset's),
    whose ``realizations`` sets the ensemble size. ACF curves run as one
    ensemble: at most ``jobs`` workers are forked, once, for all of them.
    The PDP and delay-stats experiments are deterministic cluster profiles
    and run in this process.
    """
    statistic, lags, curves = EXPERIMENTS[_known(name)]
    base = preset_scenario(name) if cfg is None else cfg
    anchors = {label: (t, scenario.overlay(base, changes)) for label, (t, changes) in curves.items()}
    if statistic == "acf":
        plans = [stats.acf_plan(c, t, 0.0, lags) for t, c in anchors.values()]
        return dict(zip(anchors, stats.correlate(plans, jobs)))
    profiles = {label: stats.pdp(c, t, 0.0) for label, (t, c) in anchors.items()}
    return profiles if statistic == "pdp" else {label: stats.delay_stats(p) for label, p in profiles.items()}


def table1_check(moments: stats.DelayStats) -> list[tuple[str, float, float, bool]]:
    """``(metric, mean, target, passed)`` for each delay moment against ``TABLE1_TARGETS``."""
    tol = TABLE1_TARGETS["tolerance"]
    rows = []
    for metric, mean, _ in moments.summary():
        target = TABLE1_TARGETS[metric]
        rows.append((metric, mean, target, abs(mean - target) <= tol * target))
    return rows
