"""Named experiment scenarios and the table of curves each experiment evaluates."""
from __future__ import annotations

import math

import numpy as np

from . import stats
from .scenario import (
    BottomConfig,
    ClusterConfig,
    DriftConfig,
    GeometryConfig,
    IntentionalMotion,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    SurfaceMotionConfig,
    overlay,
    validate,
)

__all__ = [
    "EXPERIMENTS",
    "PRESET_NAMES",
    "preset_scenario",
    "evaluate",
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

_DEFAULT_SEED = 1


def _survey_base() -> dict:
    # Shared shallow-water survey geometry used by the fig3/fig4/fig5 scenarios.
    return dict(
        geometry=GeometryConfig(
            distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0, sound_speed=1500.0
        ),
        clusters=ClusterConfig(
            max_surface_hops=2,
            max_bottom_hops=2,
            rays_per_path=50,
            angle_spread_surface=0.015,
            angle_spread_bottom=0.015,
        ),
        power=PowerConfig(rice_k=0.0, da_fraction=0.5, ua_fraction=0.5),
        bottom=BottomConfig(density_ratio=1.5, sound_speed=1600.0),
        master_seed=_DEFAULT_SEED,
        realizations=500,
    )


def preset_scenario(name: str) -> ScenarioConfig:
    """The exact parameter set of one named experiment, validated."""
    if name == "fig3":
        base = _survey_base()
        base.update(
            intentional=IntentionalMotion(
                tx_speed=1.0, tx_heading=0.0, rx_speed=1.0, rx_heading=-math.pi / 2
            ),
            drift=DriftConfig(v_min=0.1, v_max=0.12, change_freq=1.0),
            surface=SurfaceMotionConfig(amplitude=1.0, freq=0.5, travel_angle=math.pi / 2),
            signal=SignalConfig(carrier_freq=15000.0, freq_offsets=(0.0,), time_grid=(0.0, 0.05, 0.1)),
        )
        base["power"] = PowerConfig(rice_k=5.0, da_fraction=0.5, ua_fraction=0.5)
        return validate(ScenarioConfig(**base))
    if name in ("fig4-time", "fig4-freq", "fig5"):
        base = _survey_base()
        base.update(
            intentional=IntentionalMotion(
                tx_speed=10.0, tx_heading=0.0, rx_speed=5.0, rx_heading=-math.pi
            ),
            drift=DriftConfig(v_min=0.0, v_max=0.0, change_freq=1.0),
            surface=SurfaceMotionConfig(amplitude=0.0, freq=0.0, travel_angle=math.pi / 2),
            signal=SignalConfig(carrier_freq=15000.0, freq_offsets=(0.0,), time_grid=(0.0, 2.5, 5.0)),
        )
        if name == "fig5":
            base["power"] = PowerConfig(rice_k=1.0, da_fraction=0.5, ua_fraction=0.5)
        return validate(ScenarioConfig(**base))
    if name == "table1":
        return validate(
            ScenarioConfig(
                geometry=GeometryConfig(
                    distance0=1500.0, water_depth=80.0, tx_depth0=34.5, rx_depth0=36.0, sound_speed=1440.0
                ),
                intentional=IntentionalMotion(),
                drift=DriftConfig(v_min=0.0, v_max=0.0, change_freq=1.0),
                surface=SurfaceMotionConfig(amplitude=2.0, freq=0.1, travel_angle=math.pi / 2),
                clusters=ClusterConfig(
                    max_surface_hops=1,
                    max_bottom_hops=1,
                    rays_per_path=50,
                    angle_spread_surface=0.02317,
                    angle_spread_bottom=0.02317,
                ),
                power=PowerConfig(rice_k=1.44, da_fraction=0.5, ua_fraction=0.5),
                bottom=BottomConfig(density_ratio=1.5, sound_speed=1.11 * 1440.0),
                signal=SignalConfig(carrier_freq=17000.0, freq_offsets=(0.0,), time_grid=(0.0,)),
                master_seed=_DEFAULT_SEED,
                realizations=500,
            )
        )
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


def evaluate_curves(
    name: str, labels=None, cfg: ScenarioConfig | None = None, jobs: int = 1, phase_draws: int = 1
) -> dict:
    """``{label: result}`` for the curves of an experiment (default: every curve, in order).

    Each curve's changes are overlaid on ``cfg`` (default: the preset's),
    whose ``realizations`` sets the ensemble size. ACF curves run as one
    ensemble, with one worker pool of at most ``jobs`` workers, and average
    the empirical estimator over ``phase_draws`` phase draws. The PDP and
    delay-stats experiments are deterministic cluster profiles and use neither.
    """
    statistic, lags, curves = EXPERIMENTS[name]
    base = preset_scenario(name) if cfg is None else cfg
    chosen = curves if labels is None else {label: curves[label] for label in labels}
    anchors = {label: (t, overlay(base, changes)) for label, (t, changes) in chosen.items()}
    if statistic == "acf":
        plans = [stats.acf_plan(c, t, 0.0, lags, phase_draws) for t, c in anchors.values()]
        return dict(zip(anchors, stats.correlate(plans, jobs)))
    if statistic == "pdp":
        return {label: stats.pdp(c, t, 0.0) for label, (t, c) in anchors.items()}
    return {label: stats.ensemble_delay_stats(c, t, 0.0) for label, (t, c) in anchors.items()}


def evaluate(name: str, label: str, cfg: ScenarioConfig | None = None, jobs: int = 1, phase_draws: int = 1):
    """One curve of an experiment: :func:`evaluate_curves` for ``label`` alone."""
    return evaluate_curves(name, (label,), cfg, jobs, phase_draws)[label]


def table1_check(ens: stats.EnsembleDelayStats) -> list[tuple[str, float, float, bool]]:
    """``(metric, value, target, passed)`` for each delay moment against ``TABLE1_TARGETS``."""
    tol = TABLE1_TARGETS["tolerance"]
    rows = []
    for metric, value in (("average_delay", ens.average_mean), ("rms_delay_spread", ens.rms_spread_mean)):
        target = TABLE1_TARGETS[metric]
        rows.append((metric, value, target, abs(value - target) <= tol * target))
    return rows
