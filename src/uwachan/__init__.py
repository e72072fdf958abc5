"""Seeded simulator for non-stationary shallow-water acoustic channels."""
from .channel import (
    ChannelRealization,
    CtfFrame,
    build_realization,
    evaluate_ctf,
    los_delay,
    tap_list,
)
from .geometry import (
    Boundary,
    ClusterGeometry,
    GeometryError,
    GeometryState,
    PathIndex,
    RayDraws,
    enumerate_paths,
    evolve,
    los_distance,
    macro_ray,
    micro_ray_distances,
    sample_micro_ray_mb,
    sample_micro_ray_sb,
)
from .motion import DriftState, build_drift, surface_displacement
from .presets import PRESET_NAMES, preset_scenario
from .propagation import (
    LossBreakdown,
    PathKind,
    absorption_loss,
    bottom_reflection,
    path_gain,
    spreading_loss,
    thorp_attenuation,
)
from .scenario import (
    BottomConfig,
    ClusterConfig,
    DriftConfig,
    GeometryConfig,
    IntentionalMotion,
    PowerConfig,
    ScenarioConfig,
    ScenarioError,
    SignalConfig,
    SurfaceMotionConfig,
    dump_scenario,
    load_scenario,
    stream_for,
    validate,
)
from .stats import (
    CorrelationPlan,
    CorrelationResult,
    DelayStats,
    EnsembleDelayStats,
    PdpResult,
    acf,
    acf_plan,
    correlate,
    delay_stats,
    ensemble_delay_stats,
    pdp,
    tfcf,
)

__version__ = "1.0.0"
