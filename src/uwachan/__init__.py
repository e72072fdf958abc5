"""Seeded simulator for non-stationary shallow-water acoustic channels."""
import os

# uwachan calls no BLAS (tests/test_blas.py), so OpenBLAS gets one thread
# unless the user chose a count: starting its pool costs a short command about
# a quarter of its CPU on two cores. OpenBLAS reads the variable once, when
# numpy loads it, so it is removed again and no subprocess inherits it. No
# effect if numpy is already loaded.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy

    del os.environ["OPENBLAS_NUM_THREADS"]

from .channel import (
    ChannelRealization,
    CtfFrame,
    build_realization,
    evaluate_ctf,
    tap_list,
)
from .geometry import (
    Boundary,
    ClusterGeometry,
    GeometryError,
    GeometryState,
    PathIndex,
    PathKind,
    RayDraws,
    enumerate_paths,
    evolve,
    los_distance,
    macro_ray,
    micro_ray_distances,
    sample_micro_ray_mb,
    sample_micro_ray_sb,
)
from .motion import drift_displacement, surface_displacement
from .presets import PRESET_NAMES, preset_scenario
from .propagation import (
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
    Estimate,
    PdpResult,
    acf,
    acf_plan,
    correlate,
    delay_stats,
    ensemble_delay_stats,
    pdp,
)

__version__ = "10.0.0"
