import math

import numpy as np
import pytest

from uwachan.geometry import (
    Boundary,
    GeometryError,
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
from uwachan.propagation import PathKind
from uwachan.scenario import (
    ClusterConfig,
    GeometryConfig,
    IntentionalMotion,
    SurfaceMotionConfig,
    stream_for,
)

SURVEY = GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0)
STILL = IntentionalMotion()
NO_DRIFT = (0.0, 0.0)
NO_SURFACE = SurfaceMotionConfig(amplitude=0.0, freq=0.0)


def state0():
    return evolve(SURVEY, STILL, 0.0)


# ---------------------------------------------------------------------------
# direct-path geometry


def test_evolve_direct_value():
    motion = IntentionalMotion(tx_speed=10.0, tx_heading=0.0, rx_speed=5.0, rx_heading=-math.pi)
    st = evolve(SURVEY, motion, 5.0)
    assert st.distance == pytest.approx(2000.0 - 50.0 - 25.0, rel=1e-15)


def test_evolve_static_is_constant():
    for t in (0.0, 3.0, 40.0):
        st = evolve(SURVEY, STILL, t)
        assert (st.distance, st.tx_depth, st.rx_depth) == (2000.0, 50.0, 80.0)


def test_evolve_symmetric_depths_give_flat_angles():
    geo = GeometryConfig(distance0=1000.0, water_depth=100.0, tx_depth0=40.0, rx_depth0=40.0)
    st = evolve(geo, STILL, 1.0)
    assert st.aod_los == 0.0
    # the direct path arrives at pi: an Rx drift along +x lengthens it
    assert los_distance(st, drift_rx=(1.0, 0.0)) == pytest.approx(1001.0, rel=1e-15)


def test_evolve_is_exactly_linear_in_time():
    motion = IntentionalMotion(tx_speed=3.0, tx_heading=0.4, rx_speed=2.0, rx_heading=4.0)
    t = 8.0
    full = evolve(SURVEY, motion, t)
    half = evolve(SURVEY, motion, t / 2)
    start = evolve(SURVEY, motion, 0.0)
    for field in ("distance", "tx_depth", "rx_depth"):
        extrapolated = 2 * getattr(half, field) - getattr(start, field)
        assert getattr(full, field) == pytest.approx(extrapolated, abs=1e-12 * 2000)


def test_evolve_rejects_breaches():
    diving = IntentionalMotion(tx_speed=10.0, tx_heading=math.pi / 2)
    with pytest.raises(GeometryError, match="Tx breaches"):
        evolve(SURVEY, diving, 10.0)  # tx depth 150 > 100
    closing = IntentionalMotion(tx_speed=100.0, tx_heading=0.0)
    with pytest.raises(GeometryError, match="distance"):
        evolve(SURVEY, closing, 25.0)


def test_los_distance_pythagoras():
    assert los_distance(state0()) == pytest.approx(math.hypot(2000.0, 30.0), rel=1e-15)


def test_los_distance_drift_projections():
    st = state0()
    base = los_distance(st)
    along = los_distance(st, drift_tx=(1.0, st.aod_los))
    assert along == pytest.approx(base - 1.0, rel=1e-12)
    perpendicular = los_distance(st, drift_tx=(1.0, st.aod_los + math.pi / 2))
    assert perpendicular == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# macro rays


def test_macro_ray_surface_single_bounce_values():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.DA, 1, 0))
    assert cluster.distance == pytest.approx(math.hypot(2000.0, 70.0), abs=1e-9)
    assert cluster.incidence == pytest.approx(math.atan2(2000.0, 70.0), abs=1e-12)
    assert cluster.path.first_boundary is Boundary.SURFACE
    assert cluster.path.last_boundary is Boundary.SURFACE
    assert cluster.mean_aod == pytest.approx(math.pi / 2 - cluster.incidence, rel=1e-12)
    assert cluster.mean_aoa == pytest.approx(math.pi / 2 + cluster.incidence, rel=1e-12)
    assert cluster.run_tx + cluster.run_rx == pytest.approx(2000.0, rel=1e-12)  # one point between


def test_macro_ray_bottom_single_bounce_values():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.UA, 0, 1))
    assert cluster.distance == pytest.approx(math.hypot(2000.0, 130.0), abs=1e-9)
    assert cluster.path.first_boundary is Boundary.BOTTOM
    assert cluster.mean_aod == pytest.approx(3 * math.pi / 2 + cluster.incidence, rel=1e-12)
    assert cluster.mean_aoa == pytest.approx(3 * math.pi / 2 - cluster.incidence, rel=1e-12)


def test_macro_ray_multi_bounce_leg_split():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.DA, 1, 1))
    tan_inc = math.tan(cluster.incidence)
    assert cluster.path.first_boundary is Boundary.BOTTOM
    assert cluster.run_tx == pytest.approx(50.0 * tan_inc, rel=1e-12)
    assert cluster.run_rx == pytest.approx(20.0 * tan_inc, rel=1e-12)
    # the mid leg crosses the full depth once, so it runs 100 * tan(incidence)
    assert 2000.0 - cluster.run_tx - cluster.run_rx == pytest.approx(100.0 * tan_inc, rel=1e-12)


def test_macro_ray_symmetric_single_bounce():
    geo = GeometryConfig(distance0=1500.0, water_depth=100.0, tx_depth0=60.0, rx_depth0=60.0)
    st = evolve(geo, STILL, 0.0)
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.DA, 1, 0))
    assert cluster.run_tx == pytest.approx(cluster.run_rx, rel=1e-12)
    assert cluster.run_tx == pytest.approx(750.0, rel=1e-12)


def test_macro_distance_monotone_in_bounce_count():
    st = state0()
    da = [macro_ray(st, 100.0, PathIndex(PathKind.DA, s, b)).distance
          for s in (1, 2, 3) for b in (s - 1, s)]
    assert all(x < y for x, y in zip(da, da[1:]))
    ua = [macro_ray(st, 100.0, PathIndex(PathKind.UA, s, b)).distance
          for b in (1, 2, 3) for s in (b - 1, b)]
    assert all(x < y for x, y in zip(ua, ua[1:]))


def test_macro_never_shorter_than_direct():
    st = state0()
    direct = math.hypot(2000.0, 30.0)
    for path in enumerate_paths(ClusterConfig(max_surface_hops=3, max_bottom_hops=3)):
        assert macro_ray(st, 100.0, path).distance >= direct - 1e-9


def test_incidence_angles_in_open_quarter():
    st = state0()
    for path in enumerate_paths(ClusterConfig(max_surface_hops=4, max_bottom_hops=4)):
        aoi = macro_ray(st, 100.0, path).incidence
        assert 0.0 < aoi < math.pi / 2


@pytest.mark.parametrize(
    "kind,s,b",
    [
        (PathKind.DA, 0, 0),
        (PathKind.DA, 1, 3),
        (PathKind.DA, 2, 0),
        (PathKind.UA, 0, 0),
        (PathKind.UA, 2, 1),
        (PathKind.LOS, 1, 0),
    ],
)
def test_invalid_path_indices_rejected(kind, s, b):
    with pytest.raises(GeometryError):
        PathIndex(kind, s, b)


def test_enumerate_paths_counts():
    assert len(enumerate_paths(ClusterConfig(max_surface_hops=1, max_bottom_hops=1))) == 4
    assert len(enumerate_paths(ClusterConfig(max_surface_hops=2, max_bottom_hops=2))) == 8


# ---------------------------------------------------------------------------
# micro-ray sampling


def spreads(**overrides):
    base = dict(
        max_surface_hops=2,
        max_bottom_hops=2,
        rays_per_path=50,
        angle_spread_surface=0.015,
        angle_spread_bottom=0.015,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def one_ray(first, last, theta_first, theta_last):
    """A batch holding a single ray with the given draws."""
    return RayDraws(*(np.array([v], dtype=float) for v in (first, last, theta_first, theta_last)))


def test_mb_sampler_zero_spread_hits_means():
    st = state0()
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.DA, 1, 1))
    cfg = spreads(angle_spread_surface=0.0, angle_spread_bottom=0.0)
    rays, resamples = sample_micro_ray_mb(cluster, st, 100.0, cfg, stream_for(1, 0, "t"), 5)
    assert np.all(rays.first == 1.0)
    assert np.all(rays.last == 1.0)
    assert resamples == 0


def test_mb_sampler_statistics():
    # DA s2 b1 leaves the Tx upwards, so its departure angle is in (0, pi):
    # cot(aod) = first * cot(mean) recovers it from the frozen fraction.
    st = state0()
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.DA, 2, 1))
    rng = stream_for(3, 0, "stats")
    cfg = spreads()
    first = sample_micro_ray_mb(cluster, st, 100.0, cfg, rng, 100_000)[0].first
    draws = np.arctan2(1.0, first / math.tan(cluster.mean_aod))
    assert draws.shape == (100_000,)
    assert np.std(draws) == pytest.approx(0.015, rel=0.02)
    assert np.mean(draws) == pytest.approx(cluster.mean_aod, abs=3 * 0.015 / math.sqrt(100_000))


def test_mb_sampler_rejects_single_bounce_path():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.DA, 1, 0))
    with pytest.raises(GeometryError, match="single-bounce"):
        sample_micro_ray_mb(cluster, state0(), 100.0, spreads(), stream_for(1, 0, "t"), 1)


def test_sb_sampler_zero_spread_matches_specular():
    st = state0()
    for path in (PathIndex(PathKind.DA, 1, 0), PathIndex(PathKind.UA, 0, 1)):
        cluster = macro_ray(st, 100.0, path)
        cfg = spreads(angle_spread_surface=0.0, angle_spread_bottom=0.0)
        rays, _ = sample_micro_ray_sb(cluster, st, 100.0, cfg, stream_for(1, 0, "t"), 3)
        assert np.all(rays.last == 1.0) and np.all(rays.first == 1.0)
        # the point is the specular one: each leg is its run over sin(incidence)
        leg_tx, _, leg_rx = micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, NO_SURFACE, 0.0)
        sin_inc = math.sin(cluster.incidence)
        assert leg_tx == pytest.approx(np.full(3, cluster.run_tx / sin_inc), rel=1e-12)
        assert leg_rx == pytest.approx(np.full(3, cluster.run_rx / sin_inc), rel=1e-12)


def test_sb_da_shares_surface_phase():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.DA, 1, 0))
    rays, _ = sample_micro_ray_sb(cluster, state0(), 100.0, spreads(), stream_for(1, 0, "t"), 50)
    assert np.all((rays.theta_first >= 0.0) & (rays.theta_first < 2 * math.pi))
    assert np.unique(rays.theta_first).size == 50  # one phase per ray ...
    assert np.array_equal(rays.theta_first, rays.theta_last)  # ... shared by both legs


def test_sb_ua_has_no_surface_phase_and_static_delay():
    st = state0()
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.UA, 0, 1))
    rays, _ = sample_micro_ray_sb(cluster, st, 100.0, spreads(), stream_for(1, 0, "t"), 5)
    assert np.all(rays.theta_first == 0.0) and np.all(rays.theta_last == 0.0)
    surface = SurfaceMotionConfig(amplitude=2.0, freq=0.5)  # moving surface must not matter
    lengths = np.array([
        sum(micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, surface, t))
        for t in (0.0, 0.7, 2.3)
    ])
    assert np.ptp(lengths, axis=0) == pytest.approx(np.zeros(5), abs=1e-12)


def test_sb_sampler_rejects_multi_bounce_path():
    cluster = macro_ray(state0(), 100.0, PathIndex(PathKind.DA, 1, 1))
    with pytest.raises(GeometryError, match="multi-bounce"):
        sample_micro_ray_sb(cluster, state0(), 100.0, spreads(), stream_for(1, 0, "t"), 1)


# ---------------------------------------------------------------------------
# micro-ray distances


def test_specular_ray_reproduces_cluster_legs():
    st = state0()
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.DA, 1, 1))
    rays = one_ray(1.0, 1.0, 0.0, 0.3)
    leg_tx, mid, leg_rx = micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, NO_SURFACE, 0.0)
    cos_inc = math.cos(cluster.incidence)
    assert leg_tx[0] == pytest.approx(50.0 / cos_inc, rel=1e-12)
    assert leg_rx[0] == pytest.approx(20.0 / cos_inc, rel=1e-12)
    assert mid[0] == pytest.approx(100.0 / cos_inc, rel=1e-12)


def test_sb_rays_satisfy_image_identity():
    st = state0()
    for path in (PathIndex(PathKind.DA, 1, 0), PathIndex(PathKind.UA, 0, 1)):
        cluster = macro_ray(st, 100.0, path)
        cfg = spreads(angle_spread_surface=0.0, angle_spread_bottom=0.0)
        rays, _ = sample_micro_ray_sb(cluster, st, 100.0, cfg, stream_for(1, 0, "t"), 3)
        leg_tx, mid, leg_rx = micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, NO_SURFACE, 0.0)
        assert np.all(mid == 0.0)
        assert leg_tx + leg_rx == pytest.approx(np.full(3, cluster.distance), abs=1e-9)


def test_surface_oscillation_peak_projection():
    # ray along the oscillation direction, phase at its crest: contribution is
    # exactly the amplitude
    st = state0()
    path = PathIndex(PathKind.DA, 1, 1)
    cluster = macro_ray(st, 100.0, path)
    surface = SurfaceMotionConfig(amplitude=2.0, freq=0.25, travel_angle=cluster.mean_aoa)
    rays = one_ray(1.0, 1.0, 0.0, math.pi / 2)
    _, _, leg_rx = micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, surface, 0.0)
    base = one_ray(1.0, 1.0, 0.0, 0.0)
    _, _, leg_rx0 = micro_ray_distances(base, cluster, st, 100.0, NO_DRIFT, NO_DRIFT,
                                        SurfaceMotionConfig(amplitude=0.0, freq=0.25), 0.0)
    assert leg_rx[0] - leg_rx0[0] == pytest.approx(2.0, rel=1e-12)


def test_drift_projection_shortens_first_leg():
    st = state0()
    cluster = macro_ray(st, 100.0, PathIndex(PathKind.DA, 1, 1))
    rays = one_ray(1.0, 1.0, 0.0, 0.0)
    base, _, _ = micro_ray_distances(rays, cluster, st, 100.0, NO_DRIFT, NO_DRIFT, NO_SURFACE, 0.0)
    moved, _, _ = micro_ray_distances(rays, cluster, st, 100.0, (1.0, cluster.mean_aod), NO_DRIFT, NO_SURFACE, 0.0)
    assert moved[0] == pytest.approx(base[0] - 1.0, rel=1e-12)
