"""Exact symmetries of the model, checked over random valid scenarios."""
import dataclasses
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from uwachan.channel import build_realization, component_table, ctf_values, tap_list
from uwachan.scenario import (
    BottomConfig,
    ClusterConfig,
    GeometryConfig,
    IntentionalMotion,
    PowerConfig,
    ScenarioConfig,
    SignalConfig,
    SurfaceMotionConfig,
    validate,
)
from uwachan.stats import pdp


@st.composite
def _geometries(draw):
    depth = draw(st.floats(20.0, 200.0))
    tx, rx = draw(st.floats(0.05, 0.95)), draw(st.floats(0.05, 0.95))
    return GeometryConfig(
        distance0=draw(st.floats(200.0, 3000.0)),
        water_depth=depth,
        tx_depth0=tx * depth,
        rx_depth0=rx * depth,
        sound_speed=draw(st.floats(1400.0, 1550.0)),
    )


@st.composite
def _still_scenarios(draw):
    """No drift and no intentional motion; the surface oscillates."""
    spread = st.floats(0.0, 0.05)
    g = draw(_geometries())
    # below the single surface bounce's excess over the direct path, so rays can stay longer than it
    excess = math.hypot(g.distance0, 2 * g.water_depth - g.tx_depth0 - g.rx_depth0) - math.hypot(
        g.distance0, g.tx_depth0 - g.rx_depth0
    )
    return validate(
        ScenarioConfig(
            geometry=g,
            surface=SurfaceMotionConfig(
                amplitude=draw(st.floats(0.01, 0.5)) * excess,
                freq=draw(st.floats(0.05, 3.0)),
                travel_angle=draw(st.floats(0.0, 2 * math.pi)),
            ),
            clusters=ClusterConfig(
                max_surface_hops=draw(st.integers(1, 2)),
                max_bottom_hops=draw(st.integers(1, 2)),
                rays_per_path=draw(st.integers(1, 6)),
                angle_spread_surface=draw(spread),
                angle_spread_bottom=draw(spread),
            ),
            power=PowerConfig(rice_k=draw(st.floats(0.0, 5.0))),
            signal=SignalConfig(carrier_freq=draw(st.floats(5000.0, 20000.0))),
            master_seed=draw(st.integers(0, 10_000)),
        )
    )


@settings(max_examples=30, deadline=None)
@given(cfg=_still_scenarios(), phase=st.floats(0.0, 1.0), offset=st.floats(-1000.0, 1000.0))
def test_a_still_channel_repeats_with_the_surface_period(cfg, phase, offset):
    # Only the surface moves, and it is periodic: every delay and CTF sample
    # one and two surface periods later equals the one at t.
    period = 1.0 / cfg.surface.freq
    t = phase * period
    real = build_realization(cfg, 0)
    table = component_table([real], [t, t + period, t + 2 * period])
    for delays in [table.los_delay, *table.delays]:
        np.testing.assert_allclose(delays[1:], np.broadcast_to(delays[0], delays[1:].shape), rtol=0, atol=1e-15)
    # A delay within 1e-15 s turns a ray's phasor by at most 2 pi f 1e-15, so
    # the CTF may move by that times its summed ray amplitudes (a relative
    # bound on h itself fails where the rays cancel).
    h = ctf_values(real, table, offset)
    amplitudes = np.abs(tap_list(real, [t], [offset]).amplitudes).sum()
    bound = 2 * math.pi * (cfg.signal.carrier_freq + offset) * 1e-15 * amplitudes
    np.testing.assert_allclose(h[1:], [h[0], h[0]], rtol=0, atol=bound)


@st.composite
def _co_moving_scenarios(draw):
    """Both platforms at one horizontal velocity; no drift and a still surface.

    The heading is 0: a heading of pi is not horizontal in floating point
    (sin(pi) is 1.2e-16), so it would also lift both platforms a little.
    """
    spread = st.floats(0.0, 0.05)
    speed = draw(st.floats(0.1, 10.0))
    return validate(
        ScenarioConfig(
            geometry=draw(_geometries()),
            intentional=IntentionalMotion(tx_speed=speed, rx_speed=speed),
            clusters=ClusterConfig(
                max_surface_hops=draw(st.integers(1, 2)),
                max_bottom_hops=draw(st.integers(1, 2)),
                rays_per_path=draw(st.integers(1, 6)),
                angle_spread_surface=draw(spread),
                angle_spread_bottom=draw(spread),
            ),
            master_seed=draw(st.integers(0, 10_000)),
        )
    )


@settings(max_examples=30, deadline=None)
@given(cfg=_co_moving_scenarios(), horizon=st.floats(1.0, 100.0))
def test_co_moving_platforms_keep_every_delay(cfg, horizon):
    # Scatterers co-move: a ray's points sit at frozen fractions of its
    # sub-path's specular runs, measured from the platforms, so platforms
    # that move together carry every ray along and no delay changes.
    # Scatterers fixed in the water would instead be passed by the platforms,
    # and the rays would lengthen or shorten. Besides 1e-14 s, a delay may
    # move by a few units in its last place. Every ray point lies between
    # the platforms, so delays here stay under a few seconds (3.7 s at most
    # over 300 random draws, where one unit is 4.4e-16 s).
    real = build_realization(cfg, 0)
    table = component_table([real], np.linspace(0.0, horizon, 5))
    for delays in [table.los_delay, *table.delays]:
        np.testing.assert_allclose(
            delays, np.broadcast_to(delays[0], delays.shape), rtol=4 * np.finfo(float).eps, atol=1e-14
        )


@st.composite
def _reciprocal_scenarios(draw):
    """Equal hop limits and equal above/below power shares: a swap of the
    platforms maps every sub-path onto one of the same kind of weight."""
    hops = draw(st.integers(1, 3))
    return validate(
        ScenarioConfig(
            geometry=draw(_geometries()),
            clusters=ClusterConfig(max_surface_hops=hops, max_bottom_hops=hops),
            power=PowerConfig(rice_k=draw(st.floats(0.0, 5.0)), da_fraction=0.5, ua_fraction=0.5),
            bottom=BottomConfig(density_ratio=draw(st.floats(1.1, 2.5)), sound_speed=draw(st.floats(1450.0, 2000.0))),
            signal=SignalConfig(carrier_freq=draw(st.floats(5000.0, 20000.0))),
        )
    )


def _pairs(cfg):
    """The cluster PDP at t = 0 as (absolute delay, power) pairs in delay order."""
    profile = pdp(cfg, 0.0, 0.0)
    return profile.delays + profile.first_arrival, profile.powers


@settings(max_examples=40, deadline=None)
@given(cfg=_reciprocal_scenarios())
def test_swapping_the_platforms_leaves_the_cluster_pdp(cfg):
    # da_sN_bN and ua_bN_sN trade places; every other sub-path maps onto itself.
    g = cfg.geometry
    swapped = dataclasses.replace(cfg, geometry=dataclasses.replace(g, tx_depth0=g.rx_depth0, rx_depth0=g.tx_depth0))
    delays, powers = _pairs(cfg)
    # two arrivals a rounding apart could swap order on the other side
    assume(np.all(np.diff(delays) > 1e-9 * delays[-1]))
    swapped_delays, swapped_powers = _pairs(swapped)
    np.testing.assert_allclose(swapped_delays, delays, rtol=1e-12, atol=0)
    np.testing.assert_allclose(swapped_powers, powers, rtol=1e-12, atol=0)
