"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); the
expensive correlation ensembles are shared through module-scoped fixtures.
All runs are fully seeded, so results are reproducible bit for bit.
"""
import dataclasses
import math
import os

import numpy as np
import pytest
import quadrature
from conftest import unit_losses

import uwachan as uc
from uwachan import cli
from uwachan.channel import build_realization, evaluate_ctf
from uwachan.presets import EXPERIMENTS, TABLE1_TARGETS, evaluate, preset_scenario, table1_check
from uwachan.propagation import bottom_reflection, thorp_attenuation
from uwachan.scenario import BottomConfig, overlay

REALIZATIONS = 500
JOBS = min(2, os.cpu_count() or 1)  # each fixture's curves share one worker pool


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def correlate_curves(curves):
    """``{label: result}`` for ``(experiment, label, phase_draws)`` curves, as one ensemble."""
    plans = []
    for name, label, phase_draws in curves:
        _, lags, table = EXPERIMENTS[name]
        t, changes = table[label]
        cfg = overlay(preset_scenario(name), {**changes, "realizations": REALIZATIONS})
        plans.append(uc.acf_plan(cfg, t, 0.0, lags, phase_draws))
    return dict(zip([label for _, label, _ in curves], uc.correlate(plans, JOBS)))


@pytest.fixture(scope="module")
def fig3_curves():
    return correlate_curves([("fig3", label, 1) for label in ("k5_a1", "k0_a1", "k5_a2")])


@pytest.fixture(scope="module")
def fig4_curves():
    return correlate_curves([("fig4-time", "t0", 8), ("fig4-time", "t5", 1), ("fig4-freq", "fc100000", 1)])


def test_criterion_1_measurement_delay_moments():
    ens = evaluate("table1", "table1", overlay(preset_scenario("table1"), {"realizations": REALIZATIONS}))
    checks = table1_check(ens)
    report(
        "criterion 1 (measurement delay moments within 5%)",
        all(passed for *_, passed in checks),
        ", ".join(f"{metric} {value * 1e3:.4f} ms vs {target * 1e3:.3f} ms" for metric, value, target, _ in checks)
        + f", n={ens.n}",
    )


def test_ray_mode_table1_delay_medians():
    # Ray mode draws every diffuse ray. A few long rays still lift the
    # ensemble mean of the RMS spread above its median (4.490 against
    # 2.661 ms at seed 1, 500 realizations), so the median is the typical
    # realization. Gate: medians within 25% of the measurement.
    cfg = overlay(preset_scenario("table1"), {"realizations": REALIZATIONS})
    ens = uc.ensemble_delay_stats(cfg, jobs=JOBS)
    rows = [
        (metric, float(np.median(values)), float(values.mean()), TABLE1_TARGETS[metric])
        for metric, values in (("average_delay", ens.average), ("rms_delay_spread", ens.rms_spread))
    ]
    report(
        "ray-mode table 1 (median delay moments within 25%)",
        all(abs(median - target) <= 0.25 * target for _, median, _, target in rows),
        ", ".join(
            f"{metric} median {median * 1e3:.3f} ms (mean {mean * 1e3:.3f}) vs {target * 1e3:.3f} ms"
            for metric, median, mean, target in rows
        )
        + f", n={ens.n}",
    )


def worst_margins(margin, se):
    """The smallest ``margin`` over a curve's lags, and the smallest in units of ``se``."""
    return float(margin.min()), float((margin / se).min())


def test_criterion_2_direct_component_and_amplitude_ordering(fig3_curves):
    k5, k0, a2 = fig3_curves["k5_a1"], fig3_curves["k0_a1"], fig3_curves["k5_a2"]

    def worst_margin(hi, lo):
        se = np.sqrt(hi.expectation.stderr**2 + lo.expectation.stderr**2)
        return worst_margins((hi.expectation.norm - lo.expectation.norm + 3 * se)[1:], se[1:])

    (m_rice, se_rice), (m_amp, se_amp) = worst_margin(k5, k0), worst_margin(k5, a2)
    report(
        "criterion 2 (correlation orderings, 3-SE margin)",
        m_rice >= 0.0 and m_amp >= 0.0,
        f"K=5 vs K=0 worst margin {m_rice:+.4f} ({se_rice:+.2f} SE); "
        f"A=1 vs A=2 worst margin {m_amp:+.4f} ({se_amp:+.2f} SE)",
    )


def first_crossing(result, level=0.5):
    below = np.nonzero(result.expectation.norm < level)[0]
    return float(result.lags_t[below[0]]) if below.size else math.inf


def test_criterion_3_anchor_and_carrier_nonstationarity(fig4_curves):
    gap = float(np.abs(fig4_curves["t0"].expectation.norm - fig4_curves["t5"].expectation.norm).max())
    gap_emp = float(np.abs(fig4_curves["t0"].empirical.norm - fig4_curves["t5"].empirical.norm).max())
    c15 = first_crossing(fig4_curves["t0"])
    c100 = first_crossing(fig4_curves["fc100000"])
    report(
        "criterion 3 (non-stationarity across anchors and carriers)",
        gap > 0.05 and gap_emp > 0.05 and c100 < c15,
        f"max|ACF(t0)-ACF(t5)| = {gap:.4f} (empirical {gap_emp:.4f}, both > 0.05); "
        f"0.5-crossing {c100 * 1e3:.1f} ms @100kHz < {c15 * 1e3:.1f} ms @15kHz",
    )


def test_expectation_acf_matches_its_quadrature_reference(fig4_curves):
    # Without drift and with a still surface (fig4), the expectation
    # estimator is a deterministic integral over each scatterer point's
    # incidence draw (tests/quadrature.py), here at 64 nodes per angle.
    cfg = preset_scenario("fig4-time")
    _, lags, curves = EXPERIMENTS["fig4-time"]
    nonzero = lags != 0
    margins, moved = [], 0.0
    for label in ("t0", "t5"):
        t, result = curves[label][0], fig4_curves[label]
        reference = quadrature.expectation_acf(cfg, t, 0.0, lags, order=64)
        coarse = quadrature.expectation_acf(cfg, t, 0.0, lags, order=32)
        moved = max(moved, float(np.abs(reference - coarse).max()))
        se = result.expectation.stderr[nonzero]
        margins.append(worst_margins(3 * se - np.abs(result.expectation.norm - reference)[nonzero], se)[1])
    report(
        "expectation ACF against its quadrature reference (3-SE margin)",
        min(margins) >= 0.0 and moved < 1e-3,
        f"worst margin {margins[0]:+.2f} SE at t0, {margins[1]:+.2f} SE at t5; "
        f"32 against 64 nodes moves the reference by {moved:.1e}",
    )


def test_criterion_4_first_arrival_dominates_profiles():
    ok = True
    details = []
    for label in EXPERIMENTS["fig5"][2]:
        profile = evaluate("fig5", label)
        strongest = int(np.argmax(profile.powers))
        ok = ok and strongest == 0 and profile.delays[0] == 0.0
        details.append(f"{label} -> impulse {strongest}")
    report("criterion 4 (first arrival carries the peak power)", ok, "; ".join(details))


def test_criterion_5_estimator_cross_validation(fig4_curves):
    r = fig4_curves["t0"]
    gaps = np.abs(r.expectation.norm - r.empirical.norm)
    gap = float(gaps.max())
    # in units of the two estimators' standard errors combined as if independent
    _, margin_se = worst_margins(0.05 - gaps, np.hypot(r.expectation.stderr, r.empirical.stderr))
    report(
        "criterion 5 (expectation vs empirical ACF within 0.05)",
        gap <= 0.05,
        f"max gap {gap:.4f} over {r.lags_t.size} lags (worst margin {margin_se:+.2f} SE), n={r.n_realizations}",
    )


def test_criterion_6_loss_model_oracles():
    alpha_ok = abs(thorp_attenuation(17.0) - 3.089) <= 1e-3
    bottom = BottomConfig(density_ratio=1.5, sound_speed=1600.0)
    quarter_ok = bottom_reflection(0.0, bottom, 1440.0) == 0.25
    critical = math.asin(1500.0 / 1600.0)
    angles = np.arange(critical + 1e-9, math.pi / 2, 1e-3)
    total_ok = bool(np.all(bottom_reflection(angles, bottom, 1500.0) == 1.0))
    report(
        "criterion 6 (loss-model oracles)",
        alpha_ok and quarter_ok and total_ok,
        f"alpha(17kHz)={thorp_attenuation(17.0):.4f} dB/km; |R|(0)={bottom_reflection(0.0, bottom, 1440.0)}; "
        f"{angles.size} angles beyond critical all total",
    )


def test_criterion_7_power_normalization():
    cfg = preset_scenario("table1")
    n = 1000
    powers = np.empty(n)
    with unit_losses():
        for i in range(n):
            frame = evaluate_ctf(build_realization(cfg, i))
            powers[i] = abs(frame.values[0, 0]) ** 2
        zero_lag = uc.acf(overlay(cfg, {"realizations": 20}), 0.0, 0.0, [0.0, 0.01])
    mean = powers.mean()
    se = powers.std(ddof=1) / math.sqrt(n)
    z = (mean - 1.0) / se
    unit_zero = zero_lag.expectation.norm[0] == 1.0 and zero_lag.empirical.norm[0] == 1.0
    report(
        "criterion 7 (unit-loss power normalization)",
        abs(z) <= 3.0 and unit_zero,
        f"E|H|^2 = {mean:.4f} +- {se:.4f} (|z| = {abs(z):.2f} <= 3); |ACF(0)| == 1 exactly: {unit_zero}",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    scenario = tmp_path / "scenario.json"
    cfg = dataclasses.replace(
        preset_scenario("table1"),
        clusters=dataclasses.replace(preset_scenario("table1").clusters, rays_per_path=6),
        realizations=8,
    )
    uc.dump_scenario(cfg, str(scenario))
    outputs = []
    for tag, jobs in (("r1", "1"), ("r2", "1"), ("j2", "2")):
        out = tmp_path / f"{tag}.csv"
        code = cli.main(
            ["acf", "--scenario", str(scenario), "--lag-max", "0.02", "--lag-count", "5",
             "--jobs", jobs, "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    report(
        "criterion 8 (deterministic outputs across runs and --jobs)",
        identical,
        f"{len(outputs[0])} bytes, rerun match {outputs[0] == outputs[1]}, jobs match {outputs[0] == outputs[2]}",
    )


def test_criterion_9_geometry_oracles():
    survey = uc.GeometryConfig(distance0=2000.0, water_depth=100.0, tx_depth0=50.0, rx_depth0=80.0)
    state = uc.evolve(survey, uc.IntentionalMotion(), 0.0)
    da = uc.macro_ray(state, 100.0, uc.PathIndex(uc.PathKind.DA, 1, 0))
    ua = uc.macro_ray(state, 100.0, uc.PathIndex(uc.PathKind.UA, 0, 1))
    da_ok = abs(da.distance - math.hypot(2000.0, 70.0)) <= 1e-9
    ua_ok = abs(ua.distance - math.hypot(2000.0, 130.0)) <= 1e-9

    clusters = uc.ClusterConfig(
        max_surface_hops=1, max_bottom_hops=1, rays_per_path=1,
        angle_spread_surface=0.0, angle_spread_bottom=0.0,
    )
    sb_ok = True
    for path in (uc.PathIndex(uc.PathKind.DA, 1, 0), uc.PathIndex(uc.PathKind.UA, 0, 1)):
        cluster = uc.macro_ray(state, 100.0, path)
        rays, _ = uc.sample_micro_ray_sb(
            cluster, state, clusters, uc.stream_for(1, 0, "acc9"), clusters.rays_per_path
        )
        leg_tx, mid, leg_rx = uc.micro_ray_distances(
            rays, cluster, state, 100.0, (0.0, 0.0), (0.0, 0.0),
            uc.SurfaceMotionConfig(amplitude=0.0, freq=0.0), 0.0,
        )
        closes = np.abs(leg_tx + leg_rx - cluster.distance) <= 1e-9
        sb_ok = sb_ok and bool(np.all(mid == 0.0) and np.all(closes))
    report(
        "criterion 9 (image-method geometry oracles)",
        da_ok and ua_ok and sb_ok,
        f"surface bounce {da.distance:.7f} m, bottom bounce {ua.distance:.7f} m, "
        f"single-bounce legs close the unfolded path to 1e-9",
    )
