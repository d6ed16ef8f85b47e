"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and trial budgets are pinned here, not configurable.
"""

import contextlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from pinchsim import (
    BlockageModel,
    LossCase,
    MetricKind,
    OutageParams,
    Scheme,
    SweepAxis,
    SystemConfig,
    dbm_to_watt,
    ergodic_pin_two_user_highsnr,
    estimate_ergodic,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_gap_model_b,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
    outage_pin_model_b_highsnr,
    parse_config,
    run_experiment,
    sweep,
    triangular_pdf,
    two_user_cross_blockage_factor,
)
from pinchsim.channel import channel_coefficients, pin_distances_sq, power_gains
from pinchsim.montecarlo import _sample_user_xy
from pinchsim.scenario import waveguide_y_offsets
from pinchsim.transceiver import (
    design1_rates_from_gains,
    design2_rates_from_power,
    zf_gains_batch,
    zf_precoders,
)


@contextlib.contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num:02d}: {title}")
        raise
    print(f"\n[PASS] criterion {num:02d}: {title} "
          f"({time.perf_counter() - start:.1f}s)")


def grid_points():
    """Fixed 100-point parameter grid shared by criteria 1 and 4."""
    points = []
    for d_w in (2.0, 5.0, 10.0, 20.0):
        for phi in (0.01, 0.1, 0.5, 1.0, 2.0):
            for r_target in (2.0, 7.0, 9.2, 12.0, 14.0):
                points.append((d_w, phi, r_target))
    assert len(points) == 100
    return points


def grid_cfg(d_w, phi, model):
    return SystemConfig(num_users=1, d_w=d_w, d_l=4 * d_w, tx_power=0.01,
                        phi=phi, blockage_model=model)


def rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def fig_preset_cfg(name):
    return parse_config(f"preset = {name}")


def test_criterion_01_closed_forms_match_quadrature():
    with criterion(1, "closed forms match independent quadrature on the grid"):
        start = time.perf_counter()
        for d_w, phi, r_target in grid_points():
            cfg = grid_cfg(d_w, phi, BlockageModel.MODEL_B)
            p = OutageParams(cfg=cfg, r_target=r_target)

            exact = outage_pin_model_b(p)
            assert rel_err(exact, oracles.outage_pin_quadrature(p)) <= 1e-9

            pin_mass = oracles.pin_los_mass_model_b(cfg, -d_w / 2, d_w / 2)
            floor = outage_pin_model_b_highsnr(p)
            assert rel_err(floor, 1.0 - pin_mass) <= 1e-9

            conv_mass = oracles.conv_los_mass(cfg)
            conv = outage_conv_model_b_highsnr(p)
            assert rel_err(conv, 1.0 - conv_mass) <= 1e-9

            gap = outage_gap_model_b(p)
            assert rel_err(gap, pin_mass - conv_mass) <= 1e-9
            assert abs(gap - (conv - floor)) <= 1e-12

            cfg2 = SystemConfig(num_users=2, d_w=d_w, d_l=4 * d_w,
                                tx_power=0.01, phi=phi,
                                blockage_model=BlockageModel.MODEL_B)
            bracket = two_user_cross_blockage_factor(cfg2)
            bracket_q = oracles.two_user_bracket_quadrature(cfg2)
            assert abs(bracket - bracket_q) <= 1e-10
            assert rel_err(bracket, bracket_q) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"grid took {elapsed:.1f}s, budget is 10s"


def test_criterion_02_analytics_match_simulation():
    with criterion(2, "simulated outage matches the closed form at 1e6 trials"):
        start = time.perf_counter()
        cfg = fig_preset_cfg("fig2b")
        system = replace(cfg.system, loss_case=LossCase.CASE_I)
        r_target = cfg.run.r_target
        points = sweep(system, Scheme.PIN_D2, SweepAxis.D_L,
                       [10.0, 20.0, 40.0, 80.0], MetricKind.OUTAGE,
                       1_000_000, 20250810, r_target=r_target)
        for point in points:
            est = point.estimates[0]
            p = OutageParams(cfg=replace(system, d_l=point.axis_value),
                             r_target=r_target)
            closed = outage_pin_model_b(p)
            assert abs(est.value - closed) <= est.ci_half_width, (
                f"D_L={point.axis_value}: |{est.value} - {closed}| "
                f"> {est.ci_half_width}")
        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0, f"took {elapsed:.1f}s, budget is 2min"


def test_criterion_03_highsnr_convergence():
    with criterion(3, "exact outage converges to the high-SNR floor in power"):
        cfg = fig_preset_cfg("fig2a").system
        r_target = fig_preset_cfg("fig2a").run.r_target
        diffs = []
        for dbm in (0.0, 10.0, 20.0, 30.0, 40.0):
            p = OutageParams(cfg=replace(cfg, tx_power=dbm_to_watt(dbm)),
                             r_target=r_target)
            diffs.append(outage_pin_model_a(p) - outage_pin_model_a_highsnr(p))
        assert all(d >= -1e-12 for d in diffs)
        assert all(b <= a + 1e-12 for a, b in zip(diffs, diffs[1:])), diffs
        assert diffs[-1] <= 1e-3, diffs


def test_criterion_04_conventional_never_beats_pinching():
    with criterion(4, "conv-minus-pin outage gap positive, growing with d_l"):
        for d_w, phi, r_target in grid_points():
            p_b = OutageParams(cfg=grid_cfg(d_w, phi, BlockageModel.MODEL_B),
                               r_target=r_target)
            gap_b = (outage_conv_model_b_highsnr(p_b)
                     - outage_pin_model_b_highsnr(p_b))
            assert gap_b > 0
            assert outage_gap_model_b(p_b) > 0

            p_a = OutageParams(cfg=grid_cfg(d_w, phi, BlockageModel.MODEL_A),
                               r_target=r_target)
            gap_a = (outage_conv_model_a_highsnr(p_a)
                     - outage_pin_model_a_highsnr(p_a))
            assert gap_a > 0

        gaps = []
        for d_l in (5.0, 10.0, 20.0, 40.0, 80.0):
            cfg = SystemConfig(num_users=1, d_w=5.0, d_l=d_l, tx_power=0.01,
                               phi=0.1, blockage_model=BlockageModel.MODEL_B)
            gaps.append(outage_gap_model_b(OutageParams(cfg=cfg, r_target=7.0)))
        assert all(b > a for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_05_two_user_rate_matches_analytics():
    with criterion(5, "two-user constrained simulation within 5% of analytics"):
        start = time.perf_counter()
        base = fig_preset_cfg("fig4").system
        for dbm in (30.0, 40.0):
            cfg = replace(base, tx_power=dbm_to_watt(dbm))
            est = estimate_ergodic(Scheme.PIN_D2, cfg, 100_000,
                                   20250811)[0]
            closed = ergodic_pin_two_user_highsnr(cfg)
            assert rel_err(est.value, closed) <= 0.05, (
                f"P={dbm} dBm: {est.value} vs {closed}")
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget is 1min"


def test_criterion_06_multiuser_gain_grows_conventional_saturates():
    with criterion(6, "pin-vs-conv sum-rate gap grows with power; conv saturates"):
        cfg = fig_preset_cfg("fig3a").system
        seed = 20250812
        n = 150_000
        gaps, cis = [], []
        for i, dbm in enumerate((10.0, 20.0, 30.0, 40.0)):
            point = replace(cfg, tx_power=dbm_to_watt(dbm))
            pin = estimate_ergodic(Scheme.PIN_D2, point, n, seed,
                                   axis_index=i)[-1]
            conv = estimate_ergodic(Scheme.CONV, point, n, seed,
                                    axis_index=i)[-1]
            gaps.append(pin.value - conv.value)
            cis.append(math.hypot(pin.ci_half_width, conv.ci_half_width))
        for i in range(3):
            combined = math.hypot(cis[i], cis[i + 1])
            assert gaps[i + 1] - gaps[i] > combined, (gaps, cis)

        # conventional saturation: paired draws at 40 and 60 dBm
        conv40 = estimate_ergodic(Scheme.CONV,
                                  replace(cfg, tx_power=dbm_to_watt(40.0)),
                                  n, seed)[-1]
        conv60 = estimate_ergodic(Scheme.CONV,
                                  replace(cfg, tx_power=dbm_to_watt(60.0)),
                                  n, seed)[-1]
        combined = math.hypot(conv40.ci_half_width, conv60.ci_half_width)
        assert conv60.value - conv40.value < combined


def test_criterion_07_zero_forcing_correctness():
    with criterion(7, "zero forcing nulls interference at normalized power"):
        rng = np.random.default_rng(20250813)
        checked = 0
        for m, count in ((2, 600), (5, 400)):
            cfg = SystemConfig(num_users=m, d_w=10.0, d_l=40.0, tx_power=1.0,
                               phi=0.1, blockage_model=BlockageModel.MODEL_A)
            beta = waveguide_y_offsets(cfg)
            for _ in range(count):
                # one placement, every link unblocked
                x, y = _sample_user_xy(cfg, 1, rng, beta)
                dist_sq = pin_distances_sq(cfg, x, y, beta)
                h = channel_coefficients(cfg, dist_sq,
                                         power_gains(cfg, dist_sq, x), x)[0]
                w, ok = zf_precoders(h)
                assert ok  # unblocked channels stay invertible
                eff = h @ w
                signal = np.abs(np.diag(eff)) ** 2
                cross = np.abs(eff - np.diag(np.diag(eff))) ** 2
                assert np.all(cross.max(axis=1) <= 1e-10 * signal)
                col_power = np.sum(np.abs(w) ** 2, axis=0)
                assert abs(col_power.sum() - 1.0) <= 1e-12

                gains, ok = zf_gains_batch(h)
                assert ok
                d1 = design1_rates_from_gains(gains, cfg.tx_power,
                                              cfg.noise_power)
                d2 = design2_rates_from_power(np.abs(h) ** 2, cfg.tx_power,
                                              cfg.noise_power, m)
                assert d1.sum() >= d2.sum()
                checked += 1
        assert checked == 1000


def test_criterion_08_triangular_distribution():
    with criterion(8, "x1 - x2 histogram matches the triangular density"):
        cfg = fig_preset_cfg("fig3a").system
        rng = np.random.default_rng(20250814)
        n = 1_000_000
        x, _ = _sample_user_xy(cfg, n, rng, waveguide_y_offsets(cfg))
        z = x[:, 0] - x[:, 1]
        d_l = cfg.d_l
        counts, edges = np.histogram(z, bins=50, range=(-d_l, d_l))
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        # density is linear inside each bin, so the center value is exact
        p_bin = triangular_pdf(centers, d_l) * width
        expected = n * p_bin
        sigma = np.sqrt(n * p_bin * (1.0 - p_bin))
        assert np.all(np.abs(counts - expected) <= 4.0 * sigma)


def test_criterion_09_determinism_across_worker_counts(tmp_path):
    with criterion(9, "results are byte-identical for 1, 4 and 16 workers"):
        cfg = fig_preset_cfg("fig3a")
        outputs = []
        for workers in (1, 4, 16):
            out = tmp_path / f"run_w{workers}.csv"
            run = replace(cfg.run, n_trials=40_000, axis_values=(10.0, 20.0),
                          workers=workers, output=str(out))
            run_experiment(replace(cfg, run=run))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_criterion_10_waveguide_loss_is_insignificant():
    with criterion(10, "waveguide loss costs at most 0.5 bits/s/Hz"):
        base = fig_preset_cfg("fig1").system
        for i, dbm in enumerate((10.0, 20.0, 30.0, 40.0)):
            lossless = replace(base, tx_power=dbm_to_watt(dbm),
                               loss_case=LossCase.CASE_I)
            lossy = replace(lossless, loss_case=LossCase.CASE_II)
            # paired seeds: the same placements and blockage draws
            a = estimate_ergodic(Scheme.PIN_D2, lossless, 100_000, 20250815,
                                 axis_index=i)[-1]
            b = estimate_ergodic(Scheme.PIN_D2, lossy, 100_000, 20250815,
                                 axis_index=i)[-1]
            assert b.value <= a.value
            assert a.value - b.value <= 0.5, (dbm, a.value, b.value)
