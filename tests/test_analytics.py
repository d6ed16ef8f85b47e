"""Closed forms against independent quadrature and high-precision oracles."""

import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pinchsim import analytics, cli, transceiver
from pinchsim import (
    BlockageModel,
    MetricKind,
    OutageParams,
    LossCase,
    Scheme,
    SystemConfig,
    dbm_to_watt,
    ergodic_conv_highsnr,
    ergodic_pin_two_user_highsnr,
    parse_config,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_gap_model_b,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
    outage_pin_model_b_highsnr,
    two_user_cross_blockage_factor,
)
from pinchsim.cli import Kind, counterparts


def make_cfg(model=BlockageModel.MODEL_A, **kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=model)
    base.update(kw)
    return SystemConfig(**base)


class TestThresholdGeometry:
    def test_short_reach_collapses_to_certain_outage(self):
        # target so demanding that even the minimum distance (height) fails
        cfg = make_cfg()
        p = OutageParams(cfg=cfg, r_target=14.0)
        assert p.tau1 < cfg.height
        assert p.tau3 == 0.0

    def test_high_snr_saturates_clamps(self):
        cfg = make_cfg(tx_power=1e6)
        assert OutageParams(cfg=cfg, r_target=1.0).tau3 == 5.0

    def test_numeric_example(self):
        cfg = make_cfg(d_w=5.0)
        p = OutageParams(cfg=cfg, r_target=9.2)
        # direct arithmetic oracle
        eps = 2 ** 9.2 - 1
        tau1_sq = cfg.path_gain_factor * 0.01 / (eps * 1e-12)
        assert p.tau1 ** 2 == pytest.approx(tau1_sq, rel=1e-12)
        assert p.tau1 ** 2 == pytest.approx(12.37, abs=0.01)
        # inside the strip, so the clamp leaves it alone
        assert p.tau3 == pytest.approx(math.sqrt(tau1_sq - 9.0), rel=1e-12)
        assert p.tau3 == pytest.approx(1.836, abs=0.005)

    def test_symmetry_invariant(self):
        for rt in (0.5, 3.0, 7.7, 11.0):
            # the in-range interval is [-tau3, tau3], symmetric by
            # construction, and lies in the strip
            p = OutageParams(cfg=make_cfg(), r_target=rt)
            assert 0.0 <= p.tau3 <= 5.0

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            OutageParams(cfg=make_cfg(), r_target=0.0)

    def test_target_outside_the_box_rejected(self):
        # the box's target rates, edges included, are [1e-9, 1e3]
        for rt in (1e-9, 1e3):
            assert OutageParams(cfg=make_cfg(), r_target=rt).r_target == rt
        for rt in (math.nextafter(1e-9, 0.0), math.nextafter(1e3, math.inf),
                   1e-300, 5e-324, 1030.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^r_target must be in "
                                                 "\\[1e-09, 1000\\] "):
                OutageParams(cfg=make_cfg(), r_target=rt)

    def test_target_at_the_top_of_the_box(self):
        # 2**1000 - 1 is finite, and the threshold far below the height, so
        # no distance meets the target and both exact outages are certain
        for model in BlockageModel:
            exact = (outage_pin_model_a if model is BlockageModel.MODEL_A
                     else outage_pin_model_b)
            for rt in (999.9, 1e3):
                p = OutageParams(cfg=make_cfg(model), r_target=rt)
                assert p.epsilon == 2.0 ** rt - 1 and 0.0 < p.tau1 < 1e-140
                assert exact(p) == 1.0

    def test_vanishing_target(self):
        # At the box's least target, 1e-9, the threshold is far past the
        # strip, and both exact outages are their high-SNR floors, bit for
        # bit, as they already are at 1e-6.
        for model in BlockageModel:
            exact, floor = ((outage_pin_model_a, outage_pin_model_a_highsnr)
                            if model is BlockageModel.MODEL_A else
                            (outage_pin_model_b, outage_pin_model_b_highsnr))
            cfg = make_cfg(model, d_w=5.0)
            at_1e6 = exact(OutageParams(cfg=cfg, r_target=1e-6))
            for rt in (1e-9, math.nextafter(1e-9, 1.0), 1e-8):
                p = OutageParams(cfg=cfg, r_target=rt)
                assert 0.0 < p.epsilon < 1e-8 and p.tau1 > 1e3
                assert p.tau3 == 2.5
                assert exact(p) == at_1e6
                assert exact(p) == floor(p)
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0),
                         r_target=1e-9)
        assert outage_pin_model_b(p) == 0.6643538237983995


# Targets from 1e-9 to 20 bits/s/Hz: log-uniform from the box's least
# target on, and uniform over the few bits where tau3 moves through the
# strip.
TARGETS = st.one_of(
    st.floats(-9.0, math.log10(20.0)).map(
        lambda e: min(max(10.0 ** e, 1e-9), 20.0)),
    st.floats(1e-3, 20.0))


@st.composite
def outage_configs(draw):
    model = draw(st.sampled_from(BlockageModel))
    phi = draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)))
    return make_cfg(model, phi=phi, d_w=draw(st.floats(0.5, 50.0)),
                    height=draw(st.floats(0.1, 10.0)),
                    tx_power=draw(st.floats(1e-4, 10.0)))


class TestTau3Property:
    """tau3 over both blockage models and targets from 1e-9 to 20."""

    @settings(max_examples=150, deadline=None)
    @given(cfg=outage_configs(), targets=st.lists(TARGETS, min_size=2,
                                                  max_size=2))
    def test_clamped_monotone_and_consistent(self, cfg, targets):
        exact, floor = ((outage_pin_model_a, outage_pin_model_a_highsnr)
                        if cfg.blockage_model is BlockageModel.MODEL_A else
                        (outage_pin_model_b, outage_pin_model_b_highsnr))
        lo, hi = sorted(targets)
        p_lo = OutageParams(cfg=cfg, r_target=lo)
        p_hi = OutageParams(cfg=cfg, r_target=hi)
        # the threshold never grows with the target
        assert p_lo.tau3 >= p_hi.tau3
        for p in (p_lo, p_hi):
            assert 0.0 <= p.tau3 <= cfg.d_w / 2.0
            if p.tau3 == cfg.d_w / 2.0:
                # every in-strip position is in range: blockage alone, from
                # the same evaluation over [0, d_w/2]
                assert exact(p) == floor(p)
            elif p.tau3 == 0.0:
                # no position is in range: certain outage
                assert exact(p) == 1.0


class TestQuadratureEngine:
    """The adaptive Gauss-Legendre engine behind the MODEL_A analytics."""

    def test_exact_for_polynomials_the_coarse_rule_integrates(self):
        k = 2 * analytics._ORDER - 1
        val = analytics._integrate(lambda x: (x - 0.25) ** k, "poly")
        assert val.shape == ()
        expected = (0.75 ** (k + 1) - (-0.25) ** (k + 1)) / (k + 1)
        assert float(val) == pytest.approx(expected, rel=1e-14)

    def test_bisects_to_a_kink(self):
        val = analytics._integrate(lambda x: np.abs(x - 1.0 / 3.0), "kink")
        assert float(val) == pytest.approx(5.0 / 18.0, rel=1e-12)

    def test_integrands_on_trailing_axes_share_panels(self):
        powers = np.arange(6.0).reshape(2, 3)
        val = analytics._integrate(
            lambda x: np.sqrt(np.multiply.outer(x, np.ones((2, 3)))) ** powers,
            "powers")
        assert val.shape == (2, 3)
        np.testing.assert_allclose(val, 1.0 / (powers / 2.0 + 1.0),
                                   rtol=1e-12)

    def test_running_out_of_panels_raises_naming_the_caller(self, monkeypatch):
        monkeypatch.setattr(analytics, "_MAX_PANELS", 4)
        with pytest.raises(ArithmeticError, match="^sqrt: quadrature "):
            analytics._integrate(np.sqrt, "sqrt")


def target_placing_threshold(cfg, s):
    """A target rate whose in-range half-width p.tau3 is s, for
    0 < s <= d_w/2."""
    eps = (cfg.path_gain_factor * cfg.tx_power
           / (cfg.noise_power * (s * s + cfg.height ** 2)))
    return math.log2(1.0 + eps)


# Corners of the range SystemConfig admits, far beyond the presets: heights
# down to 1 cm, phi up to 5 / m, d_l up to 1 km, and strips from 0.5 to 200 m.
WIDE_HEIGHTS = (0.01, 3.0, 30.0)
WIDE_PHIS = (0.0, 0.1, 5.0)
WIDE_AREAS = ((0.5, 1000.0), (10.0, 40.0), (200.0, 1.0))  # (d_w, d_l)


class TestModelAAnalyticsAcrossRange:
    """The MODEL_A quadratures against mpmath references in y itself (1-D)
    and in polar coordinates (2-D)."""

    @pytest.mark.parametrize("phi", WIDE_PHIS)
    @pytest.mark.parametrize("height", WIDE_HEIGHTS)
    @pytest.mark.parametrize("d_w", (1.0, 200.0))
    def test_strip_masses_and_pinching_outage(self, d_w, height, phi):
        cfg = make_cfg(d_w=d_w, height=height, phi=phi)
        half = d_w / 2.0
        p = OutageParams(cfg=cfg, r_target=target_placing_threshold(
            cfg, 0.4 * half))
        tau3 = p.tau3
        assert tau3 == pytest.approx(0.4 * half, rel=1e-9)
        whole = oracles.strip_los_mass_mp(cfg, 0.0, half) / d_w
        tail = oracles.strip_los_mass_mp(cfg, tau3, half) / d_w
        assert outage_pin_model_a(p) == pytest.approx(
            1.0 - 2.0 * (whole - tail), rel=1e-12, abs=1e-14)
        assert outage_pin_model_a_highsnr(p) == pytest.approx(
            1.0 - 2.0 * whole, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("phi", WIDE_PHIS)
    @pytest.mark.parametrize("height", WIDE_HEIGHTS)
    @pytest.mark.parametrize("d_w, d_l", WIDE_AREAS)
    def test_conventional_outage(self, d_w, d_l, height, phi):
        cfg = make_cfg(d_w=d_w, d_l=d_l, height=height, phi=phi)
        p = OutageParams(cfg=cfg, r_target=7.0)
        ref = 1.0 - oracles.conv_los_mass_model_a_mp(cfg)
        assert outage_conv_model_a_highsnr(p) == pytest.approx(
            ref, rel=1e-12, abs=1e-14)


class TestOutagePinModelA:
    def test_certain_outage_when_target_unreachable(self):
        p = OutageParams(cfg=make_cfg(), r_target=14.0)
        assert outage_pin_model_a(p) == pytest.approx(1.0, abs=1e-12)

    def test_certain_outage_needs_no_quadrature(self, monkeypatch):
        def no_quadrature(f, where):
            raise AssertionError(f"{where} ran a quadrature")

        monkeypatch.setattr(analytics, "_integrate", no_quadrature)
        cfg = make_cfg()
        cfg_b = replace(cfg, blockage_model=BlockageModel.MODEL_B)
        for rt in (target_placing_threshold(cfg, 0.0) * (1.0 + 1e-9), 14.0,
                   1e3):
            p = OutageParams(cfg=cfg, r_target=rt)
            assert p.tau3 == 0.0
            assert outage_pin_model_a(p) == 1.0
            assert outage_pin_model_b(replace(p, cfg=cfg_b)) == 1.0
        with pytest.raises(ValueError, match="requires blockage model"):
            outage_pin_model_a(OutageParams(
                cfg=make_cfg(BlockageModel.MODEL_B), r_target=14.0))

    @settings(max_examples=60, deadline=None)
    @given(cfg=st.builds(make_cfg, phi=st.one_of(st.just(0.0),
                                                 st.floats(1e-3, 5.0)),
                         d_w=st.floats(0.5, 200.0),
                         height=st.floats(0.01, 30.0),
                         tx_power=st.floats(1e-4, 10.0)),
           near_edge=st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=4),
           inside=st.lists(st.floats(0.0, 1.0), max_size=4),
           beyond=st.lists(st.floats(1e-12, 0.5), min_size=1, max_size=3))
    def test_non_decreasing_in_target_across_regime_edges(
            self, cfg, near_edge, inside, beyond):
        # tau3 near 0 and near d_w/2, through the strip, and past both
        # edges (certain outage, clamped threshold)
        half = cfg.d_w / 2.0
        fractions = near_edge + [1.0 - f for f in near_edge] + inside
        targets = [target_placing_threshold(cfg, f * half) for f in fractions]
        certain = target_placing_threshold(cfg, 0.0)
        clamped = target_placing_threshold(cfg, half)
        targets += [r for b in beyond for r in (certain * (1.0 + b),
                                                clamped * (1.0 - b))]
        outs = [outage_pin_model_a(OutageParams(cfg=cfg, r_target=r))
                for r in sorted(targets)]
        assert all(b >= a - 1e-15 for a, b in zip(outs, outs[1:])), outs

    def test_no_blockage_no_distance_outage(self):
        p = OutageParams(cfg=make_cfg(phi=0.0, tx_power=1e6), r_target=1.0)
        assert outage_pin_model_a(p) == pytest.approx(0.0, abs=1e-12)

    def test_matches_quadrature_oracle(self):
        for rt in (2.0, 7.0, 9.2):
            for phi in (0.05, 0.1, 0.4):
                p = OutageParams(cfg=make_cfg(phi=phi), r_target=rt)
                assert outage_pin_model_a(p) == pytest.approx(
                    oracles.outage_pin_quadrature(p), rel=1e-9, abs=1e-12)

    def test_monotone_in_power_phi_and_target(self):
        powers = [1e-3, 1e-2, 1e-1, 1.0]
        outs = [outage_pin_model_a(OutageParams(cfg=make_cfg(tx_power=pw),
                                                r_target=7.0))
                for pw in powers]
        assert all(b <= a + 1e-12 for a, b in zip(outs, outs[1:]))
        phis = [0.0, 0.05, 0.1, 0.3]
        outs = [outage_pin_model_a(OutageParams(cfg=make_cfg(phi=f), r_target=7.0))
                for f in phis]
        assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))
        targets = [1.0, 4.0, 8.0, 12.0]
        outs = [outage_pin_model_a(OutageParams(cfg=make_cfg(), r_target=t))
                for t in targets]
        assert all(b >= a - 1e-12 for a, b in zip(outs, outs[1:]))


class TestOutagePinModelAHighSnr:
    def test_zero_without_blockage(self):
        p = OutageParams(cfg=make_cfg(phi=0.0), r_target=5.0)
        assert outage_pin_model_a_highsnr(p) == pytest.approx(0.0, abs=1e-12)

    def test_exact_converges_to_floor(self):
        cfg = make_cfg(tx_power=1e6)
        p = OutageParams(cfg=cfg, r_target=1.0)
        assert abs(outage_pin_model_a(p)
                   - outage_pin_model_a_highsnr(p)) <= 1e-9

    def test_equals_blockage_mass(self):
        cfg = make_cfg()
        p = OutageParams(cfg=cfg, r_target=7.0)
        expected = 1.0 - oracles.pin_los_mass_model_a(cfg, -5.0, 5.0)
        assert outage_pin_model_a_highsnr(p) == pytest.approx(expected, rel=1e-10)

    def test_strip_wider_than_its_square(self):
        # The widest strip of the box over its lowest height, height / d_w
        # = 1e-6, at the least, a middle and the largest phi: against the
        # 30-digit oracle in y itself.
        for phi in (1e-9, 1e-3, 1e3):
            cfg = make_cfg(d_w=1e4, height=1e-2, phi=phi)
            p = OutageParams(cfg=cfg, r_target=2.0)
            ref = 1.0 - 2.0 * oracles.strip_los_mass_mp(
                cfg, 0.0, cfg.d_w / 2.0) / cfg.d_w
            assert outage_pin_model_a_highsnr(p) == pytest.approx(
                ref, rel=1e-12, abs=1e-14)
            # the box's least target clamps tau3 to d_w / 2
            clamped = OutageParams(cfg=cfg, r_target=1e-9)
            assert clamped.tau3 == cfg.d_w / 2.0
            assert (outage_pin_model_a(clamped)
                    == outage_pin_model_a_highsnr(p))


class TestOutageConvModelA:
    def test_zero_without_blockage(self):
        p = OutageParams(cfg=make_cfg(phi=0.0), r_target=5.0)
        assert outage_conv_model_a_highsnr(p) == pytest.approx(0.0, abs=1e-10)

    def test_matches_full_domain_quadrature(self):
        for phi in (0.05, 0.1, 0.5):
            p = OutageParams(cfg=make_cfg(phi=phi), r_target=7.0)
            assert outage_conv_model_a_highsnr(p) == pytest.approx(
                oracles.outage_conv_quadrature(p), rel=1e-8)

    def test_never_better_than_pinching(self):
        for phi in (0.02, 0.1, 0.3, 1.0):
            for d_w in (4.0, 10.0, 20.0):
                p = OutageParams(cfg=make_cfg(phi=phi, d_w=d_w, d_l=4 * d_w),
                                 r_target=7.0)
                assert (outage_conv_model_a_highsnr(p)
                        > outage_pin_model_a_highsnr(p))

    def test_edges_of_blockage_need_no_quadrature(self, monkeypatch):
        def no_quadrature(f, where):
            raise AssertionError(f"{where} ran a quadrature")

        monkeypatch.setattr(analytics, "_integrate", no_quadrature)
        for fields in ({}, {"d_w": 1e-2, "d_l": 1e4},
                       {"height": 1e-2, "d_w": 1e4}):
            cfg = make_cfg(phi=0.0, **fields)
            assert outage_conv_model_a_highsnr(
                OutageParams(cfg=cfg, r_target=7.0)) == 0.0
        # exp(-phi * height) underflows: the outage is 1
        for fields in ({"phi": 300.0}, {"phi": 1e3},
                       {"phi": 1e3, "height": 1e3, "d_w": 1e4, "d_l": 1e4}):
            assert outage_conv_model_a_highsnr(OutageParams(
                cfg=make_cfg(**fields), r_target=7.0)) == 1.0

    def test_one_quadrature(self, monkeypatch):
        integrate, calls = analytics._integrate, []

        def counted(f, where):
            calls.append(where)
            return integrate(f, where)

        monkeypatch.setattr(analytics, "_integrate", counted)
        for fields in ({}, {"phi": 1e-9}, {"d_w": 1e-2, "d_l": 1e4,
                                           "phi": 1e-9}):
            calls.clear()
            outage_conv_model_a_highsnr(OutageParams(cfg=make_cfg(**fields),
                                                     r_target=7.0))
            assert calls == ["outage_conv_model_a_highsnr"]

    @pytest.mark.parametrize("phi", [1e-9, 1e-6, 1e-3])
    def test_thin_area_is_its_long_side(self, phi):
        # The box's thinnest area, 1 cm by 10 km, 1 cm high, in both
        # orientations: against the 30-digit polar oracle, and, where
        # phi * height is small, close to the mean of exp(-phi x) along
        # the long side.
        cfg = make_cfg(d_w=1e-2, d_l=1e4, height=1e-2, phi=phi)
        half_exponent = phi * cfg.d_l / 2.0
        for area in (cfg, replace(cfg, d_w=cfg.d_l, d_l=cfg.d_w)):
            value = outage_conv_model_a_highsnr(OutageParams(
                cfg=area, r_target=7.0))
            assert value == pytest.approx(
                1.0 - oracles.conv_los_mass_model_a_mp(area), rel=1e-12,
                abs=1e-14)
            assert value == pytest.approx(
                1.0 + math.expm1(-half_exponent) / half_exponent, rel=1e-9)

    # Bounds fixed before the first run: TestCrossRouteFuzz's ranges with
    # phi log-uniform down to 1e-9, against the 30-digit polar oracle
    # (16-32 ms a config).
    @settings(max_examples=40, deadline=None)
    @given(log_d_w=st.floats(math.log(0.3), math.log(30.0)),
           log_d_l=st.floats(math.log(1.0), math.log(200.0)),
           log_h=st.floats(math.log(0.3), math.log(10.0)),
           log_phi=st.floats(math.log(1e-9), 0.0))
    def test_matches_polar_oracle(self, log_d_w, log_d_l, log_h, log_phi):
        cfg = make_cfg(d_w=math.exp(log_d_w), d_l=math.exp(log_d_l),
                       height=math.exp(log_h), phi=math.exp(log_phi))
        ref = 1.0 - oracles.conv_los_mass_model_a_mp(cfg)
        assert outage_conv_model_a_highsnr(OutageParams(
            cfg=cfg, r_target=7.0)) == pytest.approx(ref, rel=1e-12,
                                                     abs=1e-14)

    # Every decade the box admits for d_l, d_w, the height and phi, and
    # phi = 0. The 2-D quadrature this replaced warned (overflow, invalid
    # value), divided by zero, ran out of panels or went below 0 on about
    # two draws in five of a range far wider than the box.
    @settings(max_examples=300, deadline=None)
    @given(log_d_l=st.floats(-2.0, 4.0), log_d_w=st.floats(-2.0, 4.0),
           log_h=st.floats(-2.0, 3.0),
           log_phi=st.one_of(st.none(), st.floats(-9.0, 3.0)))
    def test_in_range_across_the_gate(self, log_d_l, log_d_w, log_h,
                                      log_phi):
        cfg = make_cfg(d_w=10.0 ** log_d_w, d_l=10.0 ** log_d_l,
                       height=10.0 ** log_h,
                       phi=0.0 if log_phi is None else 10.0 ** log_phi)
        value = outage_conv_model_a_highsnr(OutageParams(cfg=cfg,
                                                         r_target=7.0))
        assert math.isfinite(value) and 0.0 <= value <= 1.0, value


class TestOutagePinModelB:
    def test_certain_outage_when_target_unreachable(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B), r_target=14.0)
        assert outage_pin_model_b(p) == 1.0

    def test_requires_model_b(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_A), r_target=7.0)
        with pytest.raises(ValueError):
            outage_pin_model_b(p)

    def test_matches_quadrature_oracle(self):
        for rt in (2.0, 7.0, 9.2, 12.0):
            for phi in (0.02, 0.1, 0.5):
                p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0,
                                              phi=phi), r_target=rt)
                assert outage_pin_model_b(p) == pytest.approx(
                    oracles.outage_pin_quadrature(p), rel=1e-9, abs=1e-12)

    def test_reference_point(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0),
                         r_target=9.2)
        assert outage_pin_model_b(p) == pytest.approx(0.732, abs=2e-3)

    def test_vanishing_strip_and_phi(self):
        # The box's narrowest strip, lowest height, least phi and largest
        # power: the outage is the blockage of exp(-phi (y^2 + height^2))
        # alone, phi (height^2 + d_w^2 / 12) = 1.08e-13, to the few digits
        # that survive 1 - (1 - 1.08e-13).
        cfg = make_cfg(BlockageModel.MODEL_B, d_w=1e-2, height=1e-2,
                       phi=1e-9, tx_power=1e7)
        p = OutageParams(cfg=cfg, r_target=2.0)
        assert p.tau3 == cfg.d_w / 2.0
        expected = cfg.phi * (cfg.height ** 2 + cfg.d_w ** 2 / 12.0)
        assert outage_pin_model_b(p) == outage_pin_model_b_highsnr(p)
        assert outage_pin_model_b(p) == pytest.approx(expected, rel=1e-2)

    def test_phi_zero_limit_branch(self):
        cfg = make_cfg(BlockageModel.MODEL_B, phi=0.0, d_w=5.0)
        p = OutageParams(cfg=cfg, r_target=9.2)
        expected = 1.0 - 2.0 * p.tau3 / cfg.d_w
        assert outage_pin_model_b(p) == pytest.approx(expected, rel=1e-12)
        assert outage_pin_model_b(p) == pytest.approx(
            oracles.outage_pin_quadrature(p), rel=1e-10)


class TestOutagePinModelBHighSnr:
    def test_reference_point(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0),
                         r_target=9.2)
        assert outage_pin_model_b_highsnr(p) == pytest.approx(0.664, abs=2e-3)

    def test_vanishes_as_phi_vanishes(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=1e-8),
                         r_target=7.0)
        assert outage_pin_model_b_highsnr(p) < 1e-4
        p0 = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=0.0),
                          r_target=7.0)
        assert outage_pin_model_b_highsnr(p0) == 0.0

    def test_equals_exact_once_clamps_saturate(self):
        # with s >= d_w/2 the clamps hit the strip edge and the forms coincide
        cfg = make_cfg(BlockageModel.MODEL_B, d_w=5.0, tx_power=10.0)
        p = OutageParams(cfg=cfg, r_target=2.0)
        assert p.tau3 == cfg.d_w / 2
        assert outage_pin_model_b(p) == pytest.approx(
            outage_pin_model_b_highsnr(p), rel=1e-14)


class TestOutageConvModelB:
    def test_matches_quadrature(self):
        for phi in (0.02, 0.1, 0.5):
            p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0,
                                          d_l=20.0, phi=phi), r_target=7.0)
            assert outage_conv_model_b_highsnr(p) == pytest.approx(
                oracles.outage_conv_quadrature(p), rel=1e-9)

    def test_never_better_than_pinching(self):
        for phi in (0.02, 0.1, 0.5, 2.0):
            p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=phi),
                             r_target=7.0)
            assert (outage_conv_model_b_highsnr(p)
                    > outage_pin_model_b_highsnr(p))

    def test_vanishes_as_phi_vanishes(self):
        p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=0.0),
                         r_target=7.0)
        assert outage_conv_model_b_highsnr(p) == 0.0


class TestOutageGapModelB:
    def test_equals_difference_of_closed_forms(self):
        for phi in (0.01, 0.1, 0.5, 2.0):
            for d_l in (10.0, 40.0, 160.0):
                p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=phi,
                                              d_l=d_l), r_target=7.0)
                diff = (outage_conv_model_b_highsnr(p)
                        - outage_pin_model_b_highsnr(p))
                assert abs(outage_gap_model_b(p) - diff) <= 1e-12

    def test_matches_quadrature_of_masses(self):
        # The absolute check above says nothing at phi = 2, where the gap is
        # below 4e-9. phi = 10 is left out: there the gap is about 1e-41 and
        # the quadrature oracle itself is off by up to 8e-4.
        for phi, d_l, d_w in itertools.product(
                (1e-3, 0.01, 0.1, 0.5, 2.0), (5.0, 40.0, 160.0), (5.0, 10.0)):
            p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=phi,
                                          d_l=d_l, d_w=d_w), r_target=7.0)
            expected = oracles.outage_gap_quadrature(p)
            assert abs(outage_gap_model_b(p) - expected) <= 1e-12 * expected, (
                phi, d_l, d_w)

    def test_positive_for_positive_phi(self):
        for phi in (0.01, 0.1, 1.0):
            p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=phi),
                             r_target=7.0)
            assert outage_gap_model_b(p) > 0.0

    def test_saturates_at_large_area_length(self):
        # at the box's longest area, erf(sqrt(phi) d_l / 2) is 1, and the
        # gap is gamma1 (1 - sqrt(pi) / (sqrt(phi) d_l)), within 6e-4 of
        # gamma1
        cfg = make_cfg(BlockageModel.MODEL_B, d_l=1e4)
        p = OutageParams(cfg=cfg, r_target=7.0)
        sqrt_phi = math.sqrt(cfg.phi)
        gamma1 = (math.sqrt(math.pi) * math.exp(-cfg.phi * 9.0)
                  / (sqrt_phi * cfg.d_w) * math.erf(sqrt_phi * cfg.d_w / 2.0))
        gap = outage_gap_model_b(p)
        assert gap == pytest.approx(gamma1 * (
            1.0 - math.sqrt(math.pi) / (sqrt_phi * cfg.d_l)), rel=1e-12)
        assert 0.0 < gamma1 - gap <= 6e-4 * gamma1

    def test_strictly_increasing_in_area_length(self):
        gaps = [outage_gap_model_b(OutageParams(
            cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0, d_l=dl), r_target=7.0))
            for dl in (5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_no_blockage_is_no_gap(self):
        # both high-SNR floors are 0 at phi = 0, the limit of small phi
        gap = outage_gap_model_b(OutageParams(
            cfg=make_cfg(BlockageModel.MODEL_B, phi=0.0), r_target=7.0))
        assert gap == 0.0
        assert outage_gap_model_b(OutageParams(
            cfg=make_cfg(BlockageModel.MODEL_B, phi=1e-9),
            r_target=7.0)) == pytest.approx(0.0, abs=1e-6)


class TestTwoUserErgodic:
    def two_user_cfg(self, tx_power=1.0, phi=0.1):
        return SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=tx_power,
                            phi=phi, blockage_model=BlockageModel.MODEL_B,
                            constrain_under_waveguide=True)

    def test_requires_two_users(self):
        for num_users in (1, 3):
            cfg = replace(self.two_user_cfg(), num_users=num_users)
            for fn in (ergodic_pin_two_user_highsnr,
                       two_user_cross_blockage_factor):
                with pytest.raises(ValueError,
                                   match="requires num_users == 2$"):
                    fn(cfg)

    def test_requires_model_b(self):
        cfg = SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=1.0,
                           phi=0.1, blockage_model=BlockageModel.MODEL_A)
        with pytest.raises(ValueError):
            ergodic_pin_two_user_highsnr(cfg)

    def test_no_blockage_gives_zero(self):
        # the cross link is never blocked, the limit of small phi
        assert two_user_cross_blockage_factor(self.two_user_cfg(phi=0.0)) == 0.0
        assert ergodic_pin_two_user_highsnr(self.two_user_cfg(phi=0.0)) == 0.0
        assert two_user_cross_blockage_factor(
            self.two_user_cfg(phi=1e-9)) == pytest.approx(0.0, abs=1e-6)

    def test_bracket_matches_quadrature(self):
        for d_w, d_l, phi in [(10.0, 40.0, 0.1), (5.0, 20.0, 0.02),
                              (20.0, 80.0, 0.5)]:
            cfg = SystemConfig(num_users=2, d_w=d_w, d_l=d_l, tx_power=1.0,
                               phi=phi, blockage_model=BlockageModel.MODEL_B)
            assert two_user_cross_blockage_factor(cfg) == pytest.approx(
                oracles.two_user_bracket_quadrature(cfg), abs=1e-10)

    def test_reference_point(self):
        assert ergodic_pin_two_user_highsnr(self.two_user_cfg()) == pytest.approx(
            6.2, abs=0.05)

    def test_heavy_blockage_kills_rate(self):
        assert ergodic_pin_two_user_highsnr(self.two_user_cfg(phi=1e3)) == 0.0

    @staticmethod
    def check_against_mpmath(cfg):
        # relative 1e-12, fixed before the first run; a rate whose exact
        # value is below the normal float range must round below it too
        bracket = two_user_cross_blockage_factor(cfg)
        rate = ergodic_pin_two_user_highsnr(cfg)
        assert bracket >= 0.0 and rate >= 0.0
        assert bracket == pytest.approx(
            float(oracles.two_user_bracket_mp(cfg)), rel=1e-12, abs=0.0)
        exact = float(oracles.two_user_rate_mp(cfg))
        if exact < sys.float_info.min:
            assert rate < sys.float_info.min
        else:
            assert rate == pytest.approx(exact, rel=1e-12, abs=0.0)

    # At fig4's geometry and 40 dBm the closed form alone was off by 8.7e-5
    # (relative) at phi = 1e-9, the box's least phi; the small-phi series
    # runs up to phi d_l^2 = 0.1, phi = 6.25e-5 here.
    @pytest.mark.parametrize("phi", [1e-9, 1e-8, 1e-7, 1e-6, 6e-5])
    def test_tiny_phi_at_fig4(self, phi):
        self.check_against_mpmath(
            self.two_user_cfg(tx_power=dbm_to_watt(40.0), phi=phi))

    @settings(max_examples=100, deadline=None)
    @given(log_phi=st.floats(-9.0, 3.0), area=st.sampled_from(WIDE_AREAS),
           height=st.sampled_from(WIDE_HEIGHTS))
    def test_matches_mpmath_across_the_phis_of_the_box(self, log_phi, area,
                                                       height):
        d_w, d_l = area
        self.check_against_mpmath(SystemConfig(
            num_users=2, d_w=d_w, d_l=d_l, tx_power=1.0, phi=10.0 ** log_phi,
            height=height, blockage_model=BlockageModel.MODEL_B,
            constrain_under_waveguide=True))

    # The corners of the box, where past it d_l ** 2 and the squared
    # waveguide spacing overflowed, the rate was an infinite SNR times a
    # zero LoS probability, or its noise term 2 sigma^2 h^2 underflowed:
    # the longest area, the widest, the lowest height, the largest phi at
    # 100 dBm, and the least phi at 100 dBm over -200 dBm of noise.
    @pytest.mark.parametrize("fields", [
        dict(d_l=1e4), dict(d_w=1e4), dict(height=1e-2),
        dict(d_w=1e-2, d_l=1e4, height=1e-2, phi=1e3,
             tx_power=dbm_to_watt(100.0)),
        dict(d_w=1e4, d_l=1e4, height=1e-2, phi=1e-9,
             tx_power=dbm_to_watt(100.0), noise_power=dbm_to_watt(-200.0)),
    ])
    def test_at_the_corners_of_the_box(self, fields):
        self.check_against_mpmath(replace(
            self.two_user_cfg(tx_power=dbm_to_watt(40.0)), **fields))

    # Every decade the box admits for d_l, d_w, the height, phi and P.
    @settings(max_examples=300, deadline=None)
    @given(log_d_l=st.floats(-2.0, 4.0), log_d_w=st.floats(-2.0, 4.0),
           log_h=st.floats(-2.0, 3.0), log_phi=st.floats(-9.0, 3.0),
           log_p=st.floats(-13.0, 7.0))
    def test_finite_across_the_gate(self, log_d_l, log_d_w, log_h, log_phi,
                                    log_p):
        cfg = SystemConfig(
            num_users=2, d_w=10.0 ** log_d_w, d_l=10.0 ** log_d_l,
            tx_power=10.0 ** log_p, phi=10.0 ** log_phi,
            height=10.0 ** log_h, blockage_model=BlockageModel.MODEL_B,
            constrain_under_waveguide=True)
        assert 0.0 <= two_user_cross_blockage_factor(cfg) <= 0.5
        rate = ergodic_pin_two_user_highsnr(cfg)
        assert math.isfinite(rate) and rate >= 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_counterpart_that_is_not_finite_is_named(self, value,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "ergodic_pin_two_user_highsnr",
                            lambda cfg: value)
        with pytest.raises(ArithmeticError,
                           match="^ergodic_pin_two_user_highsnr produced "):
            list(counterparts(Scheme.PIN_D2, MetricKind.ERGODIC_PER_USER,
                              self.two_user_cfg(), {}))

    def test_close_to_exact_constrained_expectation(self):
        # the approximation only drops the bounded both-links-clear term
        cfg = self.two_user_cfg()
        exact = oracles.two_user_ergodic_constrained(cfg)
        approx = ergodic_pin_two_user_highsnr(cfg)
        assert abs(approx - exact) / exact < 5e-3


class TestConvHighSnrBound:
    """The conventional array's high-SNR ceiling E[log2(1 + S/I)], per user
    and summed, at the geometry of the multi-user figures."""

    @staticmethod
    def geometries():
        fig3a = parse_config("preset = fig3a").system
        fig3b = parse_config("preset = fig3b").system
        return {"fig3a": fig3a, "fig3b": fig3b,
                "constrained": replace(fig3a, constrain_under_waveguide=True)}

    def test_per_user_values_then_their_sum(self):
        for cfg in self.geometries().values():
            bounds = ergodic_conv_highsnr(cfg)
            assert len(bounds) == cfg.num_users + 1
            assert all(isinstance(b, float) and b > 0 for b in bounds)
            assert bounds[-1] == math.fsum(bounds[:-1])

    def test_requires_two_users(self):
        with pytest.raises(ValueError, match="num_users >= 2"):
            ergodic_conv_highsnr(make_cfg())

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "constrained"])
    def test_matches_scipy_quadrature(self, name):
        # The geometry moves each bound only about 1e-7 to 1e-6 (relative)
        # from log2(M / (M - 1)), its value for a distant user: a relative
        # 1e-9 would not tell the strip from its center line (7e-10 apart at
        # fig3a), 1e-12 does.
        cfg = self.geometries()[name]
        assert ergodic_conv_highsnr(cfg) == pytest.approx(
            oracles.conv_rate_bound_quadrature(cfg), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["fig3a", "fig3b", "constrained"])
    def test_two_sided_against_monte_carlo(self, name):
        cfg = self.geometries()[name]
        sampled = oracles.conv_rate_bound_mc(cfg, 50_000, 2113)
        for bound, (mean, sigma) in zip(ergodic_conv_highsnr(cfg), sampled,
                                        strict=True):
            assert abs(mean - bound) <= 4.0 * sigma, (bound, mean, sigma)

    def test_blockage_noise_and_power_drop_out(self):
        # the shared indicator and the power cancel between signal and
        # interference, and the noise is taken to zero
        cfg = self.geometries()["fig3b"]
        bounds = ergodic_conv_highsnr(cfg)
        for changed in (replace(cfg, phi=0.0),
                        replace(cfg, blockage_model=BlockageModel.MODEL_B),
                        replace(cfg, tx_power=1e-13, noise_power=1e-3),
                        replace(cfg, loss_case=LossCase.CASE_II)):
            assert ergodic_conv_highsnr(changed) == bounds

    # The box's corners: strip and area 1 cm or 10 km, height 1 cm or 1 km,
    # carrier 1e8 or 1e12 Hz, users spread or on their center lines.
    BOX_CORNERS = [dict(d_w=d_w, d_l=d_l, height=h, carrier_freq=f,
                        constrain_under_waveguide=c)
                   for d_w, d_l, h, f, c in itertools.product(
                       (1e-2, 1e4), (1e-2, 1e4), (1e-2, 1e3), (1e8, 1e12),
                       (False, True))]

    @pytest.mark.parametrize("m", [2, 5])
    def test_converges_at_every_box_corner(self, m):
        for corner in self.BOX_CORNERS:
            cfg = make_cfg(num_users=m, **corner)
            bounds = ergodic_conv_highsnr(cfg)
            assert len(bounds) == m + 1
            assert all(math.isfinite(b) and b > 0.0 for b in bounds), corner
            assert bounds[-1] == math.fsum(bounds[:-1]), corner

    # 1 cm high elements on a 10 km axis: at 1e8 Hz a rule over the plain
    # axis ran out of panels or took seconds; at 1e12 Hz it stepped over
    # the peaks, 1.5e-4 m apart, and missed a 2.5e-10 rise above the far
    # value 1, which a relative 1e-9 would not tell.
    @pytest.mark.parametrize("corner", [
        dict(d_w=1e-2, d_l=1e4, height=1e-2, carrier_freq=1e8),
        dict(d_w=1e4, d_l=1e4, height=1e-2, carrier_freq=1e8),
        dict(d_w=1e-2, d_l=1e4, height=1e-2, carrier_freq=1e12),
        dict(d_w=1e-2, d_l=1e4, height=1e-2, carrier_freq=1e12,
             constrain_under_waveguide=True),
    ], ids=["narrow", "square", "narrow-1e12", "pinned-1e12"])
    def test_matches_graded_scipy_quadrature_at_a_peaked_corner(self,
                                                                 corner):
        cfg = make_cfg(num_users=2, **corner)
        assert ergodic_conv_highsnr(cfg) == pytest.approx(
            oracles.conv_rate_bound_at_peaks(cfg), rel=1e-12, abs=0.0)

    def test_out_of_panels_names_the_caller(self, monkeypatch):
        monkeypatch.setattr(analytics, "_MAX_PANELS", 0)
        with pytest.raises(ArithmeticError,
                           match="^ergodic_conv_highsnr: quadrature"):
            ergodic_conv_highsnr(self.geometries()["fig3a"])

    @pytest.mark.parametrize("m", [2, 5, 17])
    def test_row_route_is_the_dense_evaluation_bit_for_bit(self, m):
        # the bound's integrand, transceiver.conv_rates for every user at
        # unit power and no noise on (k, M) rows of SUB_LINKS links, here
        # two batches, against the dense (n, M, M) gains and every row's
        # diagonal and sum
        cfg = make_cfg(num_users=m, tx_power=1.0)
        n = transceiver.SUB_LINKS // (m * m) + 9
        rng = np.random.default_rng(2400 + m)
        x = rng.uniform(-cfg.d_l / 2.0, cfg.d_l / 2.0, (n, m))
        y = (analytics.waveguide_y_offsets(cfg)
             + cfg.strip_width * (rng.random((n, m)) - 0.5))
        rows = np.empty(n * m)
        transceiver.conv_rates(cfg, x, y, np.arange(n * m), 1.0, 0.0, rows)
        dense = oracles.conv_rates_dense(cfg, x, y, np.ones((n, m), bool),
                                         1.0, 0.0)
        assert np.array_equal(rows.view(np.int64),
                              dense.reshape(-1).view(np.int64))

    def test_memory_stays_flat_at_thirty_two_users(self):
        # a whole round's (nodes, 32, 32) link grid at once peaked at 144 MiB
        cfg = make_cfg(num_users=32, tx_power=1.0)
        tracemalloc.start()
        try:
            ergodic_conv_highsnr(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


A, B = BlockageModel.MODEL_A, BlockageModel.MODEL_B
CASE_I, CASE_II = LossCase.CASE_I, LossCase.CASE_II
OUT, PER, SUM = (MetricKind.OUTAGE, MetricKind.ERGODIC_PER_USER,
                 MetricKind.ERGODIC_SUM)
EXACT, LOWER, APPROX = Kind.EXACT, Kind.LOWER, Kind.APPROX

# cli.counterparts as it stands, cell by cell: (scheme, metric, M,
# blockage law, constrained, loss case) -> its (kind, analytic) pairs in
# order. The first is the CLI's CLOSED_FORM row. A cell not listed has none,
# among them every outage with users pinned under their waveguides, as every
# outage analytic spreads the user over its strip.
COUNTERPARTS = {
    (Scheme.PIN_D2, OUT, 1, A, False, CASE_I):
        [(LOWER, outage_pin_model_a_highsnr), (EXACT, outage_pin_model_a)],
    (Scheme.PIN_D2, OUT, 1, A, False, CASE_II):
        [(LOWER, outage_pin_model_a_highsnr), (LOWER, outage_pin_model_a)],
    (Scheme.PIN_D2, OUT, 1, B, False, CASE_I): [(EXACT, outage_pin_model_b)],
    (Scheme.PIN_D2, OUT, 1, B, False, CASE_II): [(LOWER, outage_pin_model_b)],
    (Scheme.CONV, OUT, 1, A, False, CASE_I):
        [(LOWER, outage_conv_model_a_highsnr)],
    (Scheme.CONV, OUT, 1, A, False, CASE_II):
        [(LOWER, outage_conv_model_a_highsnr)],
    (Scheme.CONV, OUT, 1, B, False, CASE_I):
        [(LOWER, outage_conv_model_b_highsnr)],
    (Scheme.CONV, OUT, 1, B, False, CASE_II):
        [(LOWER, outage_conv_model_b_highsnr)],
    # fig4's shape: user 1's rate, and twice it for the sum
    (Scheme.PIN_D2, PER, 2, B, True, CASE_I):
        [(APPROX, ergodic_pin_two_user_highsnr)],
    (Scheme.PIN_D2, PER, 2, B, True, CASE_II):
        [(APPROX, ergodic_pin_two_user_highsnr)],
    (Scheme.PIN_D2, SUM, 2, B, True, CASE_I):
        [(APPROX, lambda cfg: 2.0 * ergodic_pin_two_user_highsnr(cfg))],
    (Scheme.PIN_D2, SUM, 2, B, True, CASE_II):
        [(APPROX, lambda cfg: 2.0 * ergodic_pin_two_user_highsnr(cfg))],
}
# A lone user sees no interference, so PIN_D1 is PIN_D2 at M = 1.
COUNTERPARTS |= {(Scheme.PIN_D1, *cell[1:]): pairs
                 for cell, pairs in COUNTERPARTS.items()
                 if cell[0] is Scheme.PIN_D2 and cell[2] == 1}
# Above R_CLAMPED (7.7449) and below R_CERTAIN (9.6575) at 10 dBm on a
# 10 x 40 m area, so tau3 falls inside the strip and every outage analytic
# of a law gives its own value (TestCounterpartTable checks that).
R_INSIDE = 8.5


def table_point(metric, m, law, constrained, loss):
    cfg = SystemConfig(num_users=m, d_w=10.0, d_l=40.0, height=3.0, phi=0.1,
                       tx_power=dbm_to_watt(10.0),
                       noise_power=dbm_to_watt(-90.0), blockage_model=law,
                       loss_case=loss, constrain_under_waveguide=constrained)
    return OutageParams(cfg=cfg, r_target=R_INSIDE) if metric is OUT else cfg


class TestCounterpartTable:
    @pytest.mark.parametrize("cell", list(itertools.product(
        Scheme, MetricKind, (1, 2, 5), BlockageModel, (False, True),
        LossCase)), ids=lambda cell: "-".join(
            str(v.value if hasattr(v, "value") else v) for v in cell))
    def test_each_cell_gives_todays_counterparts(self, cell):
        scheme, metric, *rest = cell
        point = table_point(metric, *rest)
        got = list(counterparts(scheme, metric, point, {}))
        expected = [(kind, analytic(point))
                    for kind, analytic in COUNTERPARTS.get(cell, [])]
        assert got == expected

    def test_the_point_tells_the_outage_analytics_apart(self):
        for law, analytics_of_law in (
                (A, (outage_pin_model_a, outage_pin_model_a_highsnr,
                     outage_conv_model_a_highsnr)),
                (B, (outage_pin_model_b, outage_pin_model_b_highsnr,
                     outage_conv_model_b_highsnr))):
            point = table_point(OUT, 1, law, False, CASE_I)
            values = {f(point) for f in analytics_of_law}
            assert len(values) == len(analytics_of_law)
            assert 0.0 < min(values) and max(values) < 1.0
