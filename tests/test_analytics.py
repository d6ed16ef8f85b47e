"""Closed forms against independent quadrature and high-precision oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from pinchsim import (
    BlockageModel,
    OutageParams,
    SystemConfig,
    ergodic_pin_two_user_highsnr,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_gap_model_b,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
    outage_pin_model_b_highsnr,
    strip_los_integral,
    threshold_geometry,
    triangular_pdf,
    two_user_cross_blockage_factor,
)


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
        t = threshold_geometry(p)
        assert t.s == 0.0 and t.tau2 == 0.0 and t.tau3 == 0.0

    def test_high_snr_saturates_clamps(self):
        cfg = make_cfg(tx_power=1e6)
        t = threshold_geometry(OutageParams(cfg=cfg, r_target=1.0))
        assert t.tau2 == -5.0 and t.tau3 == 5.0

    def test_numeric_example(self):
        cfg = make_cfg(d_w=5.0)
        p = OutageParams(cfg=cfg, r_target=9.2)
        # direct arithmetic oracle
        eps = 2 ** 9.2 - 1
        tau1_sq = cfg.path_gain_factor * 0.01 / (eps * 1e-12)
        assert p.tau1 ** 2 == pytest.approx(tau1_sq, rel=1e-12)
        assert p.tau1 ** 2 == pytest.approx(12.37, abs=0.01)
        t = threshold_geometry(p)
        assert t.s == pytest.approx(math.sqrt(tau1_sq - 9.0), rel=1e-12)
        assert t.s == pytest.approx(1.836, abs=0.005)
        assert t.tau2 == -t.tau3

    def test_symmetry_invariant(self):
        for rt in (0.5, 3.0, 7.7, 11.0):
            t = threshold_geometry(OutageParams(cfg=make_cfg(), r_target=rt))
            assert t.tau2 == -t.tau3
            assert -5.0 <= t.tau2 <= 0.0 <= t.tau3 <= 5.0

    def test_target_must_be_positive(self):
        with pytest.raises(ValueError):
            OutageParams(cfg=make_cfg(), r_target=0.0)


class TestStripIntegral:
    def test_unit_integrand_at_phi_zero(self):
        cfg = make_cfg(phi=0.0)
        assert strip_los_integral(-2.0, 3.0, cfg) == pytest.approx(0.5, rel=1e-12)

    def test_additivity(self):
        cfg = make_cfg()
        whole = strip_los_integral(-5.0, 5.0, cfg)
        parts = strip_los_integral(-5.0, 1.3, cfg) + strip_los_integral(1.3, 5.0, cfg)
        assert parts == pytest.approx(whole, rel=1e-11)

    def test_bounds_and_oracle_value(self):
        cfg = make_cfg()
        val = strip_los_integral(-5.0, 5.0, cfg)
        # integrand bounds exp(-phi*sqrt(34)) < f < exp(-phi*3)
        assert math.exp(-0.1 * math.sqrt(34.0)) < val < math.exp(-0.3)
        assert val == pytest.approx(oracles.pin_los_mass_model_a(cfg, -5.0, 5.0),
                                    rel=1e-10)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            strip_los_integral(1.0, 0.0, make_cfg())


class TestOutagePinModelA:
    def test_certain_outage_when_target_unreachable(self):
        p = OutageParams(cfg=make_cfg(), r_target=14.0)
        assert outage_pin_model_a(p) == pytest.approx(1.0, abs=1e-12)

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

    def test_phi_zero_limit_branch(self):
        cfg = make_cfg(BlockageModel.MODEL_B, phi=0.0, d_w=5.0)
        p = OutageParams(cfg=cfg, r_target=9.2)
        t = threshold_geometry(p)
        expected = 1.0 - (t.tau3 - t.tau2) / cfg.d_w
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
        assert threshold_geometry(p).s >= cfg.d_w / 2
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

    def test_positive_for_positive_phi(self):
        for phi in (0.01, 0.1, 1.0):
            p = OutageParams(cfg=make_cfg(BlockageModel.MODEL_B, phi=phi),
                             r_target=7.0)
            assert outage_gap_model_b(p) > 0.0

    def test_saturates_at_large_area_length(self):
        cfg = make_cfg(BlockageModel.MODEL_B, d_l=1e6)
        p = OutageParams(cfg=cfg, r_target=7.0)
        sqrt_phi = math.sqrt(cfg.phi)
        gamma1 = (math.sqrt(math.pi) * math.exp(-cfg.phi * 9.0)
                  / (sqrt_phi * cfg.d_w) * math.erf(sqrt_phi * cfg.d_w / 2.0))
        assert abs(outage_gap_model_b(p) - gamma1) <= 1e-5

    def test_strictly_increasing_in_area_length(self):
        gaps = [outage_gap_model_b(OutageParams(
            cfg=make_cfg(BlockageModel.MODEL_B, d_w=5.0, d_l=dl), r_target=7.0))
            for dl in (5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestTriangularPdf:
    def test_peak_and_edges(self):
        assert triangular_pdf(0.0, 40.0) == pytest.approx(1.0 / 40.0, rel=1e-15)
        assert triangular_pdf(40.0, 40.0) == 0.0
        assert triangular_pdf(-40.0, 40.0) == 0.0
        assert triangular_pdf(55.0, 40.0) == 0.0

    def test_normalization(self):
        val, _ = quad(lambda z: triangular_pdf(z, 40.0), -40.0, 40.0,
                      epsabs=1e-13, epsrel=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            triangular_pdf(0.0, 0.0)


class TestTwoUserErgodic:
    def two_user_cfg(self, tx_power=1.0, phi=0.1):
        return SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=tx_power,
                            phi=phi, blockage_model=BlockageModel.MODEL_B,
                            constrain_under_waveguide=True)

    def test_requires_two_users(self):
        cfg = make_cfg(BlockageModel.MODEL_B)
        with pytest.raises(ValueError):
            ergodic_pin_two_user_highsnr(cfg)

    def test_requires_model_b(self):
        cfg = SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=1.0,
                           phi=0.1, blockage_model=BlockageModel.MODEL_A)
        with pytest.raises(ValueError):
            ergodic_pin_two_user_highsnr(cfg)

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

    def test_close_to_exact_constrained_expectation(self):
        # the approximation only drops the bounded both-links-clear term
        cfg = self.two_user_cfg()
        exact = oracles.two_user_ergodic_constrained(cfg)
        approx = ergodic_pin_two_user_highsnr(cfg)
        assert abs(approx - exact) / exact < 5e-3
