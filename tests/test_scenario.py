"""Geometry, config validation and placement sampling."""

import math

import numpy as np
import pytest

import oracles
from pinchsim import (
    BlockageModel,
    LossCase,
    SystemConfig,
    dbm_to_watt,
    waveguide_y_offsets,
)
from pinchsim.channel import (
    _conv_element_x,
    conv_distances_sq,
    pin_distances_sq,
    power_gains,
)
from pinchsim.scenario import _place_users


def make_cfg(**kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


class TestSystemConfig:
    def test_derived_constants_at_28ghz(self):
        cfg = make_cfg()
        # independent recomputation: eta = (lambda / 4 pi)^2
        lam = 299792458.0 / 28e9
        assert np.isclose(cfg.wavelength, lam, rtol=1e-15)
        assert np.isclose(cfg.path_gain_factor, (lam / (4 * math.pi)) ** 2, rtol=1e-13)
        assert np.isclose(cfg.path_gain_factor, 7.259481705540116e-07, rtol=1e-12)

    @pytest.mark.parametrize("field", ["d_w", "d_l", "height", "carrier_freq",
                                       "noise_power", "tx_power"])
    def test_nonpositive_parameters_rejected(self, field):
        with pytest.raises(ValueError):
            make_cfg(**{field: 0.0})
        with pytest.raises(ValueError):
            make_cfg(**{field: -1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d_w", "d_l", "height", "carrier_freq",
                                       "noise_power", "tx_power",
                                       "phi", "waveguide_loss_db_per_m"])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be in \\["):
            make_cfg(**{field: value})

    def test_bad_counts_and_phi_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(num_users=0)
        with pytest.raises(ValueError):
            make_cfg(phi=-0.1)
        with pytest.raises(ValueError,
                           match="^waveguide_loss_db_per_m must be in "
                                 "\\[0, 1\\] dB/m$"):
            make_cfg(waveguide_loss_db_per_m=-0.01)

    # Each bounded field, its lower and upper edge. The power edges are
    # -100 and 100 dBm transmitted, -200 and 0 dBm of noise.
    BOX = [("d_w", 1e-2, 1e4), ("d_l", 1e-2, 1e4), ("height", 1e-2, 1e3),
           ("carrier_freq", 1e8, 1e12), ("tx_power", 1e-13, 1e7),
           ("noise_power", 1e-23, 1e-3), ("phi", 1e-9, 1e3),
           ("waveguide_loss_db_per_m", 0.0, 1.0)]

    @pytest.mark.parametrize("field, low, high", BOX)
    def test_box_edges_admitted_and_values_past_them_rejected(
            self, field, low, high):
        for value in (low, high):
            assert getattr(make_cfg(**{field: value}), field) == value
        for value in (math.nextafter(low, -math.inf),
                      math.nextafter(high, math.inf)):
            with pytest.raises(ValueError, match=f"^{field} must be in "):
                make_cfg(**{field: value})

    def test_power_edges_convert_exactly(self):
        assert (dbm_to_watt(-100.0), dbm_to_watt(100.0)) == (1e-13, 1e7)
        assert (dbm_to_watt(-200.0), dbm_to_watt(0.0)) == (1e-23, 1e-3)

    def test_phi_zero_admitted_below_its_floor(self):
        assert make_cfg(phi=0.0).phi == 0.0
        with pytest.raises(ValueError, match="^phi must be in .*, or 0$"):
            make_cfg(phi=5e-324)

    # Values the float-range gain checks rejected before the box did:
    # 1e300 Hz overflowed carrier_freq ** 2, 1e-300 Hz divided by zero and
    # 1e-160 Hz gave an infinite gain; a height of 1e-200 squares to zero,
    # 1e160 to inf, and at 1e-160 the gain at that distance is infinite
    @pytest.mark.parametrize("field, value", [
        ("carrier_freq", 1e300), ("carrier_freq", 1e-300),
        ("carrier_freq", 1e-160), ("height", 1e-200), ("height", 1e160),
        ("height", 1e300), ("height", 1e-160)])
    def test_gains_beyond_the_float_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            make_cfg(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("carrier_freq", 1e12), ("carrier_freq", 1e8), ("height", 1e3),
        ("height", 1e-2)])
    def test_gains_at_the_box_edges_admitted(self, field, value):
        cfg = make_cfg(**{field: value})
        assert 0.0 < cfg.path_gain_factor / (cfg.height * cfg.height) < math.inf

    @pytest.mark.parametrize("field, value", [("blockage_model", "MODEL_A"),
                                              ("loss_case", "CASE_I")])
    def test_non_enum_model_or_loss_case_rejected(self, field, value):
        # a raw token is not parsed here: only the config parser does that
        with pytest.raises(TypeError, match=f"^{field} must be a "):
            make_cfg(**{field: value})

    def test_dbm_conversions(self):
        assert np.isclose(dbm_to_watt(10.0), 0.01, rtol=1e-12)
        assert dbm_to_watt(4000.0) == math.inf
        assert np.isclose(dbm_to_watt(-90.0), 1e-12, rtol=1e-12)
        assert np.isclose(dbm_to_watt(23.0), 10.0 ** -0.7, rtol=1e-12)


class TestWaveguideOffsets:
    def test_hand_evaluated_examples(self):
        cfg2 = make_cfg(num_users=2)
        assert waveguide_y_offsets(cfg2)[0] == pytest.approx(-2.5, abs=1e-12)
        assert waveguide_y_offsets(cfg2)[1] == pytest.approx(2.5, abs=1e-12)
        # single waveguide is centered by symmetry
        assert waveguide_y_offsets(make_cfg())[0] == pytest.approx(0.0, abs=1e-12)

    def test_equal_spacing_and_symmetry(self):
        cfg = make_cfg(num_users=5)
        offs = waveguide_y_offsets(cfg)
        assert np.allclose(np.diff(offs), cfg.d_w / 5, atol=1e-12)
        assert np.allclose(offs, -offs[::-1], atol=1e-12)

    def test_strips_tile_area_without_overlap(self):
        cfg = make_cfg(num_users=4)
        offs = waveguide_y_offsets(cfg)
        half = cfg.strip_width / 2
        edges = np.concatenate([[offs[0] - half], offs + half])
        assert edges[0] == pytest.approx(-cfg.d_w / 2, abs=1e-12)
        assert edges[-1] == pytest.approx(cfg.d_w / 2, abs=1e-12)
        # adjacent strips share exactly one edge
        assert np.allclose(offs[:-1] + half, offs[1:] - half, atol=1e-12)


class TestConventionalArray:
    """The conventional elements' geometry, which channel alone holds."""

    def test_single_antenna_at_center(self):
        cfg = make_cfg()
        assert _conv_element_x(cfg).tolist() == [0.0]
        # straight above the origin, at waveguide height
        assert conv_distances_sq(cfg, np.zeros(1), np.zeros(1)).tolist() == [
            [cfg.height * cfg.height]]

    def test_two_antennas_quarter_wavelength(self):
        cfg = make_cfg(num_users=2)
        xs = _conv_element_x(cfg)
        # lambda/4 at 28 GHz with the exact SI speed of light
        assert np.allclose(xs, [-0.002676718375, 0.002676718375], rtol=1e-12)
        # each element sits on the x-axis at waveguide height: a user at its
        # x and at y is sqrt(y^2 + height^2) from it
        y = np.array([1.5, -2.0])
        assert np.diagonal(conv_distances_sq(cfg, xs, y)).tolist() == [
            1.5 * 1.5 + 9.0, 2.0 * 2.0 + 9.0]

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_centered_for_any_size(self, m):
        xs = _conv_element_x(make_cfg(num_users=m))
        assert xs.shape == (m,)
        assert abs(xs.mean()) < 1e-15
        if m > 1:
            assert np.allclose(np.diff(xs), make_cfg().wavelength / 2,
                               rtol=1e-12)


def drop(cfg, rng, n=1):
    """n user drops: (n, M) x and y coordinates that _place_users makes of
    (n, M) random() doubles, every x then every y, as a chunk draws them."""
    x = rng.random((n, cfg.num_users))
    y = (np.empty(x.shape) if cfg.constrain_under_waveguide
         else rng.random(x.shape))
    _place_users(cfg, x, y, waveguide_y_offsets(cfg))
    return x, y


class TestSamplePlacement:
    def test_same_seed_reproduces_bitwise(self):
        cfg = make_cfg(num_users=3)
        ax, ay = drop(cfg, np.random.default_rng(123))
        bx, by = drop(cfg, np.random.default_rng(123))
        assert np.array_equal(ax, bx)
        assert np.array_equal(ay, by)

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_is_the_one_trial_batch_draw(self, m, constrained):
        # one drop is rng.uniform's (1, M) draw of every x, then every y,
        # and leaves the stream where rng.uniform leaves it
        cfg = make_cfg(num_users=m, constrain_under_waveguide=constrained)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, y = drop(cfg, rng)
            ref = np.random.default_rng(seed)
            ref_x, ref_y = oracles.placement(cfg, 1, ref)
            assert np.array_equal(x.view(np.int64), ref_x.view(np.int64))
            assert np.array_equal(y.view(np.int64), ref_y.view(np.int64))
            assert rng.random() == ref.random()

    def test_constrained_user_sits_under_waveguide(self):
        cfg = make_cfg(constrain_under_waveguide=True)
        x, y = drop(cfg, np.random.default_rng(0))
        assert y[0, 0] == 0.0
        # pinch-to-user distance collapses to the height exactly
        d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
        assert d_sq[0, 0, 0] == 9.0

    def test_users_stay_inside_their_strips(self):
        cfg = make_cfg(num_users=2)
        x, y = drop(cfg, np.random.default_rng(7), 200)
        assert np.all(np.abs(x) <= cfg.d_l / 2)
        assert np.all((-5.0 <= y[:, 0]) & (y[:, 0] <= 0.0))
        assert np.all((0.0 <= y[:, 1]) & (y[:, 1] <= 5.0))

    def test_pinch_antenna_follows_user_x(self):
        # antenna m sits at (x_m, beta_m, height), so user m's own link has
        # no x component
        cfg = make_cfg(num_users=3)
        x, y = drop(cfg, np.random.default_rng(5))
        beta = waveguide_y_offsets(cfg)
        d_sq = pin_distances_sq(cfg, x, y, beta)[0]
        x, y = x[0], y[0]
        expected = (y - beta) ** 2 + 9.0
        assert np.allclose(np.diag(d_sq), expected, rtol=1e-12)
        cross = (x[0] - x[1]) ** 2 + (y[0] - beta[1]) ** 2 + 9.0
        assert d_sq[0, 1] == pytest.approx(cross, rel=1e-12)

    def test_feed_points_at_near_edge(self):
        # the in-waveguide run starts at x = -d_l/2, where an antenna sees no
        # loss, and spans d_l at the far edge
        cfg = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        lossless = make_cfg(num_users=2)
        d_sq = np.full((1, 2, 2), 9.0)
        pinch_x = np.array([[-20.0, 20.0]])
        ratio = (power_gains(cfg, d_sq, pinch_x)
                 / power_gains(lossless, d_sq, pinch_x))[0]
        assert np.all(ratio[:, 0] == 1.0)
        assert np.allclose(ratio[:, 1], 10.0 ** (-0.08 * 40.0 / 10.0),
                           rtol=1e-12, atol=0.0)

    def test_empirical_mean_matches_uniform_moments(self):
        # batch sampler: mean of y over 1e6 draws within 3 sigma of the
        # uniform-strip mean (strip width / sqrt(12 n) per draw)
        cfg = make_cfg(num_users=2)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        x, y = drop(cfg, rng, n)
        beta = np.array([-2.5, 2.5])
        tol = 3.0 * cfg.strip_width / math.sqrt(12.0 * n)
        assert np.all(np.abs(y.mean(axis=0) - beta) <= tol)
        tol_x = 3.0 * cfg.d_l / math.sqrt(12.0 * n)
        assert np.all(np.abs(x.mean(axis=0)) <= tol_x)