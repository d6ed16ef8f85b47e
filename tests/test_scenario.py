"""Geometry, config validation and placement sampling."""

import math

import numpy as np
import pytest

from pinchsim import (
    BlockageModel,
    LossCase,
    SystemConfig,
    conventional_array_positions,
    dbm_to_watt,
    watt_to_dbm,
    waveguide_y_offsets,
)
from pinchsim.channel import pin_distances_sq, waveguide_amplitude
from pinchsim.montecarlo import _sample_user_xy


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
        assert np.isclose(cfg.guided_wavelength, lam / 1.4, rtol=1e-15)
        assert np.isclose(cfg.path_gain_factor, (lam / (4 * math.pi)) ** 2, rtol=1e-13)
        assert np.isclose(cfg.path_gain_factor, 7.259481705540116e-07, rtol=1e-12)

    @pytest.mark.parametrize("field", ["d_w", "d_l", "height", "carrier_freq",
                                       "noise_power", "tx_power", "n_eff"])
    def test_nonpositive_parameters_rejected(self, field):
        with pytest.raises(ValueError):
            make_cfg(**{field: 0.0})
        with pytest.raises(ValueError):
            make_cfg(**{field: -1.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["d_w", "d_l", "height", "carrier_freq",
                                       "noise_power", "tx_power", "n_eff",
                                       "light_speed", "phi",
                                       "waveguide_loss_db_per_m"])
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            make_cfg(**{field: value})

    def test_bad_counts_and_phi_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(num_users=0)
        with pytest.raises(ValueError):
            make_cfg(phi=-0.1)

    def test_dbm_conversions(self):
        assert np.isclose(dbm_to_watt(10.0), 0.01, rtol=1e-12)
        assert dbm_to_watt(4000.0) == math.inf
        assert np.isclose(dbm_to_watt(-90.0), 1e-12, rtol=1e-12)
        assert np.isclose(watt_to_dbm(dbm_to_watt(23.0)), 23.0, rtol=1e-12)


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
    def test_single_antenna_at_center(self):
        pos = conventional_array_positions(make_cfg())
        assert np.allclose(pos, [[0.0, 0.0, 3.0]])

    def test_two_antennas_quarter_wavelength(self):
        pos = conventional_array_positions(make_cfg(num_users=2))
        # lambda/4 at 28 GHz with the exact SI speed of light
        assert np.allclose(pos[:, 0], [-0.002676718375, 0.002676718375], rtol=1e-12)
        assert np.allclose(pos[:, 1], 0.0)
        assert np.allclose(pos[:, 2], 3.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_centered_for_any_size(self, m):
        pos = conventional_array_positions(make_cfg(num_users=m))
        assert abs(pos[:, 0].mean()) < 1e-15
        spacing = np.diff(pos[:, 0])
        if m > 1:
            assert np.allclose(spacing, make_cfg().wavelength / 2, rtol=1e-12)


def drop(cfg, rng, n=1):
    """n user drops: (n, M) x and y coordinates."""
    return _sample_user_xy(cfg, n, rng, waveguide_y_offsets(cfg))


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
        beta = waveguide_y_offsets(cfg)
        half = cfg.strip_width / 2.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, y = drop(cfg, rng)
            ref = np.random.default_rng(seed)
            ref_x = ref.uniform(-cfg.d_l / 2.0, cfg.d_l / 2.0, (1, m))
            ref_y = (beta[None] if constrained
                     else ref.uniform(beta - half, beta + half, (1, m)))
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
        amp = waveguide_amplitude(cfg, np.array([[-20.0, 20.0]]))
        assert amp[0, 0] == 1.0
        assert amp[0, 1] == pytest.approx(10.0 ** (-0.08 * 40.0 / 20.0), rel=1e-12)

    def test_empirical_mean_matches_uniform_moments(self):
        # batch sampler: mean of y over 1e6 draws within 3 sigma of the
        # uniform-strip mean (strip width / sqrt(12 n) per draw)
        cfg = make_cfg(num_users=2)
        rng = np.random.default_rng(2024)
        n = 1_000_000
        x, y = _sample_user_xy(cfg, n, rng, waveguide_y_offsets(cfg))
        beta = np.array([-2.5, 2.5])
        tol = 3.0 * cfg.strip_width / math.sqrt(12.0 * n)
        assert np.all(np.abs(y.mean(axis=0) - beta) <= tol)
        tol_x = 3.0 * cfg.d_l / math.sqrt(12.0 * n)
        assert np.all(np.abs(x.mean(axis=0)) <= tol_x)