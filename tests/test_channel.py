"""Blockage draws and channel coefficient assembly."""

import math

import numpy as np
import pytest

from pinchsim import (
    BlockageModel,
    BlockageState,
    LossCase,
    SystemConfig,
    SystemKind,
    blockage_probability,
    build_channel_matrix,
    free_space_coefficient,
    sample_blockage,
    sample_placement,
    waveguide_factor,
)


def make_cfg(**kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


class TestBlockageProbability:
    def test_zero_distance_is_certain_los(self):
        for model in BlockageModel:
            cfg = make_cfg(blockage_model=model, phi=0.7)
            assert blockage_probability(0.0, cfg) == 1.0

    def test_exponential_examples(self):
        cfg_a = make_cfg(blockage_model=BlockageModel.MODEL_A, phi=0.1)
        assert blockage_probability(10.0, cfg_a) == pytest.approx(
            0.36787944117144233, rel=1e-12)
        cfg_b = make_cfg(blockage_model=BlockageModel.MODEL_B, phi=0.1)
        assert blockage_probability(3.0, cfg_b) == pytest.approx(
            0.4065696597405991, rel=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            blockage_probability(-0.5, make_cfg())

    @pytest.mark.parametrize("model", list(BlockageModel))
    def test_strictly_decreasing_in_distance(self, model):
        cfg = make_cfg(blockage_model=model, phi=0.3)
        dists = np.linspace(0.0, 30.0, 50)
        probs = blockage_probability(dists, cfg)
        assert np.all(np.diff(probs) < 0)
        assert np.all((probs > 0) & (probs <= 1))


class TestSampleBlockage:
    def test_phi_zero_always_clear(self):
        cfg = make_cfg(num_users=3, phi=0.0)
        rng = np.random.default_rng(0)
        pl = sample_placement(cfg, rng)
        for _ in range(50):
            st = sample_blockage(pl, cfg, SystemKind.PINCHING, rng)
            assert np.all(st.alpha == 1)
        st = sample_blockage(pl, cfg, SystemKind.CONVENTIONAL, rng)
        assert st.alpha.shape == (3,)
        assert np.all(st.alpha == 1)

    def test_empirical_mean_matches_bernoulli(self):
        cfg = make_cfg(phi=0.1)
        rng = np.random.default_rng(11)
        pl = sample_placement(cfg, rng)
        dist = np.linalg.norm(pl.user_positions[0] - pl.pinch_positions[0])
        p = blockage_probability(dist, cfg)
        n = 1_000_000
        st = sample_blockage(pl, cfg, SystemKind.PINCHING, rng, size=n)
        hits = int(st.alpha[:, 0, 0].sum())
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= tol

    def test_constrained_model_b_mean_is_height_law(self):
        cfg = make_cfg(blockage_model=BlockageModel.MODEL_B, phi=0.1,
                       constrain_under_waveguide=True)
        rng = np.random.default_rng(3)
        pl = sample_placement(cfg, rng)
        n = 200_000
        st = sample_blockage(pl, cfg, SystemKind.PINCHING, rng, size=n)
        hits = int(st.alpha[:, 0, 0].sum())
        p = math.exp(-0.1 * 9.0)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= tol

    @pytest.mark.parametrize("system", list(SystemKind))
    def test_batched_draw_equals_successive_draws(self, system):
        cfg = make_cfg(num_users=3, phi=0.2)
        pl = sample_placement(cfg, np.random.default_rng(12))
        rng = np.random.default_rng(13)
        single = [sample_blockage(pl, cfg, system, rng).alpha for _ in range(50)]
        batch = sample_blockage(pl, cfg, system, np.random.default_rng(13),
                                size=50)
        assert batch.alpha.shape == (50,) + single[0].shape
        assert np.array_equal(batch.alpha, np.stack(single))

    def test_batched_state_rejected_by_channel_builder(self):
        cfg = make_cfg(num_users=2)
        pl = sample_placement(cfg, np.random.default_rng(14))
        st = sample_blockage(pl, cfg, SystemKind.PINCHING,
                             np.random.default_rng(15), size=4)
        with pytest.raises(ValueError):
            build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)

    def test_binary_entries_enforced(self):
        with pytest.raises(ValueError):
            BlockageState(alpha=np.array([[0.5]]), system=SystemKind.PINCHING)

    def test_batch_axis_is_the_only_extra_axis(self):
        with pytest.raises(ValueError):
            BlockageState(alpha=np.ones((2, 2, 2, 2)), system=SystemKind.PINCHING)
        with pytest.raises(ValueError):
            BlockageState(alpha=np.ones((2, 2, 2)), system=SystemKind.CONVENTIONAL)


class TestFreeSpaceCoefficient:
    def test_magnitude_at_three_meters(self):
        cfg = make_cfg()
        h = free_space_coefficient([0.0, 0.0, 3.0], [0.0, 0.0, 0.0], cfg)
        # sqrt(eta)/3 with eta = (lambda / 4 pi)^2 at 28 GHz
        assert abs(h) == pytest.approx(2.840086404307704e-04, rel=1e-12)

    def test_full_wavelength_phase_wraps(self):
        cfg = make_cfg()
        h = free_space_coefficient([0.0, 0.0, 0.0], [cfg.wavelength, 0.0, 0.0], cfg)
        assert math.isclose(h.imag, 0.0, abs_tol=1e-12 * abs(h))
        assert h.real > 0

    def test_inverse_distance_law(self):
        cfg = make_cfg()
        h1 = free_space_coefficient([0, 0, 0], [0, 0, 2.0], cfg)
        h2 = free_space_coefficient([0, 0, 0], [0, 0, 4.0], cfg)
        assert abs(h2) == abs(h1) / 2

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            free_space_coefficient([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], make_cfg())


class TestWaveguideFactor:
    def test_lossless_case_has_unit_magnitude(self):
        cfg = make_cfg(loss_case=LossCase.CASE_I)
        f = waveguide_factor([-20.0, 0.0, 3.0], [5.0, 0.0, 3.0], cfg)
        assert abs(f) == pytest.approx(1.0, rel=1e-15)

    def test_db_per_meter_amplitude(self):
        cfg = make_cfg(loss_case=LossCase.CASE_II)
        f = waveguide_factor([0.0, 0.0, 3.0], [10.0, 0.0, 3.0], cfg)
        # 0.8 dB total -> 10^(-0.8/20)
        assert abs(f) == pytest.approx(0.9120108393559098, rel=1e-12)

    def test_guided_wavelength_phase_wraps(self):
        cfg = make_cfg()
        f = waveguide_factor([0.0, 0.0, 3.0], [cfg.guided_wavelength, 0.0, 3.0], cfg)
        assert math.isclose(f.imag, 0.0, abs_tol=1e-12)
        assert f.real > 0

    def test_different_waveguides_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            waveguide_factor([0.0, 0.0, 3.0], [1.0, 2.5, 3.0], cfg)
        with pytest.raises(ValueError):
            waveguide_factor([0.0, 0.0, 3.0], [1.0, 0.0, 2.0], cfg)


class TestBuildChannelMatrix:
    def test_full_blockage_gives_zero_matrix(self):
        cfg = make_cfg(num_users=2)
        pl = sample_placement(cfg, np.random.default_rng(1))
        st = BlockageState(alpha=np.zeros((2, 2), dtype=int),
                           system=SystemKind.PINCHING)
        chan = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        assert np.all(chan.h == 0)
        assert np.all(chan.magnitudes > 0)  # diagnostics keep the raw gains

    def test_user_under_waveguide_hits_max_gain(self):
        cfg = make_cfg(constrain_under_waveguide=True)
        pl = sample_placement(cfg, np.random.default_rng(2))
        st = BlockageState(alpha=np.ones((1, 1), dtype=int),
                           system=SystemKind.PINCHING)
        chan = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        expected = math.sqrt(cfg.path_gain_factor) / cfg.height
        assert abs(chan.h[0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_bounded_by_minimum_distance_gain(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(3)
        bound = math.sqrt(cfg.path_gain_factor) / cfg.height
        for _ in range(20):
            pl = sample_placement(cfg, rng)
            st = sample_blockage(pl, cfg, SystemKind.PINCHING, rng)
            chan = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
            mags = np.abs(chan.h)
            assert np.all(mags <= bound * (1 + 1e-12))
            assert np.all((mags == 0) == (st.alpha == 0))

    def test_waveguide_loss_only_attenuates(self):
        cfg1 = make_cfg(num_users=2, loss_case=LossCase.CASE_I)
        cfg2 = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        rng = np.random.default_rng(4)
        pl = sample_placement(cfg1, rng)
        ones = BlockageState(alpha=np.ones((2, 2), dtype=int),
                             system=SystemKind.PINCHING)
        h1 = build_channel_matrix(pl, ones, cfg1, SystemKind.PINCHING)
        h2 = build_channel_matrix(pl, ones, cfg2, SystemKind.PINCHING)
        assert np.all(np.abs(h2.h) <= np.abs(h1.h))
        # in-waveguide length is x + d_l/2 > 0 almost surely, so strictly less
        assert np.all(np.abs(h2.h) < np.abs(h1.h))

    def test_conventional_rows_share_one_indicator(self):
        cfg = make_cfg(num_users=2)
        pl = sample_placement(cfg, np.random.default_rng(5))
        st = BlockageState(alpha=np.array([1, 0]), system=SystemKind.CONVENTIONAL)
        chan = build_channel_matrix(pl, st, cfg, SystemKind.CONVENTIONAL)
        assert np.all(chan.h[1] == 0)
        assert np.all(np.abs(chan.h[0]) > 0)

    def test_closest_point_rule_maximizes_own_gain(self):
        # moving the antenna away from the user's x only reduces |h_mm|
        cfg = make_cfg()
        rng = np.random.default_rng(6)
        pl = sample_placement(cfg, rng)
        ones = BlockageState(alpha=np.ones((1, 1), dtype=int),
                             system=SystemKind.PINCHING)
        best = np.abs(build_channel_matrix(pl, ones, cfg, SystemKind.PINCHING).h[0, 0])
        user = pl.user_positions[0]
        for dx in (-3.0, -0.5, 0.7, 4.0):
            moved = np.array([[user[0] + dx, 0.0, cfg.height]])
            mag = abs(free_space_coefficient(moved[0], user, cfg))
            assert mag <= best * (1 + 1e-12)

    def test_deterministic_given_inputs(self):
        cfg = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        pl = sample_placement(cfg, np.random.default_rng(8))
        st = sample_blockage(pl, cfg, SystemKind.PINCHING,
                             np.random.default_rng(9))
        a = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        b = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        assert np.array_equal(a.h, b.h)

    def test_mismatched_system_kind_rejected(self):
        cfg = make_cfg()
        pl = sample_placement(cfg, np.random.default_rng(10))
        st = BlockageState(alpha=np.ones(1, dtype=int),
                           system=SystemKind.CONVENTIONAL)
        with pytest.raises(ValueError):
            build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
