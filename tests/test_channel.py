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
    build_channel_matrix,
    sample_blockage,
    sample_placement,
    waveguide_y_offsets,
)
from pinchsim import channel
from pinchsim.channel import (
    channel_coefficients,
    conv_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
    waveguide_amplitude,
)


def make_cfg(**kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


def one_link(value):
    """A scalar as the (1, 1, 1) array of one trial, one user, one antenna."""
    return np.full((1, 1, 1), value)


class TestBlockageProbability:
    def test_zero_distance_is_certain_los(self):
        for model in BlockageModel:
            cfg = make_cfg(blockage_model=model, phi=0.7)
            assert unblocked_probability_sq(0.0, cfg) == 1.0

    def test_exponential_examples(self):
        cfg_a = make_cfg(blockage_model=BlockageModel.MODEL_A, phi=0.1)
        assert unblocked_probability_sq(100.0, cfg_a) == pytest.approx(
            0.36787944117144233, rel=1e-12)
        cfg_b = make_cfg(blockage_model=BlockageModel.MODEL_B, phi=0.1)
        assert unblocked_probability_sq(9.0, cfg_b) == pytest.approx(
            0.4065696597405991, rel=1e-12)

    @pytest.mark.parametrize("model", list(BlockageModel))
    def test_strictly_decreasing_in_distance(self, model):
        cfg = make_cfg(blockage_model=model, phi=0.3)
        dists = np.linspace(0.0, 30.0, 50)
        probs = unblocked_probability_sq(dists * dists, cfg)
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
        # one waveguide, on the center line; the antenna sits above the user
        p = math.exp(-0.1 * math.sqrt(pl.y[0] ** 2 + 9.0))
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
    """The free-space part of a link: no waveguide, so no pinch_x."""

    def test_magnitude_at_three_meters(self):
        cfg = make_cfg()
        d_sq = one_link(9.0)
        h = channel_coefficients(cfg, d_sq, power_gains(cfg, d_sq))[0, 0, 0]
        # sqrt(eta)/3 with eta = (lambda / 4 pi)^2 at 28 GHz
        assert abs(h) == pytest.approx(2.840086404307704e-04, rel=1e-12)

    def test_full_wavelength_phase_wraps(self):
        cfg = make_cfg()
        d_sq = one_link(cfg.wavelength ** 2)
        h = channel_coefficients(cfg, d_sq, power_gains(cfg, d_sq))[0, 0, 0]
        assert math.isclose(h.imag, 0.0, abs_tol=1e-12 * abs(h))
        assert h.real > 0

    def test_inverse_distance_law(self):
        cfg = make_cfg()
        # power falls as 1/r^2, so amplitude as 1/r
        far, near = power_gains(cfg, one_link(16.0)), power_gains(cfg, one_link(4.0))
        assert far == near / 4

    def test_coincident_points_rejected(self):
        # A zero-length link would make 1/r singular. Every link spans at
        # least the height, from the floor up to an antenna, and a height of
        # zero is rejected.
        with pytest.raises(ValueError, match="^height"):
            make_cfg(height=0.0)
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(16)
        x = rng.uniform(-20.0, 20.0, (50, 3))
        y = rng.uniform(-5.0, 5.0, (50, 3))
        for d_sq in (pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg)),
                     conv_distances_sq(cfg, x, y)):
            assert d_sq.min() >= cfg.height ** 2


class TestWaveguideFactor:
    def test_lossless_case_has_unit_magnitude(self):
        cfg = make_cfg(loss_case=LossCase.CASE_I)
        assert np.all(waveguide_amplitude(cfg, np.array([[-20.0, 5.0]])) == 1.0)

    def test_db_per_meter_amplitude(self):
        cfg = make_cfg(loss_case=LossCase.CASE_II)
        # 10 m from the feed at x = -20: 0.8 dB total -> 10^(-0.8/20)
        amp = waveguide_amplitude(cfg, np.array([[-10.0]]))
        assert amp[0, 0] == pytest.approx(0.9120108393559098, rel=1e-12)

    def test_lossless_pinching_gains_skip_the_amplitude(self, monkeypatch):
        # CASE_I's amplitude is 1, so the pinching gains are the free-space
        # gains bit for bit, without a pass over the ones
        cfg = make_cfg(num_users=4, loss_case=LossCase.CASE_I)
        rng = np.random.default_rng(17)
        x = rng.uniform(-20.0, 20.0, (30, 4))
        y = rng.uniform(-5.0, 5.0, (30, 4))
        d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
        free = power_gains(cfg, d_sq)

        def no_amplitude(*args, **kwargs):
            raise AssertionError("waveguide_amplitude called for CASE_I")

        monkeypatch.setattr(channel, "waveguide_amplitude", no_amplitude)
        pinched = power_gains(cfg, d_sq, x)
        assert np.array_equal(pinched.view(np.int64), free.view(np.int64))

    def test_guided_wavelength_phase_wraps(self):
        # with d_l = 2 guided wavelengths, an antenna at x = 0 is exactly one
        # guided wavelength from the feed, so the waveguide adds no phase
        lam_g = make_cfg().guided_wavelength
        cfg = make_cfg(d_l=2.0 * lam_g)
        d_sq = one_link(9.0)
        s = power_gains(cfg, d_sq)
        pinch = channel_coefficients(cfg, d_sq, s, np.zeros((1, 1)))
        free = channel_coefficients(cfg, d_sq, s)
        assert abs(pinch[0, 0, 0] - free[0, 0, 0]) <= 1e-12 * abs(free[0, 0, 0])


class TestBuildChannelMatrix:
    def test_full_blockage_gives_zero_matrix(self):
        cfg = make_cfg(num_users=2)
        pl = sample_placement(cfg, np.random.default_rng(1))
        st = BlockageState(alpha=np.zeros((2, 2), dtype=int),
                           system=SystemKind.PINCHING)
        chan = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        assert np.all(chan.h == 0)

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
        for dx in (-3.0, -0.5, 0.7, 4.0):
            moved_sq = one_link(dx * dx + pl.y[0] ** 2 + cfg.height ** 2)
            mag = math.sqrt(power_gains(cfg, moved_sq)[0, 0, 0])
            assert mag <= best * (1 + 1e-12)

    def test_deterministic_given_inputs(self):
        cfg = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        pl = sample_placement(cfg, np.random.default_rng(8))
        st = sample_blockage(pl, cfg, SystemKind.PINCHING,
                             np.random.default_rng(9))
        a = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        b = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        assert np.array_equal(a.h, b.h)

    def test_placement_of_another_user_count_rejected(self):
        pl = sample_placement(make_cfg(num_users=2), np.random.default_rng(11))
        cfg = make_cfg(num_users=3)
        ones = BlockageState(alpha=np.ones((3, 3), dtype=int),
                             system=SystemKind.PINCHING)
        with pytest.raises(ValueError, match="num_users"):
            build_channel_matrix(pl, ones, cfg, SystemKind.PINCHING)
        with pytest.raises(ValueError, match="num_users"):
            sample_blockage(pl, cfg, SystemKind.CONVENTIONAL,
                            np.random.default_rng(12))

    def test_mismatched_system_kind_rejected(self):
        cfg = make_cfg()
        pl = sample_placement(cfg, np.random.default_rng(10))
        st = BlockageState(alpha=np.ones(1, dtype=int),
                           system=SystemKind.CONVENTIONAL)
        with pytest.raises(ValueError):
            build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
