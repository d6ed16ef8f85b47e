"""Blockage draws and channel coefficient assembly."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pinchsim import (
    BlockageModel,
    LossCase,
    Scheme,
    SystemConfig,
    waveguide_y_offsets,
)
from pinchsim import channel, montecarlo
from pinchsim.channel import (
    center_distances_sq,
    channel_coefficients,
    conv_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
    waveguide_amplitude,
)
from pinchsim.scenario import _sample_user_xy
from pinchsim.transceiver import design2_rates_from_power


def make_cfg(**kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


def one_link(value):
    """A scalar as the (1, 1, 1) array of one trial, one user, one antenna."""
    return np.full((1, 1, 1), value)


def drop(cfg, rng, n=1):
    """n user drops: (n, M) x and y coordinates."""
    return _sample_user_xy(cfg, n, rng, waveguide_y_offsets(cfg))


def pin_los_probability(cfg, x, y):
    """(n, M, M) line-of-sight probabilities of the pinching links."""
    d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
    return unblocked_probability_sq(d_sq, cfg)


def pin_channel(cfg, x, y, alpha):
    """(n, M, M) pinching channels of (n, M) placements under the
    line-of-sight indicators ``alpha``, assembled as the chunk kernel does."""
    d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
    return channel_coefficients(cfg, d_sq, power_gains(cfg, d_sq, x) * alpha, x)


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
    """Blockage indicators are Bernoulli draws rng.random(p.shape) < p of
    the line-of-sight probabilities of the batched distances."""

    def test_phi_zero_always_clear(self):
        cfg = make_cfg(num_users=3, phi=0.0)
        rng = np.random.default_rng(0)
        x, y = drop(cfg, rng)
        p = pin_los_probability(cfg, x, y)
        assert np.all(rng.random((50,) + p.shape[1:]) < p)
        p = unblocked_probability_sq(center_distances_sq(cfg, x, y), cfg)
        assert p.shape == (1, 3)
        assert np.all(rng.random(p.shape) < p)

    def test_empirical_mean_matches_bernoulli(self):
        cfg = make_cfg(phi=0.1)
        rng = np.random.default_rng(11)
        x, y = drop(cfg, rng)
        # one waveguide, on the center line; the antenna sits above the user
        p = math.exp(-0.1 * math.sqrt(y[0, 0] ** 2 + 9.0))
        n = 1_000_000
        alpha = rng.random((n, 1, 1)) < pin_los_probability(cfg, x, y)
        hits = int(alpha.sum())
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= tol

    def test_constrained_model_b_mean_is_height_law(self):
        cfg = make_cfg(blockage_model=BlockageModel.MODEL_B, phi=0.1,
                       constrain_under_waveguide=True)
        rng = np.random.default_rng(3)
        x, y = drop(cfg, rng)
        n = 200_000
        alpha = rng.random((n, 1, 1)) < pin_los_probability(cfg, x, y)
        hits = int(alpha.sum())
        p = math.exp(-0.1 * 9.0)
        tol = 3.0 * math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= tol


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


class TestChannelAssembly:
    def test_full_blockage_gives_zero_matrix(self):
        cfg = make_cfg(num_users=2)
        x, y = drop(cfg, np.random.default_rng(1))
        h = pin_channel(cfg, x, y, np.zeros((2, 2), dtype=bool))
        assert np.all(h == 0)

    def test_user_under_waveguide_hits_max_gain(self):
        cfg = make_cfg(constrain_under_waveguide=True)
        x, y = drop(cfg, np.random.default_rng(2))
        h = pin_channel(cfg, x, y, True)
        expected = math.sqrt(cfg.path_gain_factor) / cfg.height
        assert abs(h[0, 0, 0]) == pytest.approx(expected, rel=1e-12)

    def test_magnitude_bounded_by_minimum_distance_gain(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(3)
        bound = math.sqrt(cfg.path_gain_factor) / cfg.height
        x, y = drop(cfg, rng, 20)
        p = pin_los_probability(cfg, x, y)
        alpha = rng.random(p.shape) < p
        mags = np.abs(pin_channel(cfg, x, y, alpha))
        assert np.all(mags <= bound * (1 + 1e-12))
        assert np.all((mags == 0) == ~alpha)

    def test_waveguide_loss_only_attenuates(self):
        cfg1 = make_cfg(num_users=2, loss_case=LossCase.CASE_I)
        cfg2 = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        x, y = drop(cfg1, np.random.default_rng(4))
        h1 = pin_channel(cfg1, x, y, True)
        h2 = pin_channel(cfg2, x, y, True)
        assert np.all(np.abs(h2) <= np.abs(h1))
        # in-waveguide length is x + d_l/2 > 0 almost surely, so strictly less
        assert np.all(np.abs(h2) < np.abs(h1))

    def test_conventional_rows_share_one_indicator(self, monkeypatch):
        # every element a user sees shares that user's one indicator: the
        # (n, M) indicators give the rates of the (n, M, M) gains with each
        # user's row blocked or clear as a whole
        cfg = make_cfg(num_users=2)
        rng = np.random.default_rng(5)
        x, y = drop(cfg, rng, 50)
        alpha = rng.random((50, 2)) < 0.5
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 2 * 2)  # 2 rows at a time
        rates = montecarlo._conv_rates(cfg, x, y, alpha, cfg.tx_power,
                                       cfg.noise_power)
        s = power_gains(cfg, conv_distances_sq(cfg, x, y)) * alpha[:, :, None]
        dense = design2_rates_from_power(s, cfg.tx_power, cfg.noise_power, 2)
        assert np.array_equal(rates, dense)
        assert np.all((rates == 0) == ~alpha)

    def test_closest_point_rule_maximizes_own_gain(self):
        # moving the antenna away from the user's x only reduces |h_mm|
        cfg = make_cfg()
        x, y = drop(cfg, np.random.default_rng(6))
        best = np.abs(pin_channel(cfg, x, y, True)[0, 0, 0])
        for dx in (-3.0, -0.5, 0.7, 4.0):
            moved_sq = one_link(dx * dx + y[0, 0] ** 2 + cfg.height ** 2)
            mag = math.sqrt(power_gains(cfg, moved_sq)[0, 0, 0])
            assert mag <= best * (1 + 1e-12)

    def test_deterministic_given_inputs(self):
        cfg = make_cfg(num_users=2, loss_case=LossCase.CASE_II)
        x, y = drop(cfg, np.random.default_rng(8))
        p = pin_los_probability(cfg, x, y)
        alpha = np.random.default_rng(9).random(p.shape) < p
        a = pin_channel(cfg, x, y, alpha)
        b = pin_channel(cfg, x, y, alpha)
        assert np.array_equal(a, b)


class TestGatedCoefficients:
    """channel_coefficients takes the square root and the exponential only
    on clear links: each is bit for bit the dense evaluation, and each
    blocked link is an exact +0j."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 5, 16]),
           phi=st.sampled_from([0.0, 0.1, 50.0]),
           loss=st.sampled_from(list(LossCase)), pinched=st.booleans(),
           n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_clear_links_equal_the_dense_evaluation(self, m, phi, loss,
                                                    pinched, n, seed):
        cfg = make_cfg(num_users=m, phi=phi, loss_case=loss)
        rng = np.random.default_rng(seed)
        x, y = drop(cfg, rng, n)
        d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
        alpha = rng.random(d_sq.shape) < unblocked_probability_sq(d_sq, cfg)
        pinch_x = x if pinched else None
        s = power_gains(cfg, d_sq, pinch_x) * alpha
        h = channel_coefficients(cfg, d_sq, s, pinch_x)
        dense = oracles.channel_coefficients_dense(cfg, d_sq, s, pinch_x)
        assert h.shape == dense.shape and h.dtype == dense.dtype
        bits, dense_bits = h.view(np.int64), dense.view(np.int64)
        clear = np.repeat(alpha, 2, axis=-1)  # real and imaginary parts
        assert np.array_equal(bits[clear], dense_bits[clear])
        assert not bits[~clear].any()  # +0.0, not -0.0
        if phi == 50.0:
            assert not alpha.any()

    @pytest.mark.parametrize("sub_links", [1 << 16, 37])
    def test_zero_forcing_rates_equal_the_dense_evaluation(self, monkeypatch,
                                                           sub_links):
        monkeypatch.setattr(montecarlo, "SUB_LINKS", sub_links)
        calls = []

        def dense(*args):
            calls.append(None)
            return oracles.channel_coefficients_dense(*args)

        def zero_forcing_bits(cfg):
            (rates,) = montecarlo._rates_chunk(
                (Scheme.PIN_D1,), cfg, 2048 // cfg.num_users,
                montecarlo.chunk_generator(13, 0, 0))
            return rates.view(np.int64)

        for m, phi, loss in itertools.product((2, 5, 16), (0.0, 0.1, 50.0),
                                              LossCase):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi, loss_case=loss)
            gated = zero_forcing_bits(cfg)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "channel_coefficients", dense)
                expected = zero_forcing_bits(cfg)
            assert np.array_equal(gated, expected), (m, phi, loss)
        assert calls
