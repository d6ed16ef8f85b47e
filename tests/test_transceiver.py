"""Zero forcing, the low-complexity design, and the conventional baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pinchsim import (
    BlockageModel,
    BlockageState,
    ChannelMatrix,
    SchemeUsed,
    SystemConfig,
    SystemKind,
    conventional_rates,
    design1_rates,
    design2_rates,
    sample_placement,
    zero_forcing_gains,
    zero_forcing_precoder,
)
from pinchsim.transceiver import design2_rates_from_power, zf_gains_batch


def make_cfg(**kw):
    base = dict(num_users=2, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


def as_channel(h, system=SystemKind.PINCHING):
    return ChannelMatrix(h=h, system=system)


def random_channels(n, m, rng, scale=1e-4):
    """Random complex matrices at realistic channel magnitudes."""
    return scale * (rng.standard_normal((n, m, m))
                    + 1j * rng.standard_normal((n, m, m)))


class TestZeroForcingGains:
    def test_single_antenna_gain_is_power_gain(self):
        h = 3e-4 * np.exp(1j * 0.7)
        gains = zero_forcing_gains(as_channel([[h]]))
        assert gains[0] == pytest.approx(abs(h) ** 2, rel=1e-12)

    def test_diagonal_two_user_example(self):
        gains = zero_forcing_gains(as_channel(np.diag([1.0, 2.0])))
        assert np.allclose(gains, [0.5, 2.0], rtol=1e-12)

    def test_zero_row_signals_rank_deficiency(self):
        h = np.array([[0.0, 0.0], [1.0, 2.0]], dtype=complex)
        assert zero_forcing_gains(as_channel(h)) is None

    def test_zero_column_signals_rank_deficiency(self):
        h = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)
        assert zero_forcing_gains(as_channel(h)) is None

    def test_near_singular_signals_rank_deficiency(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
        assert zero_forcing_gains(as_channel(h)) is None

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            zero_forcing_gains(as_channel(np.ones((2, 3), dtype=complex)))


class TestZeroForcingPrecoder:
    def test_interference_nulling_and_power(self):
        rng = np.random.default_rng(42)
        for h in random_channels(100, 3, rng):
            w = zero_forcing_precoder(as_channel(h))
            if w is None:
                continue
            eff = h @ w
            signal = np.abs(np.diag(eff)) ** 2
            cross = np.abs(eff - np.diag(np.diag(eff))) ** 2
            assert np.all(cross.max(axis=1) <= 1e-10 * signal)
            col_power = np.sum(np.abs(w) ** 2, axis=0)
            assert np.allclose(col_power, 1.0 / 3.0, rtol=1e-12)
            assert abs(col_power.sum() - 1.0) <= 1e-12

    def test_effective_gain_matches_reported_gains(self):
        rng = np.random.default_rng(1)
        h = random_channels(1, 2, rng)[0]
        w = zero_forcing_precoder(as_channel(h))
        gains = zero_forcing_gains(as_channel(h))
        eff = h @ w
        assert np.allclose(np.abs(np.diag(eff)) ** 2, gains, rtol=1e-10)


class TestDesign1:
    def test_single_user_rate(self):
        cfg = make_cfg(num_users=1)
        h = 2.8e-4 * np.exp(-0.3j)
        rv = design1_rates(as_channel([[h]]), cfg)
        expected = math.log2(1 + abs(h) ** 2 * cfg.tx_power / cfg.noise_power)
        assert rv.rates[0] == pytest.approx(expected, rel=1e-12)
        assert rv.scheme_used is SchemeUsed.ZF

    def test_diagonal_channel_splits_power(self):
        cfg = make_cfg()
        h = 3e-4
        rv = design1_rates(as_channel(np.diag([h, h])), cfg)
        expected = math.log2(1 + h ** 2 * cfg.tx_power / (2 * cfg.noise_power))
        assert np.allclose(rv.rates, expected, rtol=1e-12)

    def test_blocked_user_triggers_fallback(self):
        cfg = make_cfg()
        h = np.array([[0.0, 0.0], [0.0, 3e-4]], dtype=complex)
        rv = design1_rates(as_channel(h), cfg)
        assert rv.scheme_used is SchemeUsed.DESIGN2_FALLBACK
        assert rv.rates[0] == 0.0
        assert rv.rates[1] > 0.0

    def test_row_phase_rotation_leaves_rates_unchanged(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(5)
        h = random_channels(1, 3, rng)[0]
        base = design1_rates(as_channel(h), cfg).rates
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None] * h
        rotated = design1_rates(as_channel(rot), cfg).rates
        assert np.allclose(rotated, base, rtol=1e-11)


class TestDesign2:
    def test_interference_free_when_cross_links_blocked(self):
        cfg = make_cfg()
        h = np.diag([2e-4, 3e-4]).astype(complex)
        rv = design2_rates(as_channel(h), cfg)
        expected = [math.log2(1 + (2e-4) ** 2 * cfg.tx_power / (2 * cfg.noise_power)),
                    math.log2(1 + (3e-4) ** 2 * cfg.tx_power / (2 * cfg.noise_power))]
        assert np.allclose(rv.rates, expected, rtol=1e-12)
        assert rv.scheme_used is SchemeUsed.DESIGN2

    def test_blocked_own_link_gives_zero_rate(self):
        cfg = make_cfg()
        h = np.array([[0.0, 2e-4], [1e-4, 3e-4]], dtype=complex)
        rv = design2_rates(as_channel(h), cfg)
        assert rv.rates[0] == 0.0

    def test_two_user_closed_expression(self):
        cfg = make_cfg()
        a, b = 2.5e-4, 0.8e-4
        h = np.array([[a, b], [0.0, 3e-4]], dtype=complex)
        rv = design2_rates(as_channel(h), cfg)
        expected = math.log2(1 + a * a * cfg.tx_power
                             / (b * b * cfg.tx_power + 2 * cfg.noise_power))
        assert rv.rates[0] == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_interference_and_signal(self):
        cfg = make_cfg()
        own = 2e-4
        cross = np.linspace(0.0, 3e-4, 15)
        rates = [design2_rates(as_channel([[own, c], [0, own]]), cfg).rates[0]
                 for c in cross]
        assert np.all(np.diff(rates) < 0)
        owns = np.linspace(1e-5, 4e-4, 15)
        rates = [design2_rates(as_channel([[o, 1e-4], [0, own]]), cfg).rates[0]
                 for o in owns]
        assert np.all(np.diff(rates) > 0)

    def test_entrywise_phase_rotation_is_exactly_invariant(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(9)
        h = random_channels(1, 3, rng)[0]
        base = design2_rates(as_channel(h), cfg).rates
        rot = h * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        # magnitudes unchanged -> identical rates up to rounding in abs()
        assert np.allclose(design2_rates(as_channel(rot), cfg).rates, base,
                           rtol=1e-12)


class TestDesign1VersusDesign2:
    def test_zero_forcing_wins_at_high_snr_when_feasible(self):
        cfg = make_cfg(tx_power=1.0)
        rng = np.random.default_rng(17)
        pl = sample_placement(cfg, rng)
        st = BlockageState(alpha=np.ones((2, 2), dtype=int),
                           system=SystemKind.PINCHING)
        from pinchsim import build_channel_matrix
        chan = build_channel_matrix(pl, st, cfg, SystemKind.PINCHING)
        r1 = design1_rates(chan, cfg)
        r2 = design2_rates(chan, cfg)
        assert r1.scheme_used is SchemeUsed.ZF
        assert r1.rates.sum() >= r2.rates.sum()


class TestConventional:
    def test_blocked_user_has_zero_rate(self):
        cfg = make_cfg()
        pl = sample_placement(cfg, np.random.default_rng(3))
        st = BlockageState(alpha=np.array([0, 1]), system=SystemKind.CONVENTIONAL)
        rv = conventional_rates(pl, st, cfg)
        assert rv.rates[0] == 0.0
        assert rv.rates[1] > 0.0
        assert rv.scheme_used is SchemeUsed.CONVENTIONAL

    def test_single_user_distance_law(self):
        cfg = make_cfg(num_users=1)
        pl = sample_placement(cfg, np.random.default_rng(4))
        st = BlockageState(alpha=np.array([1]), system=SystemKind.CONVENTIONAL)
        rv = conventional_rates(pl, st, cfg)
        r_sq = pl.x[0] ** 2 + pl.y[0] ** 2 + cfg.height ** 2
        expected = math.log2(1 + cfg.path_gain_factor * cfg.tx_power
                             / (cfg.noise_power * r_sq))
        assert rv.rates[0] == pytest.approx(expected, rel=1e-12)

    def test_rate_saturates_in_power(self):
        # 40 dBm vs 60 dBm on a fixed unblocked placement: < 1e-3 bits apart
        rng = np.random.default_rng(6)
        cfg_lo = make_cfg(tx_power=10.0)
        cfg_hi = make_cfg(tx_power=1000.0)
        pl = sample_placement(cfg_lo, rng)
        st = BlockageState(alpha=np.array([1, 1]), system=SystemKind.CONVENTIONAL)
        lo = conventional_rates(pl, st, cfg_lo).rates
        hi = conventional_rates(pl, st, cfg_hi).rates
        assert np.all(hi >= lo)
        assert np.all(hi - lo < 1e-3)


class TestBatchConsistency:
    def test_batch_gains_match_scalar(self):
        rng = np.random.default_rng(21)
        batch = random_channels(64, 3, rng)
        batch[5, 0, :] = 0.0  # inject a rank-deficient realization
        gains, ok = zf_gains_batch(batch)
        for i in range(64):
            scalar = zero_forcing_gains(as_channel(batch[i]))
            if scalar is None:
                assert not ok[i]
            else:
                assert ok[i]
                assert np.allclose(gains[i], scalar, rtol=1e-12)

    def test_batch_design2_matches_scalar(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(22)
        batch = random_channels(32, 3, rng)
        s_eff = np.abs(batch) ** 2
        rates = design2_rates_from_power(s_eff, cfg.tx_power, cfg.noise_power, 3)
        for i in range(32):
            rv = design2_rates(as_channel(batch[i]), cfg)
            assert np.allclose(rates[i], rv.rates, rtol=1e-12)


def conditioned_matrix(cond, m, rng, scale=3e-4):
    """scale * U diag(s) V with Haar-like unitary U, V and 2-norm cond(H) = cond."""
    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((m, m))
                            + 1j * rng.standard_normal((m, m)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    s = np.geomspace(1.0, 1.0 / cond, m)
    return scale * (unitary() * s) @ unitary()


class TestZeroForcingAccuracy:
    @pytest.mark.parametrize("cond", [1e6, 1e8, 1e10])
    def test_gains_match_high_precision_inverse(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)))
        batch = np.stack([conditioned_matrix(cond, 4, rng) for _ in range(4)])
        gains, ok = zf_gains_batch(batch)
        assert ok.all()
        for h, g in zip(batch, gains):
            expected = np.array(oracles.zf_gains_highprec(h))
            assert np.all(np.abs(g - expected) <= 1e-5 * expected)


class TestMixedBatch:
    def mixed_batch(self):
        rng = np.random.default_rng(77)
        good = random_channels(5, 3, rng)
        a, b, c, d, e = 1e-4 * (rng.standard_normal(5)
                                + 1j * rng.standard_normal(5))
        zero_row = random_channels(1, 3, rng)[0]
        zero_row[1, :] = 0.0
        zero_col = random_channels(1, 3, rng)[0]
        zero_col[:, 2] = 0.0
        # rank 2 with no empty row or column. With a small c, LU meets an
        # exact zero pivot; with a large c, row 3 is the first pivot and the
        # singularity shows only through rounding.
        pattern = np.array([[a, 0, 0], [b, 0, 0], [1e-3 * c, d, e]])
        pattern_pivot = np.array([[a, 0, 0], [b, 0, 0], [1e3 * c, d, e]])
        near = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0],
                         [0.0, 0.0, 1.0]], dtype=complex)
        batch = np.stack([good[0], zero_row, good[1], zero_col, pattern,
                          good[2], pattern_pivot, near, good[3], good[4]])
        bad = np.array([False, True, False, True, True,
                        False, True, True, False, False])
        return batch, bad

    def test_ok_exactly_on_full_rank_rows(self):
        batch, bad = self.mixed_batch()
        gains, ok = zf_gains_batch(batch)
        assert np.array_equal(ok, ~bad)
        assert np.all(np.isnan(gains[bad]))
        assert np.all(np.isfinite(gains[~bad]) & (gains[~bad] > 0))

    def test_each_row_matches_scalar_call(self):
        batch, _ = self.mixed_batch()
        gains, ok = zf_gains_batch(batch)
        for i, h in enumerate(batch):
            scalar = zero_forcing_gains(as_channel(h))
            assert (scalar is None) == (not ok[i])
            if scalar is not None:
                assert np.allclose(gains[i], scalar, rtol=1e-12)

    def test_leading_batch_shape_is_kept(self):
        batch, bad = self.mixed_batch()
        gains, ok = zf_gains_batch(batch.reshape(2, 5, 3, 3))
        assert gains.shape == (2, 5, 3) and ok.shape == (2, 5)
        assert np.array_equal(ok.ravel(), ~bad)


@st.composite
def sparse_channel(draw):
    """A generic complex M x M matrix with a drawn zero pattern."""
    m = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    mask = np.array(draw(st.lists(st.booleans(), min_size=m * m,
                                  max_size=m * m))).reshape(m, m)
    h = random_channels(1, m, np.random.default_rng(seed))[0]
    return np.where(mask, h, 0.0)


class TestZeroForcingProperties:
    @settings(max_examples=60, deadline=None)
    @given(h=sparse_channel(), data=st.data())
    def test_joint_user_waveguide_permutation(self, h, data):
        m = h.shape[0]
        perm = np.array(data.draw(st.permutations(range(m))))
        gains, ok = zf_gains_batch(h)
        p_gains, p_ok = zf_gains_batch(h[perm][:, perm])
        assert p_ok == ok
        if ok:
            assert np.allclose(p_gains, gains[perm], rtol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(h=sparse_channel(), data=st.data())
    def test_empty_row_or_column_is_rejected(self, h, data):
        m = h.shape[0]
        index = data.draw(st.integers(min_value=0, max_value=m - 1))
        h = h.copy()
        if data.draw(st.booleans()):
            h[index, :] = 0.0
        else:
            h[:, index] = 0.0
        gains, ok = zf_gains_batch(np.stack([h, np.eye(m, dtype=complex)]))
        assert list(ok) == [False, True]
        assert np.all(np.isnan(gains[0]))
