"""Zero forcing, the low-complexity design, and the conventional baseline."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pinchsim import BlockageModel, Scheme, SystemConfig, waveguide_y_offsets
from pinchsim import montecarlo
from pinchsim.channel import (
    channel_coefficients,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from pinchsim.montecarlo import _rates_chunk, chunk_generator
from pinchsim.scenario import _sample_user_xy
from pinchsim.transceiver import (
    design1_rates_from_gains,
    design2_rates_from_power,
    zf_gains_batch,
    zf_precoders,
)


def make_cfg(**kw):
    base = dict(num_users=2, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


def random_channels(n, m, rng, scale=1e-4):
    """Random complex matrices at realistic channel magnitudes."""
    return scale * (rng.standard_normal((n, m, m))
                    + 1j * rng.standard_normal((n, m, m)))


def design1(h, cfg):
    """Zero-forcing rates of stacked channels, and where zero forcing
    applies."""
    gains, ok = zf_gains_batch(h)
    return design1_rates_from_gains(gains, cfg.tx_power, cfg.noise_power), ok


def design2(h, cfg):
    """Design II rates of stacked (..., M, M) channels."""
    return design2_rates_from_power(np.abs(h) ** 2, cfg.tx_power,
                                    cfg.noise_power, np.shape(h)[-1])


def pin_draw(cfg, rng, n=1):
    """n placements with their (n, M, M) pinching distances and gains."""
    beta = waveguide_y_offsets(cfg)
    x, y = _sample_user_xy(cfg, n, rng, beta)
    d_sq = pin_distances_sq(cfg, x, y, beta)
    return x, y, d_sq, power_gains(cfg, d_sq, x)


class TestZeroForcingGains:
    def test_single_antenna_gain_is_power_gain(self):
        h = 3e-4 * np.exp(1j * 0.7)
        gains, ok = zf_gains_batch([[h]])
        assert ok
        assert gains[0] == pytest.approx(abs(h) ** 2, rel=1e-12)

    def test_diagonal_two_user_example(self):
        gains, ok = zf_gains_batch(np.diag([1.0, 2.0]))
        assert ok
        assert np.allclose(gains, [0.5, 2.0], rtol=1e-12)

    def test_zero_row_signals_rank_deficiency(self):
        h = np.array([[0.0, 0.0], [1.0, 2.0]], dtype=complex)
        assert not zf_gains_batch(h)[1]

    def test_zero_column_signals_rank_deficiency(self):
        h = np.array([[0.0, 1.0], [0.0, 2.0]], dtype=complex)
        assert not zf_gains_batch(h)[1]

    def test_near_singular_signals_rank_deficiency(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], dtype=complex)
        assert not zf_gains_batch(h)[1]

    def test_non_square_rejected(self):
        for h in (np.ones((2, 3), dtype=complex), np.ones((4, 2, 3))):
            with pytest.raises(ValueError):
                zf_gains_batch(h)
            with pytest.raises(ValueError):
                zf_precoders(h)


class TestZeroForcingPrecoder:
    def test_interference_nulling_and_power(self):
        rng = np.random.default_rng(42)
        batch = random_channels(100, 3, rng)
        ws, oks = zf_precoders(batch)
        for h, w, ok in zip(batch, ws, oks):
            if not ok:
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
        w, _ = zf_precoders(h)
        gains, _ = zf_gains_batch(h)
        eff = h @ w
        assert np.allclose(np.abs(np.diag(eff)) ** 2, gains, rtol=1e-10)


class TestDesign1:
    def test_single_user_rate(self):
        cfg = make_cfg(num_users=1)
        h = 2.8e-4 * np.exp(-0.3j)
        rates, ok = design1([[h]], cfg)
        expected = math.log2(1 + abs(h) ** 2 * cfg.tx_power / cfg.noise_power)
        assert rates[0] == pytest.approx(expected, rel=1e-12)
        assert ok

    def test_diagonal_channel_splits_power(self):
        cfg = make_cfg()
        h = 3e-4
        rates, _ = design1(np.diag([h, h]), cfg)
        expected = math.log2(1 + h ** 2 * cfg.tx_power / (2 * cfg.noise_power))
        assert np.allclose(rates, expected, rtol=1e-12)

    def test_blocked_user_triggers_fallback(self):
        # Where zero forcing does not apply, the chunk kernel's Design I
        # rates are its Design II rates, bit for bit; a user whose row is
        # blocked then gets 0
        cfg = make_cfg(tx_power=1.0, phi=0.1)
        n = 200
        d2, d1 = _rates_chunk((Scheme.PIN_D2, Scheme.PIN_D1), cfg, n,
                              chunk_generator(3, 0, 0))
        rng = chunk_generator(3, 0, 0)
        x, y, d_sq, s = pin_draw(cfg, rng, n)
        alpha = rng.random(d_sq.shape) < unblocked_probability_sq(d_sq, cfg)
        h = channel_coefficients(cfg, d_sq, s * alpha, x)
        gains, ok = zf_gains_batch(h)
        assert ok.any() and not ok.all()
        assert np.array_equal(d1[~ok].view(np.int64), d2[~ok].view(np.int64))
        blocked_row = ~alpha.any(axis=-1)
        assert blocked_row.any()
        assert np.all(d1[blocked_row] == 0.0)
        assert np.array_equal(
            d1[ok], design1_rates_from_gains(gains[ok], cfg.tx_power,
                                             cfg.noise_power))

    def test_row_phase_rotation_leaves_rates_unchanged(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(5)
        h = random_channels(1, 3, rng)[0]
        base, _ = design1(h, cfg)
        rot = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))[:, None] * h
        rotated, _ = design1(rot, cfg)
        assert np.allclose(rotated, base, rtol=1e-11)


class TestDesign2:
    def test_interference_free_when_cross_links_blocked(self):
        cfg = make_cfg()
        h = np.diag([2e-4, 3e-4]).astype(complex)
        expected = [math.log2(1 + (2e-4) ** 2 * cfg.tx_power / (2 * cfg.noise_power)),
                    math.log2(1 + (3e-4) ** 2 * cfg.tx_power / (2 * cfg.noise_power))]
        assert np.allclose(design2(h, cfg), expected, rtol=1e-12)

    def test_blocked_own_link_gives_zero_rate(self):
        cfg = make_cfg()
        h = np.array([[0.0, 2e-4], [1e-4, 3e-4]], dtype=complex)
        assert design2(h, cfg)[0] == 0.0

    def test_two_user_closed_expression(self):
        cfg = make_cfg()
        a, b = 2.5e-4, 0.8e-4
        h = np.array([[a, b], [0.0, 3e-4]], dtype=complex)
        expected = math.log2(1 + a * a * cfg.tx_power
                             / (b * b * cfg.tx_power + 2 * cfg.noise_power))
        assert design2(h, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_interference_and_signal(self):
        cfg = make_cfg()
        own = 2e-4
        cross = np.linspace(0.0, 3e-4, 15)
        rates = design2(np.array([[[own, c], [0, own]] for c in cross]),
                        cfg)[:, 0]
        assert np.all(np.diff(rates) < 0)
        owns = np.linspace(1e-5, 4e-4, 15)
        rates = design2(np.array([[[o, 1e-4], [0, own]] for o in owns]),
                        cfg)[:, 0]
        assert np.all(np.diff(rates) > 0)

    def test_entrywise_phase_rotation_is_exactly_invariant(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(9)
        h = random_channels(1, 3, rng)[0]
        base = design2(h, cfg)
        rot = h * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
        # magnitudes unchanged -> identical rates up to rounding in abs()
        assert np.allclose(design2(rot, cfg), base, rtol=1e-12)


class TestDesign1VersusDesign2:
    def test_zero_forcing_wins_at_high_snr_when_feasible(self):
        cfg = make_cfg(tx_power=1.0)
        x, _, d_sq, s = pin_draw(cfg, np.random.default_rng(17))
        h = channel_coefficients(cfg, d_sq, s, x)[0]
        r1, ok = design1(h, cfg)
        assert ok
        assert r1.sum() >= design2(h, cfg).sum()


class TestConventional:
    def test_blocked_user_has_zero_rate(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 2 * 2)  # 2 rows at a time
        cfg = make_cfg()
        x, y, _, _ = pin_draw(cfg, np.random.default_rng(3))
        rates = montecarlo._conv_rates(cfg, x, y, np.array([[False, True]]),
                                       cfg.tx_power, cfg.noise_power)[0]
        assert rates[0] == 0.0
        assert rates[1] > 0.0

    def test_single_user_distance_law(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 1)  # 1 row at a time
        cfg = make_cfg(num_users=1)
        x, y, _, _ = pin_draw(cfg, np.random.default_rng(4))
        rates = montecarlo._conv_rates(cfg, x, y, np.array([[True]]),
                                       cfg.tx_power, cfg.noise_power)[0]
        r_sq = x[0, 0] ** 2 + y[0, 0] ** 2 + cfg.height ** 2
        expected = math.log2(1 + cfg.path_gain_factor * cfg.tx_power
                             / (cfg.noise_power * r_sq))
        assert rates[0] == pytest.approx(expected, rel=1e-12)

    def test_rate_saturates_in_power(self, monkeypatch):
        # 40 dBm vs 60 dBm on a fixed unblocked placement: < 1e-3 bits apart
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 2 * 2)  # 2 rows at a time
        rng = np.random.default_rng(6)
        cfg_lo = make_cfg(tx_power=10.0)
        cfg_hi = make_cfg(tx_power=1000.0)
        x, y, _, _ = pin_draw(cfg_lo, rng)
        clear = np.ones((1, 2), dtype=bool)
        lo = montecarlo._conv_rates(cfg_lo, x, y, clear, cfg_lo.tx_power,
                                    cfg_lo.noise_power)
        hi = montecarlo._conv_rates(cfg_hi, x, y, clear, cfg_hi.tx_power,
                                    cfg_hi.noise_power)
        assert np.all(hi >= lo)
        assert np.all(hi - lo < 1e-3)


class TestBatchConsistency:
    def test_batch_gains_match_scalar(self):
        rng = np.random.default_rng(21)
        batch = random_channels(64, 3, rng)
        batch[5, 0, :] = 0.0  # inject a rank-deficient realization
        gains, ok = zf_gains_batch(batch)
        for i in range(64):
            one, one_ok = zf_gains_batch(batch[i])
            assert one_ok == ok[i]
            if one_ok:
                assert np.allclose(gains[i], one, rtol=1e-12)

    def test_batch_design2_matches_scalar(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(22)
        batch = random_channels(32, 3, rng)
        s_eff = np.abs(batch) ** 2
        rates = design2_rates_from_power(s_eff, cfg.tx_power, cfg.noise_power, 3)
        for i in range(32):
            assert np.allclose(rates[i], design2(batch[i], cfg), rtol=1e-12)


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
            one, one_ok = zf_gains_batch(h)
            assert one_ok == ok[i]
            if one_ok:
                assert np.allclose(gains[i], one, rtol=1e-12)

    def test_precoders_share_the_gate(self):
        batch, bad = self.mixed_batch()
        gains, _ = zf_gains_batch(batch)
        w, ok = zf_precoders(batch)
        assert np.array_equal(ok, ~bad)
        assert np.all(np.isnan(w[bad]))
        # column m of the precoder delivers exactly gain g_m to user m
        eff = np.abs(np.einsum("nij,nji->ni", batch[~bad], w[~bad])) ** 2
        assert np.allclose(eff, gains[~bad], rtol=1e-10)

    def test_leading_batch_shape_is_kept(self):
        batch, bad = self.mixed_batch()
        gains, ok = zf_gains_batch(batch.reshape(2, 5, 3, 3))
        assert gains.shape == (2, 5, 3) and ok.shape == (2, 5)
        assert np.array_equal(ok.ravel(), ~bad)

    def test_precoders_keep_the_leading_batch_shape(self):
        batch, bad = self.mixed_batch()
        w, ok = zf_precoders(batch.reshape(5, 2, 3, 3))
        assert w.shape == (5, 2, 3, 3) and ok.shape == (5, 2)
        assert np.array_equal(ok.ravel(), ~bad)
        flat, _ = zf_precoders(batch)
        assert np.array_equal(w.reshape(flat.shape), flat, equal_nan=True)


class TestZeroForcingGate:
    """One factorization per matrix: the inverse's own LU flags exact
    singularity, and the 1-norm gate rejects the ill-conditioned."""

    @pytest.mark.filterwarnings("error")
    def test_inverse_alone_gates_each_matrix(self, monkeypatch):
        def no_slogdet(*args, **kwargs):
            raise AssertionError("slogdet called")

        monkeypatch.setattr(np.linalg, "slogdet", no_slogdet)
        good = random_channels(1, 3, np.random.default_rng(5))[0]
        # rows 1 and 2 are exactly proportional, so LU meets a zero pivot
        singular = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                             [0.0, 1.0, 1.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(singular)
        ill = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0],
                        [0.0, 0.0, 1.0]], dtype=complex)
        assert np.linalg.cond(ill, 1) > 1e12
        gains, ok = zf_gains_batch(np.stack([good, singular, ill]))
        assert ok.tolist() == [True, False, False]
        assert np.all(np.isnan(gains[1:]))
        expected = 1.0 / (3 * (np.abs(np.linalg.inv(good)) ** 2).sum(axis=-2))
        assert np.array_equal(gains[0].view(np.int64),
                              expected.view(np.int64))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3])
    def test_every_empty_line_pattern_is_rejected(self, m):
        # A zero row or column meets an exact zero LU pivot, so the NaN
        # inverse fails the gate whatever the other entries are.
        patterns = np.array(list(itertools.product((False, True),
                                                   repeat=m * m)))
        patterns = patterns.reshape(-1, m, m)
        empty = ~(patterns.any(axis=-1).all(axis=-1)
                  & patterns.any(axis=-2).all(axis=-1))
        rng = np.random.default_rng(m)
        h = np.where(patterns[empty],
                     random_channels(int(empty.sum()), m, rng), 0.0)
        gains, ok = zf_gains_batch(h)
        w, w_ok = zf_precoders(h)
        assert not ok.any() and not w_ok.any()
        assert np.all(np.isnan(gains)) and np.all(np.isnan(w))

    def test_reference_gate_agrees_on_hand_built_matrices(self):
        # The kernel replay at M = 3 draws no matrix that is gated with
        # every row and column nonempty, so the reference path's
        # singularity and conditioning gates are checked here.
        rng = np.random.default_rng(5)
        good = random_channels(1, 3, rng)[0]
        a, b, c, d, e = 1e-4 * (rng.standard_normal(5)
                                + 1j * rng.standard_normal(5))
        proportional = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                 [0.0, 1.0, 1.0]], dtype=complex)
        pattern = np.array([[a, 0, 0], [b, 0, 0], [c, d, e]])
        ill = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0],
                        [0.0, 0.0, 1.0]], dtype=complex)
        batch = np.stack([good, proportional, pattern, ill])
        _, ok = zf_gains_batch(batch)
        assert ok.tolist() == [True, False, False, False]
        assert [oracles.zf_applies_highprec(h) for h in batch] == ok.tolist()
        cfg = make_cfg(num_users=3, tx_power=1.0)
        for h in batch[1:]:
            assert oracles.design1_rates(cfg, h) == oracles.design2_rates(cfg, h)


@st.composite
def sparse_channel(draw):
    """A generic complex M x M matrix with a drawn zero pattern."""
    m = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    mask = np.array(draw(st.lists(st.booleans(), min_size=m * m,
                                  max_size=m * m))).reshape(m, m)
    h = random_channels(1, m, np.random.default_rng(seed))[0]
    return np.where(mask, h, 0.0)


@st.composite
def signed_zero_twins(draw):
    """A matrix with zero entries, and a copy of it in which the real and
    imaginary part of each zero entry has a drawn sign: a generic sparse
    matrix, one with an empty row, or a near-singular one."""
    kind = draw(st.sampled_from(["sparse", "empty row", "near singular"]))
    if kind == "near singular":
        # rows 0 and 1 are proportional up to eps; the 1-norm condition
        # number grows like 1 / eps across COND_LIMIT
        eps = 10.0 ** draw(st.floats(-16.0, -8.0))
        a, b, c = draw(st.lists(st.complex_numbers(min_magnitude=1e-6,
                                                   max_magnitude=1e-3),
                                min_size=3, max_size=3))
        h = np.array([[a, b, 0], [a, b * (1 + eps), 0], [0, c, a]])
    else:
        h = draw(sparse_channel())
        if kind == "empty row":
            h[draw(st.integers(0, h.shape[0] - 1))] = 0.0
    twin = h.copy()
    parts = twin.view(np.float64)
    negative = np.array(draw(st.lists(st.booleans(), min_size=parts.size,
                                      max_size=parts.size)))
    parts[(parts == 0.0) & negative.reshape(parts.shape)] = -0.0
    return h, twin


class TestZeroForcingProperties:
    @settings(max_examples=100, deadline=None)
    @given(pair=signed_zero_twins())
    def test_gate_and_gains_ignore_the_sign_of_zeros(self, pair):
        # channel_coefficients leaves a blocked link +0j where the dense
        # product gave zeros of either sign; nothing downstream may see it
        h, twin = pair
        gains, ok = zf_gains_batch(np.stack([h, twin]))
        assert ok[0] == ok[1]
        assert np.array_equal(gains[0].view(np.int64),
                              gains[1].view(np.int64))

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

    @settings(max_examples=60, deadline=None)
    @given(h=sparse_channel())
    def test_precoder_columns_carry_one_mth_of_the_power(self, h):
        m = h.shape[0]
        w, ok = zf_precoders(h)
        assert ok == zf_gains_batch(h)[1]
        if ok:
            col_power = np.sum(np.abs(w) ** 2, axis=0)
            assert np.allclose(col_power, 1.0 / m, rtol=1e-12)
        else:
            assert np.all(np.isnan(w))
