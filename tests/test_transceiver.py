"""Zero forcing, the low-complexity design, and the conventional baseline."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from pinchsim import (
    BlockageModel,
    LossCase,
    Scheme,
    SystemConfig,
    dbm_to_watt,
    waveguide_y_offsets,
)
from pinchsim import transceiver
from pinchsim.channel import (
    channel_coefficients,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from pinchsim.montecarlo import _rates_chunk, chunk_generator
from pinchsim.transceiver import (
    _column_sums,
    _row_sums,
    conv_rates,
    design1_rates_from_gains,
    design2_rates_from_power,
    design2_rates_from_rows,
    design2_rates_of_rows,
    zf_gains_batch,
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


def column_power(h, gains):
    """g_m ||col_m(inv(H))||^2 of stacked full-rank matrices: the power of
    column m of the zero-forcing precoder inv(H) diag(sqrt(g)), which the
    gains normalize to 1/M."""
    return gains * (np.abs(np.linalg.inv(h)) ** 2).sum(axis=-2)


def design1(h, cfg):
    """Zero-forcing rates of stacked channels, and where zero forcing
    applies."""
    gains, ok = zf_gains_batch(h)
    return design1_rates_from_gains(gains, cfg.tx_power, cfg.noise_power), ok


def design2(h, cfg):
    """Design II rates of stacked (..., M, M) channels."""
    return design2_rates_from_power(np.abs(h) ** 2, cfg.tx_power,
                                    cfg.noise_power)


def pin_draw(cfg, rng, n=1):
    """n placements with their (n, M, M) pinching distances and gains."""
    beta = waveguide_y_offsets(cfg)
    x, y = oracles.placement(cfg, n, rng)
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


class TestZeroForcingPrecoder:
    def test_interference_nulling_and_power(self):
        rng = np.random.default_rng(42)
        batch = random_channels(100, 3, rng)
        gains, oks = zf_gains_batch(batch)
        for h, g, ok in zip(batch, gains, oks):
            if not ok:
                continue
            w = np.linalg.inv(h) * np.sqrt(g)
            eff = h @ w
            signal = np.abs(np.diag(eff)) ** 2
            cross = np.abs(eff - np.diag(np.diag(eff))) ** 2
            assert np.all(cross.max(axis=1) <= 1e-10 * signal)
            col_power = np.sum(np.abs(w) ** 2, axis=0)
            assert np.allclose(col_power, 1.0 / 3.0, rtol=1e-12)
            assert abs(col_power.sum() - 1.0) <= 1e-12

    def test_gains_normalize_the_precoder_columns(self):
        rng = np.random.default_rng(1)
        h = random_channels(1, 2, rng)[0]
        gains, ok = zf_gains_batch(h)
        assert ok
        assert np.allclose(column_power(h, gains), 0.5, rtol=1e-10)


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
        h = channel_coefficients(cfg, d_sq, s * alpha)
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
        h = channel_coefficients(cfg, d_sq, s)[0]
        r1, ok = design1(h, cfg)
        assert ok
        assert r1.sum() >= design2(h, cfg).sum()


class TestConventional:
    @staticmethod
    def rates(cfg, x, y, alpha):
        """(n, M) conventional rates of the users ``alpha`` keeps, as the
        estimators gate them: 0.0 for every other user."""
        out = np.zeros(x.shape)
        conv_rates(cfg, x, y, np.flatnonzero(alpha), cfg.tx_power,
                   cfg.noise_power, out.reshape(-1))
        return out

    def test_blocked_user_has_zero_rate(self, monkeypatch):
        monkeypatch.setattr(transceiver, "SUB_LINKS", 4)  # 2 rows at a time
        cfg = make_cfg()
        x, y, _, _ = pin_draw(cfg, np.random.default_rng(3))
        rates = self.rates(cfg, x, y, np.array([[False, True]]))[0]
        assert rates[0] == 0.0
        assert rates[1] > 0.0

    def test_single_user_distance_law(self, monkeypatch):
        monkeypatch.setattr(transceiver, "SUB_LINKS", 1)  # 1 row at a time
        cfg = make_cfg(num_users=1)
        x, y, _, _ = pin_draw(cfg, np.random.default_rng(4))
        rates = self.rates(cfg, x, y, np.array([[True]]))[0]
        r_sq = x[0, 0] ** 2 + y[0, 0] ** 2 + cfg.height ** 2
        expected = math.log2(1 + cfg.path_gain_factor * cfg.tx_power
                             / (cfg.noise_power * r_sq))
        assert rates[0] == pytest.approx(expected, rel=1e-12)

    def test_rate_saturates_in_power(self, monkeypatch):
        # 40 dBm vs 60 dBm on a fixed unblocked placement: < 1e-3 bits apart
        monkeypatch.setattr(transceiver, "SUB_LINKS", 4)  # 2 rows at a time
        rng = np.random.default_rng(6)
        cfg_lo = make_cfg(tx_power=10.0)
        cfg_hi = make_cfg(tx_power=1000.0)
        x, y, _, _ = pin_draw(cfg_lo, rng)
        clear = np.ones((1, 2), dtype=bool)
        lo = self.rates(cfg_lo, x, y, clear)
        hi = self.rates(cfg_hi, x, y, clear)
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
        rates = design2_rates_from_power(s_eff, cfg.tx_power, cfg.noise_power)
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


    # The bound was fixed before the first run. The worst of these
    # placements errs by 7.4e-13 (M = 2) and 1.9e-12 (M = 5). With the
    # in-waveguide phase, about 5000 more cycles per column, it erred by
    # 1.5e-12 and 1.9e-11.
    @pytest.mark.parametrize("m", [2, 5])
    def test_gains_match_a_50_digit_channel(self, m):
        cfg = make_cfg(num_users=m, phi=0.0)
        x, y, d_sq, s = pin_draw(cfg, np.random.default_rng(3), 60)
        gains, ok = zf_gains_batch(channel_coefficients(cfg, d_sq, s))
        assert ok.all()
        exact = np.array([oracles.zf_gains_of_placement_mp(cfg, x[t], y[t])
                          for t in range(len(x))])
        assert np.abs(gains / exact - 1.0).max() <= 1e-11


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

    def test_gains_normalize_every_admitted_matrix(self):
        batch, bad = self.mixed_batch()
        gains, ok = zf_gains_batch(batch)
        assert np.array_equal(ok, ~bad)
        assert np.allclose(column_power(batch[ok], gains[ok]), 1.0 / 3.0,
                           rtol=1e-10)

    def test_leading_batch_shape_is_kept(self):
        batch, bad = self.mixed_batch()
        gains, ok = zf_gains_batch(batch.reshape(2, 5, 3, 3))
        assert gains.shape == (2, 5, 3) and ok.shape == (2, 5)
        assert np.array_equal(ok.ravel(), ~bad)


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
        assert not ok.any()
        assert np.all(np.isnan(gains))

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
        gains, ok = zf_gains_batch(h)
        if ok:
            assert np.allclose(column_power(h, gains), 1.0 / m, rtol=1e-12)
        else:
            assert np.all(np.isnan(gains))


def same_bits(a, b):
    """True when two float64 arrays hold the same bits, entry by entry."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


# Edge values of a sum of gains: signed zeros, the smallest subnormal, the
# smallest normal, a value whose doubling overflows, and +inf.
EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.inf)


@st.composite
def short_axis_stack(draw):
    """A (k, M) or (k, M, M) float64 array, M = 1-17, of edge values and
    finite floats of either sign."""
    m = draw(st.integers(min_value=1, max_value=17))
    k = draw(st.integers(min_value=1, max_value=6))
    shape = draw(st.sampled_from([(k, m), (k, m, m)]))
    elements = st.one_of(st.sampled_from(EDGE_FLOATS),
                         st.floats(allow_nan=False, allow_infinity=False))
    return draw(hnp.arrays(np.float64, shape, elements=elements))


@st.composite
def gain_rows(draw):
    """(k, M) nonnegative finite gains, M = 1-17, with their users' flat
    (trial, user) indices, and a power and a noise power; powers up to
    1e300 make S P overflow to +inf."""
    m = draw(st.integers(min_value=1, max_value=17))
    k = draw(st.integers(min_value=1, max_value=6))
    gains = st.one_of(st.sampled_from((0.0, 5e-324, 1e-300, 1e308)),
                      st.floats(min_value=0.0, max_value=1e10))
    s = draw(hnp.arrays(np.float64, (k, m), elements=gains))
    users = np.array(draw(st.lists(st.integers(0, 10 ** 6), min_size=k,
                                   max_size=k)))
    tx_power = draw(st.sampled_from((1.0, 0.01, 1e300)))
    noise_power = draw(st.sampled_from((0.0, 1e-13, 4e-14)))
    return s, users, tx_power, noise_power


class TestSinrStepBitForBit:
    @settings(max_examples=300, deadline=None)
    @given(a=short_axis_stack())
    def test_short_axis_sums_are_numpys_bit_for_bit(self, a):
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(_row_sums(a), a.sum(axis=-1))
            if a.ndim == 3:
                assert same_bits(_column_sums(a), a.sum(axis=-2))

    @settings(max_examples=300, deadline=None)
    @given(case=gain_rows())
    def test_rates_of_rows_are_the_one_expression(self, case):
        s, users, tx_power, noise_power = case
        m = s.shape[-1]
        own = s[np.arange(len(s)), users % m]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cross = np.where(np.arange(m) == (users % m)[:, None], 0.0,
                             s).sum(axis=-1)
            expected = oracles.design2_rates_formula(
                own, s.sum(axis=-1), tx_power, noise_power, m, cross)
            assert same_bits(design2_rates_of_rows(s, users, tx_power,
                                                   noise_power), expected)
            # the same rates from the rows' own gains, totals and cross sums
            assert same_bits(design2_rates_from_rows(
                own, s.sum(axis=-1), tx_power, noise_power, m,
                lambda lost: cross[lost]), expected)

    @settings(max_examples=200, deadline=None)
    @given(case=gain_rows(), data=st.data())
    def test_rates_from_any_row_total_are_the_one_expression(self, case,
                                                              data):
        # below the own gain, the interference is clamped to +0.0
        s, users, tx_power, noise_power = case
        m = data.draw(st.integers(min_value=2, max_value=17))
        own, row_total = s[:, 0], s[:, -1]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert same_bits(
                design2_rates_from_rows(own, row_total, tx_power,
                                        noise_power, m),
                oracles.design2_rates_formula(own, row_total, tx_power,
                                              noise_power, m))


class TestInterferenceAcrossHeights:
    """Design II rates of both row routes and of the conventional array
    against ``oracles.design2_rates_cross_sum``, for antennas down to 1 cm
    above the floor, the box's lowest height, where a user under its
    waveguide has an own link up to about 6e6 times stronger than its
    cross links.

    REL_PER_USER was fixed before the first run. Where S P exceeds the
    denominator I P + M sigma^2 by more than CANCEL, the kernel sums the
    cross gains itself. Elsewhere its row total carries M - 1 roundings of
    at most 2^-53 of S + I, which move the denominator by at most about
    2^-33 of itself each, so the rate is within (M - 1) 2^-33 plus a few
    ulps: the bound, M 2^-32, is twice that.
    """

    REL_PER_USER = 2.0 ** -32
    N = 8

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(2, 5), log_height=st.floats(-2.0, 1.0),
           d_w=st.floats(0.5, 50.0), d_l=st.floats(1.0, 200.0),
           dbm=st.floats(-20.0, 40.0), loss=st.sampled_from(LossCase),
           constrained=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_rates_match_the_cross_sum_reference(
            self, m, log_height, d_w, d_l, dbm, loss, constrained, seed):
        self.check(m, 10.0 ** log_height, d_w, d_l, dbm, loss, constrained,
                   seed)

    def test_lowest_height_takes_the_cross_branch(self, monkeypatch):
        # At 1 cm under a 50 m wide area of two strips, a pinching own
        # link is 6e6 > CANCEL times as strong as its cross link, so both
        # row routes sum the cross gains themselves.
        calls = []
        cross_sums = transceiver._cross_sums

        def counted(rows, own_col):
            calls.append(len(rows))
            return cross_sums(rows, own_col)

        monkeypatch.setattr(transceiver, "_cross_sums", counted)
        self.check(2, 1e-2, 50.0, 200.0, 40.0, LossCase.CASE_I, True, 7)
        assert calls and min(calls) > 0, calls

    def check(self, m, height, d_w, d_l, dbm, loss, constrained, seed):
        cfg = SystemConfig(num_users=m, d_w=d_w, d_l=d_l,
                           height=height, phi=0.1,
                           tx_power=dbm_to_watt(dbm),
                           noise_power=dbm_to_watt(-90.0),
                           blockage_model=BlockageModel.MODEL_B,
                           loss_case=loss,
                           constrain_under_waveguide=constrained)
        rng = np.random.default_rng(seed)
        beta = waveguide_y_offsets(cfg)
        x = rng.uniform(-d_l / 2.0, d_l / 2.0, (self.N, m))
        y = (np.broadcast_to(beta, x.shape) if constrained
             else beta + cfg.strip_width * (rng.random(x.shape) - 0.5))
        # blocked pinching links as exact zeros, some of them own links
        clear = rng.random((self.N, m, m)) < 0.7
        pin = power_gains(cfg, pin_distances_sq(cfg, x, y, beta), x) * clear
        conv = power_gains(cfg, oracles.conv_distances_dense(cfg, x, y))
        for s in (pin, conv):
            ref = oracles.design2_rates_cross_sum(s, cfg.tx_power,
                                                  cfg.noise_power)
            dense = design2_rates_from_power(s, cfg.tx_power,
                                             cfg.noise_power)
            rows = design2_rates_of_rows(
                s.reshape(-1, m), np.arange(self.N * m), cfg.tx_power,
                cfg.noise_power).reshape(self.N, m)
            for rates in (dense, rows):
                assert (np.abs(rates - ref)
                        <= self.REL_PER_USER * m * ref).all()
