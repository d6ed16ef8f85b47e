"""Monte-Carlo engine: determinism, confidence intervals, oracle agreement."""

import ast
import importlib
import itertools
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pinchsim import (
    BlockageModel,
    LossCase,
    MetricEstimate,
    MetricKind,
    OutageParams,
    Scheme,
    SweepAxis,
    SystemConfig,
    dbm_to_watt,
    ergodic_conv_highsnr,
    estimate_ergodic,
    estimate_outage,
    outage_pin_model_a,
    outage_pin_model_b,
    parse_config,
    run_experiment,
    sweep,
)
from pinchsim import analytics, montecarlo, transceiver
from pinchsim.cli import Kind, counterparts
from pinchsim.channel import (
    center_distances_sq,
    conv_distances_sq,
    own_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from pinchsim.montecarlo import _rates_chunk, chunk_generator
from pinchsim.scenario import _place_users, waveguide_y_offsets
from pinchsim.transceiver import zf_gains_batch


def make_cfg(**kw):
    base = dict(num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                blockage_model=BlockageModel.MODEL_A)
    base.update(kw)
    return SystemConfig(**base)


def set_sub_links(patch, links):
    """Batch both the pinching sub-batches and the conventional rows by
    ``links``: montecarlo imports transceiver's SUB_LINKS under its own
    name, so each module's binding is set."""
    patch.setattr(montecarlo, "SUB_LINKS", links)
    patch.setattr(transceiver, "SUB_LINKS", links)


class TestDistanceKernel:
    def test_matches_scalar_norms(self):
        cfg = make_cfg(num_users=3)
        rng = np.random.default_rng(0)
        beta = waveguide_y_offsets(cfg)
        x, y = oracles.placement(cfg, 16, rng)
        d_sq = pin_distances_sq(cfg, x, y, beta)
        for t in range(16):
            users = np.column_stack([x[t], y[t], np.zeros(3)])
            pinch = np.column_stack([x[t], beta, np.full(3, cfg.height)])
            expected = ((users[:, None, :] - pinch[None, :, :]) ** 2).sum(-1)
            assert np.allclose(d_sq[t], expected, rtol=1e-12)


class TestKernelMatchesReferencePath:
    """The chunk kernels reproduce, trial by trial, the per-link oracle of
    tests/oracles.py evaluated on the same random draws."""

    @pytest.fixture(autouse=True)
    def small_sub_batches(self, monkeypatch):
        # 7 trials per sub-batch at M = 2 and 3 at M = 3, so the 40
        # replayed trials span several sub-batches, the last one short, and
        # 14 conventional rows at a time at M = 2
        set_sub_links(monkeypatch, 7 * 2 * 2)

    def replay_pin_channels(self, cfg, n, seed, n_eff=1.4):
        """Each trial's antenna x coordinates, pinching LoS indicators and
        channel, link by link with the guided phase of ``n_eff``, from a
        chunk's draws: the user drop, then the (n, M, M) uniforms."""
        m = cfg.num_users
        rng = chunk_generator(seed, 0, 0)
        x, y = oracles.placement(cfg, n, rng)
        u = rng.random((n, m, m))
        for t in range(n):
            alpha = [[int(u[t, i, k] < oracles.los_probability(
                cfg, oracles.pin_link_distance(cfg, x[t], y[t], i, k)))
                for k in range(m)] for i in range(m)]
            yield x[t], alpha, oracles.pin_channel(cfg, x[t], y[t], alpha,
                                                   n_eff)

    # At M = 2 a zero pattern with no empty row or column is always
    # invertible; M = 3 also admits structurally singular patterns.
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("loss_case", list(LossCase))
    def test_pin_kernels_match_scalar_rates(self, monkeypatch, loss_case, m):
        cfg = make_cfg(num_users=m, tx_power=1.0, loss_case=loss_case)
        n, seed = 40, 314
        seen = []

        def recording(h):
            seen.append(h.copy())
            return zf_gains_batch(h)

        # the complex channels the kernel zero-forces: only the realizations
        # with no empty row or column, in trial order
        monkeypatch.setattr(montecarlo, "zf_gains_batch", recording)
        d2_rates, d1_rates = _rates_chunk((Scheme.PIN_D2, Scheme.PIN_D1), cfg,
                                          n, chunk_generator(seed, 0, 0))
        kernel_h = np.concatenate(seen)

        zero_forced = []
        for t, (x, alpha, h) in enumerate(
                self.replay_pin_channels(cfg, n, seed)):
            assert np.allclose(d2_rates[t], oracles.design2_rates(cfg, h),
                               rtol=1e-9)
            assert np.allclose(d1_rates[t], oracles.design1_rates(cfg, h),
                               rtol=1e-9)
            a = np.array(alpha)
            if a.any(axis=0).all() and a.any(axis=1).all():
                # the kernel leaves out each column's guided phase
                guided = [oracles.guided_phase(cfg, x, k, 1.4)
                          for k in range(m)]
                zero_forced.append(np.array(h) / guided)
        assert len(zero_forced) >= 10
        assert len(kernel_h) == len(zero_forced)
        for kernel, h in zip(kernel_h, zero_forced):
            assert np.allclose(kernel, h, rtol=1e-9, atol=0.0)

    # The guided phase is one unit factor per column of H, which neither
    # design sees, so the paper's channel at any n_eff gives the rates.
    @pytest.mark.parametrize("n_eff", [1.0, 1.4, 3.5])
    def test_rates_do_not_see_the_guided_phase(self, n_eff):
        cfg = make_cfg(num_users=3, tx_power=1.0, loss_case=LossCase.CASE_II)
        n, seed = 40, 271
        d2_rates, d1_rates = _rates_chunk((Scheme.PIN_D2, Scheme.PIN_D1), cfg,
                                          n, chunk_generator(seed, 0, 0))
        assert (d1_rates != d2_rates).any(axis=1).sum() >= 10  # zero-forced
        for t, (_, _, h) in enumerate(
                self.replay_pin_channels(cfg, n, seed, n_eff)):
            assert np.allclose(d2_rates[t], oracles.design2_rates(cfg, h),
                               rtol=1e-9)
            assert np.allclose(d1_rates[t], oracles.design1_rates(cfg, h),
                               rtol=1e-9)

    # Design II alone evaluates only the rows of users whose own link is
    # clear, a path the pair above, which zero-forces, never takes
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("loss_case", list(LossCase))
    def test_pin_d2_kernel_matches_scalar_rates(self, loss_case, m):
        cfg = make_cfg(num_users=m, tx_power=1.0, loss_case=loss_case)
        n, seed = 40, 314
        (rates,) = _rates_chunk((Scheme.PIN_D2,), cfg, n,
                                chunk_generator(seed, 0, 0))
        blocked_own = 0
        for t, (_, alpha, h) in enumerate(
                self.replay_pin_channels(cfg, n, seed)):
            assert np.allclose(rates[t], oracles.design2_rates(cfg, h),
                               rtol=1e-9)
            for i in range(m):
                if not alpha[i][i]:
                    blocked_own += 1
                    assert rates[t, i] == 0.0
                    assert math.copysign(1.0, rates[t, i]) == 1.0
        assert 0 < blocked_own < n * m

    def test_conv_kernel_matches_scalar_rates(self):
        cfg = make_cfg(num_users=2, tx_power=1.0)
        n, seed = 40, 217
        (rates,) = _rates_chunk((Scheme.CONV,), cfg, n,
                                chunk_generator(seed, 0, 0))
        # replay the conventional draw order: x, y, then per-user uniforms
        rng = chunk_generator(seed, 0, 0)
        x, y = oracles.placement(cfg, n, rng)
        u = rng.random((n, 2))
        for t in range(n):
            alpha = [int(u[t, i] < oracles.los_probability(
                cfg, math.sqrt(x[t, i] ** 2 + y[t, i] ** 2 + cfg.height ** 2)))
                for i in range(2)]
            assert np.allclose(rates[t], oracles.conv_rates(cfg, x[t], y[t], alpha),
                               rtol=1e-9)


class TestSubBatches:
    """Sub-batching a chunk changes neither the random draws nor the rates."""

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_rates_bitwise_equal_for_any_sub_batch(self, monkeypatch, scheme, m):
        n = 45  # not a multiple of 7
        for model, loss, constrained in itertools.product(
                BlockageModel, LossCase, (False, True)):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=0.05,
                           blockage_model=model, loss_case=loss,
                           constrain_under_waveguide=constrained)
            results = []
            for trials in (1, 7, n):
                set_sub_links(monkeypatch, trials * m * m)
                results.append(_rates_chunk((scheme,), cfg, n,
                                            chunk_generator(6, 0, 3))[0])
            first = results[0].view(np.int64)
            for other in results[1:]:
                assert np.array_equal(other.view(np.int64), first), (
                    model, loss, constrained)

    @pytest.mark.parametrize("scheme", [Scheme.PIN_D2, Scheme.CONV])
    def test_chunk_temporaries_stay_small_at_sixteen_users(self, scheme):
        # unblocked (8192, 16, 16) float64 temporaries would be 16 MiB each
        cfg = make_cfg(num_users=16, tx_power=1.0)
        tracemalloc.start()
        try:
            _rates_chunk((scheme,), cfg, montecarlo.CHUNK_TRIALS,
                         chunk_generator(1, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestConventionalGate:
    """The conventional array is evaluated only for the users that keep line
    of sight, and its rates are bit for bit the full (n, M, M) evaluation
    times the indicators. Its rows come from transceiver.conv_rates, the
    routine the high-SNR bound also calls."""

    @staticmethod
    def draw(cfg, n, seed):
        """A chunk's placement and conventional blockage uniforms and
        indicators, in the order the conventional scheme draws them."""
        rng = chunk_generator(seed, 0, 0)
        x, y = oracles.placement(cfg, n, rng)
        u = rng.random(x.shape)
        alpha = u < unblocked_probability_sq(center_distances_sq(cfg, x, y),
                                             cfg)
        return x, y, u, alpha

    # 8 and 9 users straddle numpy's switch from a sequential to a pairwise
    # row sum; phi = 0 keeps every user, phi = 50 blocks every user.
    @pytest.mark.parametrize("sub_links", [1 << 16, 37])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 16])
    def test_gated_rates_equal_the_dense_evaluation(self, monkeypatch, m,
                                                    sub_links):
        monkeypatch.setattr(transceiver, "SUB_LINKS", sub_links)
        for model, constrained, phi in itertools.product(
                BlockageModel, (False, True), (0.0, 0.1, 50.0)):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi,
                           blockage_model=model, loss_case=LossCase.CASE_II,
                           constrain_under_waveguide=constrained)
            x, y, _, alpha = self.draw(cfg, 200, 11)
            (rates,) = _rates_chunk((Scheme.CONV,), cfg, 200,
                                    chunk_generator(11, 0, 0))
            expected = oracles.conv_rates_dense(cfg, x, y, alpha, cfg.tx_power,
                                                cfg.noise_power)
            assert np.array_equal(rates.view(np.int64),
                                  expected.view(np.int64)), (model, constrained,
                                                             phi)
            if phi == 0.0:
                assert alpha.all()
            if phi == 50.0:
                assert not alpha.any()

    @pytest.mark.parametrize("phi", [0.0, 0.1, 50.0])
    def test_distances_only_for_users_with_line_of_sight(self, monkeypatch,
                                                         phi):
        monkeypatch.setattr(transceiver, "SUB_LINKS", 37)
        cfg = make_cfg(num_users=5, tx_power=1.0, phi=phi)
        seen = []

        def counting(cfg_, x, y):
            seen.append((x.copy(), y.copy()))
            return conv_distances_sq(cfg_, x, y)

        monkeypatch.setattr(transceiver, "conv_distances_sq", counting)
        x, y, _, alpha = self.draw(cfg, 300, 12)
        _rates_chunk((Scheme.CONV,), cfg, 300, chunk_generator(12, 0, 0))
        los = np.flatnonzero(alpha)
        if los.size == 0:
            assert seen == []
            return
        # batches of 37 // 5 = 7 rows of (k,) coordinates, in flat order
        assert [len(sx) for sx, _ in seen[:-1]] == [7] * (len(seen) - 1)
        assert all(sx.ndim == 1 for sx, _ in seen)
        assert np.array_equal(np.concatenate([sx for sx, _ in seen]),
                              x.reshape(-1)[los])
        assert np.array_equal(np.concatenate([sy for _, sy in seen]),
                              y.reshape(-1)[los])

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 17), model=st.sampled_from(list(BlockageModel)),
           loss=st.sampled_from(list(LossCase)), constrained=st.booleans(),
           phi=st.just(0.0) | st.floats(1e-9, 1.0), n=st.integers(1, 64),
           sub_links=st.integers(1, 1 << 16), seed=st.integers(0, 2 ** 32))
    def test_gated_rates_equal_the_dense_evaluation_anywhere(
            self, m, model, loss, constrained, phi, n, sub_links, seed):
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi, blockage_model=model,
                       loss_case=loss, constrain_under_waveguide=constrained)
        x, y, u, alpha = self.draw(cfg, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transceiver, "SUB_LINKS", sub_links)
            (rates,) = _rates_chunk((Scheme.CONV,), cfg, n,
                                    chunk_generator(seed, 0, 0))
        expected = oracles.conv_rates_dense(cfg, x, y, alpha, cfg.tx_power,
                                            cfg.noise_power)
        assert np.array_equal(rates.view(np.int64), expected.view(np.int64))

    def test_the_estimators_and_the_bound_share_one_routine(self,
                                                            monkeypatch):
        # both reach transceiver.conv_rates, whose loop alone calls
        # transceiver's conv_distances_sq
        assert montecarlo.conv_rates is transceiver.conv_rates
        assert analytics.conv_rates is transceiver.conv_rates
        rows = []

        def counting(cfg_, x, y):
            rows.append(len(x))
            return conv_distances_sq(cfg_, x, y)

        monkeypatch.setattr(transceiver, "conv_distances_sq", counting)
        cfg = make_cfg(num_users=2, tx_power=1.0, phi=0.0)
        _rates_chunk((Scheme.CONV,), cfg, 10, chunk_generator(1, 0, 0))
        assert sum(rows) == 20  # phi = 0: every user keeps line of sight
        rows.clear()
        ergodic_conv_highsnr(replace(cfg, constrain_under_waveguide=True))
        # every user at the 16 + 32 nodes of the first round, then more
        assert rows[0] == 2 * 48


class TestPinchingGate:
    """Design II gets a row of links only for the users whose own pinching
    link keeps line of sight, and its rates are bit for bit the full
    (n, M, M) evaluation of the same draws."""

    @staticmethod
    def draw(cfg, n, seed):
        """A chunk's placement and (n, M, M) pinching blockage uniforms, in
        the order the pinching schemes draw them."""
        rng = chunk_generator(seed, 0, 0)
        x, y = oracles.placement(cfg, n, rng)
        return x, y, rng.random((n, cfg.num_users, cfg.num_users))

    # 8 and 9 users straddle numpy's switch from a sequential to a pairwise
    # row sum; phi = 0 keeps every link, phi = 50 blocks every link.
    @pytest.mark.parametrize("sub_links", [1 << 16, 37])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 16, 17])
    def test_gated_rates_equal_the_dense_evaluation(self, monkeypatch, m,
                                                    sub_links):
        monkeypatch.setattr(montecarlo, "SUB_LINKS", sub_links)
        for model, loss, constrained, phi in itertools.product(
                BlockageModel, LossCase, (False, True), (0.0, 0.1, 50.0)):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi,
                           blockage_model=model, loss_case=loss,
                           constrain_under_waveguide=constrained)
            (rates,) = _rates_chunk((Scheme.PIN_D2,), cfg, 200,
                                    chunk_generator(11, 0, 0))
            expected = oracles.pin_d2_rates_dense(cfg, *self.draw(cfg, 200, 11))
            assert np.array_equal(rates.view(np.int64),
                                  expected.view(np.int64)), (model, loss,
                                                             constrained, phi)
            if phi == 0.0:
                assert (rates > 0.0).all()
            if phi == 50.0:
                assert not rates.any()

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 17), model=st.sampled_from(list(BlockageModel)),
           loss=st.sampled_from(list(LossCase)), constrained=st.booleans(),
           phi=st.just(0.0) | st.floats(1e-9, 1.0), n=st.integers(1, 64),
           sub_links=st.integers(1, 1 << 16), seed=st.integers(0, 2 ** 32))
    def test_gated_rates_equal_the_dense_evaluation_anywhere(
            self, m, model, loss, constrained, phi, n, sub_links, seed):
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi, blockage_model=model,
                       loss_case=loss, constrain_under_waveguide=constrained)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "SUB_LINKS", sub_links)
            (rates,) = _rates_chunk((Scheme.PIN_D2,), cfg, n,
                                    chunk_generator(seed, 0, 0))
        expected = oracles.pin_d2_rates_dense(cfg, *self.draw(cfg, n, seed))
        assert np.array_equal(rates.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("phi", [0.0, 0.1, 50.0])
    def test_row_distances_only_for_users_with_line_of_sight(
            self, monkeypatch, m, phi):
        # 37 // 9 = 4 trials of 3 users per sub-batch; 37 trials at M = 1
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 37)
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi)
        own, rows = [], []

        def own_recording(cfg_, y, beta):
            own.append(y.copy())
            return own_distances_sq(cfg_, y, beta)

        def row_recording(cfg_, x, y, beta, pinch_x=None):
            rows.append((x.copy(), y.copy(), pinch_x))
            return pin_distances_sq(cfg_, x, y, beta, pinch_x)

        monkeypatch.setattr(montecarlo, "own_distances_sq", own_recording)
        monkeypatch.setattr(montecarlo, "pin_distances_sq", row_recording)
        n = 300
        _rates_chunk((Scheme.PIN_D2,), cfg, n, chunk_generator(12, 0, 0))
        x, y, u = self.draw(cfg, n, 12)
        own_sq = np.diagonal(pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg)),
                             axis1=1, axis2=2)
        clear = (np.diagonal(u, axis1=1, axis2=2)
                 < unblocked_probability_sq(own_sq, cfg)).reshape(-1)
        # every user's own link once, sub-batch by sub-batch
        assert np.array_equal(np.concatenate(own), y)
        if m == 1 or not clear.any():
            # a lone user's row is its own link, so no row is built
            assert rows == []
            return
        # a row call takes (k, 1) users and the (k, M) antenna x of their
        # trials, in flat (trial, user) order
        assert all(rx.shape[1:] == (1,) and px.shape == (rx.shape[0], m)
                   for rx, _, px in rows)
        assert np.array_equal(np.concatenate([rx[:, 0] for rx, _, _ in rows]),
                              x.reshape(-1)[clear])
        assert np.array_equal(np.concatenate([ry[:, 0] for _, ry, _ in rows]),
                              y.reshape(-1)[clear])
        assert np.array_equal(np.concatenate([px for _, _, px in rows]),
                              x[np.flatnonzero(clear) // m])
        if phi == 0.0:
            # every own link is clear: one row call per sub-batch, for all
            # of its users
            assert clear.all() and len(rows) == len(own)


# Runs an M=1 outage estimate over 32 chunks and an M=16 ergodic estimate
# over 8, each after a warm-up run, and prints the minor page faults per
# chunk of each. The warm-up evaluates at least one full group of chunks:
# at M = 1 that is SUB_LINKS // CHUNK_TRIALS chunks in one kernel call, so
# a shorter warm-up would leave the larger group's pages to the measured
# run; at M = 16 every chunk is a group of its own.
_FAULTS_PER_CHUNK = """
import resource, sys
from pinchsim import (BlockageModel, OutageParams, Scheme, SystemConfig,
                      estimate_ergodic, estimate_outage)
from pinchsim.montecarlo import CHUNK_TRIALS, SUB_LINKS
assert "scipy" not in sys.modules
schemes = (Scheme.PIN_D2, Scheme.CONV)
one = OutageParams(cfg=SystemConfig(
    num_users=1, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
    blockage_model=BlockageModel.MODEL_A), r_target=8.0)
many = SystemConfig(num_users=16, d_w=10.0, d_l=40.0, tx_power=0.01, phi=0.1,
                    blockage_model=BlockageModel.MODEL_B)
for run, warm, chunks in (
        (lambda n: estimate_outage(schemes, one, n * CHUNK_TRIALS, 1),
         SUB_LINKS // CHUNK_TRIALS, 32),
        (lambda n: estimate_ergodic(schemes, many, n * CHUNK_TRIALS, 1), 2, 8)):
    run(warm)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(chunks)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / chunks)
"""


class TestChunkMemory:
    """Chunk memory is allocated once and stays mapped between chunks."""

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_working_set_within_the_primed_heap(self, m):
        # one full group of chunks, as _map_chunks forms it: 8 chunks at
        # M = 1, 2 at M = 2 and one from M = 3 on
        group = max(1, montecarlo.SUB_LINKS
                    // (m * m * montecarlo.CHUNK_TRIALS))
        # phi = 0 keeps every user's line of sight: the conventional array
        # then evaluates every row, its largest working set
        # PIN_D1 takes every link; without it Design II takes the row path
        for phi, schemes in itertools.product(
                (0.1, 0.0), (tuple(Scheme), (Scheme.PIN_D2, Scheme.CONV))):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi,
                           loss_case=LossCase.CASE_II)
            tracemalloc.start()
            try:
                _rates_chunk(schemes, cfg, group * montecarlo.CHUNK_TRIALS,
                             *(chunk_generator(1, 0, c) for c in range(group)))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= montecarlo._CHUNK_HEAP_BYTES < 32 * 2 ** 20, (
                phi, schemes)

    @pytest.mark.skipif(sys.platform != "linux"
                        or platform.libc_ver()[0] != "glibc",
                        reason="glibc malloc thresholds")
    def test_chunks_take_no_page_faults_once_warm(self):
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        proc = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_CHUNK], capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        per_chunk = [float(v) for v in proc.stdout.split()]
        assert len(per_chunk) == 2
        assert all(v < 10 for v in per_chunk), per_chunk


def _benchmark_call_sites() -> list[tuple[str, str]]:
    """(module, name) of every function perfbench/run.py re-binds to time
    it: the first two fields of each CALL_SITE_SPANS entry, and each of
    CLI_ANALYTICS on pinchsim.cli. The file is parsed, not imported, so no
    bytecode is written under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    values = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            values[getattr(node.targets[0], "id", None)] = node.value
    sites = [tuple(ast.literal_eval(field) for field in entry.elts[:2])
             for entry in values["CALL_SITE_SPANS"].elts]
    sites += [("pinchsim.cli", name)
              for name in ast.literal_eval(values["CLI_ANALYTICS"])]
    return sites


class TestBenchmarkCallSites:
    """perfbench/run.py times the estimators and the analytics by
    re-binding names in pinchsim.montecarlo and pinchsim.cli; a change that
    stops calling one of them through its module namespace would make its
    per-layer metrics read -1."""

    # num_users, blockage model, constrained, schemes, metric: together
    # they reach every estimator, kernel and CLI analytic
    CONFIGS = (
        (2, "MODEL_A", False, "PIN_D1, PIN_D2, CONV", "OUTAGE"),
        (2, "MODEL_A", False, "PIN_D1, PIN_D2, CONV", "ERGODIC_SUM"),
        (1, "MODEL_A", False, "PIN_D2, CONV", "OUTAGE"),
        (1, "MODEL_B", False, "PIN_D2, CONV", "OUTAGE"),
        (2, "MODEL_B", True, "PIN_D2", "ERGODIC_SUM"),
    )

    def test_every_traced_name_is_called(self, monkeypatch, tmp_path):
        sites = _benchmark_call_sites()
        assert ("pinchsim.montecarlo", "zf_gains_batch") in sites
        assert ("pinchsim.cli", "ergodic_pin_two_user_highsnr") in sites
        calls = dict.fromkeys(sites, 0)

        def counting(site):
            module = importlib.import_module(site[0])
            inner = getattr(module, site[1])

            def wrapper(*args, **kwargs):
                calls[site] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, site[1], wrapper)

        for site in sites:
            counting(site)
        for i, (m, model, constrained, schemes, metric) in enumerate(
                self.CONFIGS):
            run_experiment(parse_config(f"""
                system.num_users = {m}
                system.d_w = 10
                system.d_l = 40
                system.tx_power_dbm = 30
                system.phi = 0.1
                system.blockage_model = {model}
                system.constrain_under_waveguide = {str(constrained).lower()}
                run.schemes = {schemes}
                run.metric = {metric}
                run.sweep_axis = TX_POWER_DBM
                run.axis_values = 30
                run.r_target = 5
                run.n_trials = 64
                run.master_seed = 1
                run.output = {tmp_path / str(i)}.csv
                """))
        assert [site for site, count in calls.items() if count == 0] == []


class TestPlacementDraw:
    """The placement _place_users makes of a chunk's random() doubles, every
    x then every y, is rng.uniform's draw bit for bit, with the stream left
    where rng.uniform leaves it."""

    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_equals_rng_uniform(self, m, constrained):
        cfg = make_cfg(num_users=m, constrain_under_waveguide=constrained)
        n = 37
        rng = chunk_generator(4, 2, 1)
        x = rng.random((n, m))
        y = np.empty((n, m)) if constrained else rng.random((n, m))
        _place_users(cfg, x, y, waveguide_y_offsets(cfg))
        ref = chunk_generator(4, 2, 1)
        ref_x, ref_y = oracles.placement(cfg, n, ref)
        assert np.array_equal(x.view(np.int64), ref_x.view(np.int64))
        assert np.array_equal(y.view(np.int64), ref_y.view(np.int64))
        assert rng.random() == ref.random()


# every nonempty ordered subset of the schemes
SCHEME_TUPLES = [t for k in (1, 2, 3) for t in itertools.permutations(Scheme, k)]


class TestFusedSchemes:
    """Schemes evaluated from one pass get exactly their one-scheme results."""

    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    def test_any_scheme_tuple_gives_the_single_scheme_rates(self, monkeypatch, m):
        # 7 trials per sub-batch, so the pinching draw that starts with the
        # conventional uniforms, the lead, spans several sub-batches
        set_sub_links(monkeypatch, 7 * m * m)
        n = 45
        for model, loss, constrained in itertools.product(
                BlockageModel, LossCase, (False, True)):
            cfg = make_cfg(num_users=m, tx_power=1.0, phi=0.05,
                           blockage_model=model, loss_case=loss,
                           constrain_under_waveguide=constrained)
            alone = {s: _rates_chunk((s,), cfg, n, chunk_generator(6, 0, 3))[0]
                     for s in Scheme}
            for schemes in SCHEME_TUPLES:
                together = _rates_chunk(schemes, cfg, n,
                                        chunk_generator(6, 0, 3))
                assert len(together) == len(schemes)
                for scheme, rates in zip(schemes, together):
                    assert np.array_equal(rates.view(np.int64),
                                          alone[scheme].view(np.int64)), (
                        schemes, scheme, model, loss, constrained)

    def test_fused_chunk_temporaries_stay_small_at_sixteen_users(self):
        cfg = make_cfg(num_users=16, tx_power=1.0)
        tracemalloc.start()
        try:
            _rates_chunk((Scheme.PIN_D2, Scheme.CONV), cfg,
                         montecarlo.CHUNK_TRIALS, chunk_generator(1, 0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @settings(max_examples=25, deadline=None)
    @given(schemes=st.lists(st.sampled_from(list(Scheme)), min_size=1,
                            max_size=4),
           m=st.sampled_from([1, 2, 3]),
           n_trials=st.integers(min_value=1, max_value=300),
           workers=st.sampled_from([1, 2]),
           metric=st.sampled_from(list(MetricKind)),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_multi_scheme_estimates_equal_per_scheme_calls(
            self, schemes, m, n_trials, workers, metric, seed):
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=0.05)
        if metric is MetricKind.OUTAGE:
            axis, values = SweepAxis.R_TARGET, [6.0, 9.0]
            params = OutageParams(cfg=cfg, r_target=9.0)

            def estimate(s, **kw):
                return estimate_outage(s, params, n_trials, seed, **kw)
        else:
            axis, values = SweepAxis.TX_POWER_DBM, [10.0, 30.0]

            def estimate(s, **kw):
                return estimate_ergodic(s, cfg, n_trials, seed, **kw)
        with pytest.MonkeyPatch.context() as mp:
            # 64-trial chunks, so n_trials spans several, the last partial
            mp.setattr(montecarlo, "CHUNK_TRIALS", 64)
            assert (estimate(schemes, workers=workers)
                    == [estimate([s])[0] for s in schemes])
            assert (sweep(cfg, schemes, axis, values, metric, n_trials, seed,
                          workers=workers)
                    == [sweep(cfg, [s], axis, values, metric, n_trials, seed)[0]
                        for s in schemes])

    def test_empty_scheme_tuple_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="schemes"):
            estimate_ergodic((), cfg, 100, 1)
        with pytest.raises(ValueError, match="schemes"):
            sweep(cfg, [], SweepAxis.D_L, [40.0], MetricKind.ERGODIC_SUM, 100, 1)

    def test_bare_scheme_is_not_a_sequence(self):
        cfg = make_cfg()
        for call in (
                lambda: estimate_outage(Scheme.PIN_D2,
                                        OutageParams(cfg=cfg, r_target=1.0),
                                        100, 1),
                lambda: estimate_ergodic(Scheme.PIN_D2, cfg, 100, 1),
                lambda: sweep(cfg, Scheme.PIN_D2, SweepAxis.D_L, [40.0],
                              MetricKind.ERGODIC_SUM, 100, 1)):
            with pytest.raises(TypeError,
                               match="^'Scheme' object is not iterable$"):
                call()

    def test_an_estimate_is_a_value_and_its_ci(self):
        assert ([f.name for f in fields(MetricEstimate)]
                == ["value", "ci_half_width"])


class TestStreamLayout:
    """Every chunk's stream has one layout whatever schemes run: its x, its
    y unless users are constrained, then its (n_c, M, M) blockage uniforms
    when a pinching scheme runs, else only their first n_c M, the
    conventional scheme's. A kernel call leaves each stream right after
    them."""

    CHUNK = 16

    @pytest.mark.parametrize("chunks", [1, 3])
    @pytest.mark.parametrize("constrained", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_each_stream_left_after_its_draws(self, monkeypatch, m,
                                              constrained, chunks):
        monkeypatch.setattr(montecarlo, "CHUNK_TRIALS", self.CHUNK)
        # 7 trials per sub-batch, so sub-batches straddle the chunks and
        # their leads
        monkeypatch.setattr(montecarlo, "SUB_LINKS", 7 * m * m)
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=0.05,
                       constrain_under_waveguide=constrained)
        # whole chunks, then a short last one
        sizes = [self.CHUNK] * (chunks - 1) + [11]
        for schemes in SCHEME_TUPLES:
            streams = [chunk_generator(7, 2, c) for c in range(chunks)]
            _rates_chunk(schemes, cfg, sum(sizes), *streams)
            pinching = {Scheme.PIN_D1, Scheme.PIN_D2} & set(schemes)
            blockage = m * m if pinching else m
            for c, (g, n_c) in enumerate(zip(streams, sizes)):
                ref = chunk_generator(7, 2, c)
                ref.random(n_c * m * (1 if constrained else 2)
                           + n_c * blockage)
                assert g.random() == ref.random(), (schemes, c)


class TestChunkGroups:
    """Consecutive chunks evaluated in one kernel call get exactly the rates
    and estimates they get one chunk at a time."""

    # 16-trial chunks and 128-link sub-batches keep the real ratio of
    # SUB_LINKS to CHUNK_TRIALS, so groups hold 8 chunks at M = 1, 2 at
    # M = 2 and 1 at M = 3
    CHUNK, SUB = 16, 128

    @settings(max_examples=40, deadline=None)
    @given(schemes=st.sampled_from(SCHEME_TUPLES), m=st.sampled_from([1, 2, 3]),
           model=st.sampled_from(list(BlockageModel)),
           loss=st.sampled_from(list(LossCase)), constrained=st.booleans(),
           phi=st.sampled_from([0.0, 0.1, 50.0]), chunks=st.integers(1, 5),
           last=st.integers(1, 16), sub_links=st.integers(1, 5 * 16 * 9),
           seed=st.integers(0, 2 ** 32))
    def test_grouped_rates_equal_each_chunks_own(
            self, schemes, m, model, loss, constrained, phi, chunks, last,
            sub_links, seed):
        # any sub-batch size, so sub-batches straddle chunk boundaries
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=phi, blockage_model=model,
                       loss_case=loss, constrain_under_waveguide=constrained)
        n = (chunks - 1) * self.CHUNK + last
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "CHUNK_TRIALS", self.CHUNK)
            set_sub_links(patch, sub_links)
            grouped = _rates_chunk(schemes, cfg, n, *(
                chunk_generator(seed, 1, c) for c in range(chunks)))
            for c in range(chunks):
                rows = slice(c * self.CHUNK, min(n, (c + 1) * self.CHUNK))
                alone = _rates_chunk(schemes, cfg, rows.stop - rows.start,
                                     chunk_generator(seed, 1, c))
                for together, own in zip(grouped, alone):
                    assert np.array_equal(together[rows].view(np.int64),
                                          own.view(np.int64)), (c, schemes)

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([1, 2, 3]),
           n_trials=st.integers(1, 20 * 16),
           metric=st.sampled_from([MetricKind.OUTAGE, MetricKind.ERGODIC_SUM]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_estimates_equal_chunk_by_chunk_for_any_worker_count(
            self, m, n_trials, metric, seed):
        cfg = make_cfg(num_users=m, tx_power=1.0, phi=0.05)
        schemes = list(Scheme)
        if metric is MetricKind.OUTAGE:
            params = OutageParams(cfg=cfg, r_target=9.0)

            def estimate(workers):
                return estimate_outage(schemes, params, n_trials, seed,
                                       workers=workers)
        else:
            def estimate(workers):
                return estimate_ergodic(schemes, cfg, n_trials, seed,
                                        workers=workers)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "CHUNK_TRIALS", self.CHUNK)
            # one link per sub-batch makes every group a single chunk
            patch.setattr(montecarlo, "SUB_LINKS", 1)
            chunk_by_chunk = estimate(1)
            patch.setattr(montecarlo, "SUB_LINKS", self.SUB)
            for workers in (1, 2, 3):
                assert estimate(workers) == chunk_by_chunk, workers

    # 4 chunks: at M = 1 up to 8 fit in one sub-batch, at M = 2 up to 2
    @pytest.mark.parametrize("m, workers, groups", [
        (1, 1, [4]), (1, 2, [2, 2]), (1, 3, [2, 2]), (1, 4, [1, 1, 1, 1]),
        (2, 1, [2, 2]), (3, 1, [1, 1, 1, 1])])
    def test_every_worker_gets_a_group(self, monkeypatch, m, workers, groups):
        calls = []

        def counting(schemes, cfg, n, *streams):
            calls.append(len(streams))
            return _rates_chunk(schemes, cfg, n, *streams)

        monkeypatch.setattr(montecarlo, "_rates_chunk", counting)
        params = OutageParams(cfg=make_cfg(num_users=m), r_target=8.0)
        estimate_outage([Scheme.PIN_D2], params, 4 * montecarlo.CHUNK_TRIALS,
                        5, workers=workers)
        assert sorted(calls) == groups


class TestErgodicSums:
    """The chunk moments an ergodic estimate reduces are numpy's own sums."""

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 20000])
    @pytest.mark.parametrize("m", [1, 2, 5, 8, 16, 17])
    def test_per_user_sums_are_numpys_bit_for_bit(self, m, n):
        # n = 8191-8193 straddles einsum's iterator buffer; magnitudes over
        # 16 decades make every summation order round differently
        rng = np.random.default_rng(100 * m + n % 97)
        rates = rng.random((n, m)) * 10.0 ** rng.integers(-8, 8, (n, m))
        flat = rates.reshape(-1)
        flat[::7] = 0.0
        flat[3::11] = 5e-324
        flat[5::13] = 2.2250738585072014e-308
        rates[n // 2, 0] = 1e308  # its square overflows to +inf
        with np.errstate(over="ignore"):
            # row-offset slices as a grouped chunk's rows are
            for r in (rates, rates[1:]):
                if len(r) == 0:
                    continue
                per_sum, per_sq, _, _ = montecarlo._ergodic_sums(r)
                for got, expected in ((per_sum, r.sum(axis=0)),
                                      (per_sq, (r * r).sum(axis=0))):
                    assert np.array_equal(np.array(got).view(np.int64),
                                          expected.view(np.int64))
        assert math.isinf(per_sq[0])


class TestOwnLinkRouteCheck:
    """The two routes at M >= 2: the Monte-Carlo share of users whose own
    link is clear against its exact mean E[p_uu]."""

    SEED, CHUNKS = 2028, 12  # 98304 placements per geometry

    @pytest.mark.parametrize("preset", ["fig3a", "fig3b", "fig4"])
    def test_clear_fraction_matches_the_strip_mean(self, preset):
        cfg = parse_config(f"preset = {preset}").system
        m = cfg.num_users
        if cfg.constrain_under_waveguide:
            # every own link is the height: p(h)
            law = (cfg.height if cfg.blockage_model is BlockageModel.MODEL_A
                   else cfg.height ** 2)
            p = math.exp(-cfg.phi * law)
        else:
            # user u's y - beta_u is uniform over its strip, d_w / M wide
            p = 1.0 - analytics._pin_outage(
                replace(cfg, d_w=cfg.d_w / m), cfg.blockage_model,
                cfg.d_w / (2 * m), "own-link clear fraction")
        # a clear own link has a positive finite gain, so a positive Design
        # II rate, and a blocked one has rate +0.0
        clear = sum(np.count_nonzero(
            _rates_chunk((Scheme.PIN_D2,), cfg, montecarlo.CHUNK_TRIALS,
                         chunk_generator(self.SEED, 0, c))[0])
            for c in range(self.CHUNKS))
        n = self.CHUNKS * montecarlo.CHUNK_TRIALS * m
        z = (clear / n - p) / math.sqrt(p * (1.0 - p) / n)
        assert abs(z) <= 4.0, (preset, p, clear / n, z)


class TestCrossRouteFuzz:
    """The two routes across the admitted config range, at M = 1: the
    PIN_D2 and CONV outage estimates of one call, each against the
    tightest of its counterparts in ``cli.counterparts``' table. An
    EXACT counterpart is checked two-sided and a LOWER one one-sided, as
    a finite SNR and waveguide loss only add outage. The CASE_I family is
    K configs drawn from a fixed seed, then EDGES under both laws; the
    CASE_II family is K_II configs drawn from another seed, where the
    table makes every pinching check one-sided. Each family's sizes,
    ranges, edges, trials and pass rules were fixed before its first run;
    neither set is to be re-drawn or shrunk to make it pass."""

    K, SEED, TRIALS = 60, 2029, 100_000
    # Bonferroni: family-wise level 1e-3 over K two-sided tests, about 4.31
    Z_MAX = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * K))
    # and over K one-sided tests, about 4.15
    Z_FLOOR = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / K)
    # The CASE_II family and its own thresholds, the same way over K_II
    # tests: about 4.26 two-sided (no check takes it today) and 4.09
    # one-sided
    K_II, SEED_II = 48, 2031
    Z_MAX_II = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2 * K_II))
    Z_FLOOR_II = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / K_II)
    # (config fields, dBm, r_target or None for tau1 = 2 heights) of the
    # edges: no blockage, a low height on a wide strip, a long strip on a
    # short area, the box's largest power, and its least target
    EDGES = (({"phi": 0.0}, 20.0, None),
             ({"height": 0.05, "d_w": 20.0}, 20.0, None),
             ({"d_w": 400.0, "d_l": 2.0}, 20.0, None),
             ({}, 100.0, None),
             ({}, 20.0, 1e-9))

    @staticmethod
    def target(cfg, k):
        """The target rate that puts the distance threshold tau1 at k
        times the height of ``cfg``."""
        snr = (cfg.tx_power * cfg.path_gain_factor
               / (cfg.noise_power * (k * cfg.height) ** 2))
        return math.log2(1.0 + snr)

    @staticmethod
    def configs(count=K, seed=SEED, loss_case=LossCase.CASE_I):
        """``count`` outage inputs, MODEL_A and MODEL_B alternating. d_w, d_l,
        the height and phi are log-uniform, the power is uniform in dBm,
        and the target rate puts the distance threshold tau1 at k times
        the height, k uniform in [1, 3]. Under CASE_II the waveguide loss
        is log-uniform in [0.01, 1] dB/m, drawn last."""
        rnd = random.Random(seed)

        def log_uniform(lo, hi):
            return math.exp(rnd.uniform(math.log(lo), math.log(hi)))

        for i in range(count):
            d_w, d_l = log_uniform(0.3, 30.0), log_uniform(1.0, 200.0)
            height, phi = log_uniform(0.3, 10.0), log_uniform(1e-3, 1.0)
            dbm, k = rnd.uniform(-20.0, 40.0), rnd.uniform(1.0, 3.0)
            loss = {} if loss_case is LossCase.CASE_I else {
                "loss_case": loss_case,
                "waveguide_loss_db_per_m": log_uniform(0.01, 1.0)}
            cfg = SystemConfig(num_users=1, d_w=d_w, d_l=d_l, height=height,
                               phi=phi, tx_power=dbm_to_watt(dbm),
                               noise_power=dbm_to_watt(-90.0),
                               blockage_model=list(BlockageModel)[i % 2],
                               **loss)
            yield OutageParams(cfg=cfg, r_target=TestCrossRouteFuzz.target(
                cfg, k))

    @staticmethod
    def edge_configs():
        """The EDGES, each under MODEL_A then MODEL_B, on a 10 x 40 m area
        with height 3 and phi 0.1 where a field is not set. A target left
        None puts tau1 at 2 heights of that base at 20 dBm."""
        base = dict(num_users=1, d_w=10.0, d_l=40.0, height=3.0, phi=0.1,
                    tx_power=dbm_to_watt(20.0), noise_power=dbm_to_watt(-90.0),
                    blockage_model=BlockageModel.MODEL_A)
        two_heights = TestCrossRouteFuzz.target(SystemConfig(**base), 2.0)
        for changes, dbm, r_target in TestCrossRouteFuzz.EDGES:
            for model in BlockageModel:
                cfg = SystemConfig(**(base | changes | {
                    "tx_power": dbm_to_watt(dbm), "blockage_model": model}))
                yield OutageParams(cfg=cfg, r_target=r_target or two_heights)

    def z(self, est, ref):
        """(est - ref) / sigma at ref's binomial sigma. Strong blockage can
        round ref to 1.0 and no blockage to 0.0; sigma is 0 there, and
        only an estimate equal to ref scores 0."""
        sigma = math.sqrt(ref * (1.0 - ref) / self.TRIALS)
        if sigma > 0.0:
            return (est - ref) / sigma
        return 0.0 if est == ref else math.copysign(math.inf, est - ref)

    @staticmethod
    def tightest(pairs):
        """The tightest of a point's (kind, value) counterparts: its EXACT
        one, else its largest LOWER one."""
        pairs = list(pairs)
        exact = [value for kind, value in pairs if kind is Kind.EXACT]
        if exact:
            return Kind.EXACT, exact[0]
        return Kind.LOWER, max(value for kind, value in pairs
                               if kind is Kind.LOWER)

    def failures(self, points, first_seed, z_max, z_floor):
        """Each scheme's check that fails: |z| <= z_max against an EXACT
        counterpart, z >= -z_floor against a LOWER one."""
        schemes = [Scheme.PIN_D2, Scheme.CONV]
        failures = []
        for i, p in enumerate(points):
            refs = [self.tightest(counterparts(scheme, MetricKind.OUTAGE, p,
                                               {})) for scheme in schemes]
            ests = estimate_outage(schemes, p, self.TRIALS, first_seed + i)
            for scheme, (kind, ref), est in zip(schemes, refs, ests):
                z = self.z(est.value, ref)
                if not (abs(z) <= z_max if kind is Kind.EXACT
                        else z >= -z_floor):
                    failures.append((i, p, scheme, kind, ref, est.value, z))
        return failures

    def test_pin_outage_matches_the_exact_value(self):
        assert self.failures(itertools.chain(self.configs(),
                                             self.edge_configs()),
                             1000, self.Z_MAX, self.Z_FLOOR) == []

    def test_case_ii_outage_stays_above_its_lower_bounds(self):
        points = list(self.configs(self.K_II, self.SEED_II, LossCase.CASE_II))
        kinds = {self.tightest(counterparts(scheme, MetricKind.OUTAGE, p,
                                            {}))[0]
                 for p in points for scheme in (Scheme.PIN_D2, Scheme.CONV)}
        assert kinds == {Kind.LOWER}
        assert self.failures(points, 3000, self.Z_MAX_II,
                             self.Z_FLOOR_II) == []


class TestEstimateOutage:
    def test_impossible_outage_is_exactly_zero(self):
        # no blockage and a reach beyond the largest in-area distance
        cfg = make_cfg(phi=0.0, tx_power=100.0)
        p = OutageParams(cfg=cfg, r_target=1.0)
        assert p.tau1 > math.sqrt((cfg.d_l / 2) ** 2 + (cfg.d_w / 2) ** 2
                                  + cfg.height ** 2)
        est = estimate_outage([Scheme.PIN_D2], p, 20000, 7)[0]
        assert est.value == 0.0
        assert est.ci_half_width == 0.0

    def test_vanishing_target_with_clear_links(self):
        cfg = make_cfg(phi=0.0)
        est = estimate_outage([Scheme.PIN_D2],
                              OutageParams(cfg=cfg, r_target=1e-9), 20000, 7)[0]
        assert est.value == 0.0

    def test_matches_model_a_quadrature(self):
        p = OutageParams(cfg=make_cfg(), r_target=9.0)
        est = estimate_outage([Scheme.PIN_D2], p, 200_000, 31)[0]
        assert abs(est.value - oracles.outage_pin_quadrature(p)) <= est.ci_half_width

    def test_d_l_sweep_matches_exact_model_a(self):
        # fig2a geometry on a lossless waveguide: the pinching antenna sits
        # above the user, so the exact outage does not depend on d_l
        cfg = make_cfg(tx_power=dbm_to_watt(10.0), loss_case=LossCase.CASE_I)
        r_target = 7.662862522672084
        lengths = [10.0, 20.0, 40.0, 80.0]
        pts = sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, lengths,
                    MetricKind.OUTAGE, 1_000_000, 7, r_target=r_target)[0]
        for d_l, (est,) in zip(lengths, pts, strict=True):
            exact = outage_pin_model_a(OutageParams(
                cfg=replace(cfg, d_l=d_l), r_target=r_target))
            assert abs(est.value - exact) <= est.ci_half_width

    def test_conventional_matches_its_quadrature_at_high_snr(self):
        p = OutageParams(cfg=make_cfg(tx_power=10.0), r_target=7.0)
        est = estimate_outage([Scheme.CONV], p, 200_000, 32)[0]
        assert abs(est.value - oracles.outage_conv_quadrature(p)) <= est.ci_half_width

    def test_lossy_case_still_tracks_lossless_analytics(self):
        # CASE_II shifts the distance threshold slightly; agreement with the
        # lossless closed form holds within max(3 sigma, 0.02)
        from pinchsim import outage_pin_model_b
        cfg = make_cfg(d_w=5.0, blockage_model=BlockageModel.MODEL_B,
                       loss_case=LossCase.CASE_II)
        p = OutageParams(cfg=cfg, r_target=7.662862522672084)
        est = estimate_outage([Scheme.PIN_D2], p, 200_000, 55)[0]
        lossless = OutageParams(cfg=make_cfg(d_w=5.0,
                                             blockage_model=BlockageModel.MODEL_B),
                                r_target=p.r_target)
        closed = outage_pin_model_b(lossless)
        assert abs(est.value - closed) <= max(est.ci_half_width, 0.02)

    def test_multi_user_outage_reports_user_one(self):
        cfg = make_cfg(num_users=2)
        ests = estimate_outage([Scheme.PIN_D2],
                               OutageParams(cfg=cfg, r_target=7.0), 5000, 3)
        assert len(ests) == 1
        assert 0.0 <= ests[0].value <= 1.0

    def test_rejects_empty_budget(self):
        cfg = make_cfg(num_users=2)
        for estimate in (
                lambda n: estimate_outage([Scheme.PIN_D2],
                                          OutageParams(cfg=cfg, r_target=1.0),
                                          n, 1)[0],
                lambda n: estimate_ergodic([Scheme.PIN_D2], cfg, n, 1)[0]):
            for n_trials in (0, -1):
                with pytest.raises(ValueError,
                                   match="^n_trials must be >= 1$"):
                    estimate(n_trials)

    def test_rejects_fewer_than_one_worker(self):
        cfg = make_cfg(num_users=2)
        for estimate in (
                lambda w: estimate_outage([Scheme.PIN_D2],
                                          OutageParams(cfg=cfg, r_target=1.0),
                                          100, 1, workers=w)[0],
                lambda w: estimate_ergodic([Scheme.PIN_D2], cfg, 100, 1,
                                           workers=w)[0],
                lambda w: sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, [40.0],
                                MetricKind.ERGODIC_SUM, 100, 1, workers=w)[0]):
            for workers in (0, -1):
                with pytest.raises(ValueError,
                                   match="^workers must be >= 1$"):
                    estimate(workers)

    def test_rejects_a_negative_seed(self):
        cfg = make_cfg(num_users=2)
        for estimate in (
                lambda s: estimate_outage([Scheme.PIN_D2],
                                          OutageParams(cfg=cfg, r_target=1.0),
                                          100, s)[0],
                lambda s: estimate_ergodic([Scheme.PIN_D2], cfg, 100, s)[0],
                lambda s: sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, [40.0],
                                MetricKind.ERGODIC_SUM, 100, s)[0]):
            for seed in (-1, -2 ** 40):
                with pytest.raises(ValueError,
                                   match="^master_seed must be >= 0$"):
                    estimate(seed)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        p = OutageParams(cfg=make_cfg(), r_target=8.0)
        a = estimate_outage([Scheme.PIN_D2], p, 30000, 99)[0]
        b = estimate_outage([Scheme.PIN_D2], p, 30000, 99)[0]
        assert a == b

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_worker_count_does_not_change_results(self, scheme):
        cfg = make_cfg(num_users=2, tx_power=1.0)
        serial = estimate_ergodic([scheme], cfg, 40000, 11, workers=1)[0]
        threaded = estimate_ergodic([scheme], cfg, 40000, 11, workers=5)[0]
        assert serial == threaded

    def test_different_seeds_differ(self):
        p = OutageParams(cfg=make_cfg(), r_target=8.0)
        a = estimate_outage([Scheme.PIN_D2], p, 30000, 1)[0]
        b = estimate_outage([Scheme.PIN_D2], p, 30000, 2)[0]
        assert a.value != b.value


class TestConfidenceIntervals:
    def test_ci_shrinks_like_root_n(self):
        cfg = make_cfg(tx_power=1.0)
        widths = [estimate_ergodic([Scheme.PIN_D2], cfg, n, 5)[0][-1].ci_half_width
                  for n in (20000, 40000, 80000, 160000)]
        assert all(b < a for a, b in zip(widths, widths[1:]))
        for a, b in zip(widths, widths[1:]):
            assert a / b == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_outage_ci_is_binomial(self):
        p = OutageParams(cfg=make_cfg(), r_target=8.0)
        n = 50000
        est = estimate_outage([Scheme.PIN_D2], p, n, 12)[0]
        sigma = math.sqrt(est.value * (1 - est.value) / n)
        assert est.ci_half_width == pytest.approx(3 * sigma, rel=1e-12)


class TestEstimateErgodic:
    def test_total_blockage_gives_zero_rate(self):
        cfg = make_cfg(phi=1e3)
        ests = estimate_ergodic([Scheme.PIN_D2], cfg, 20000, 21)[0]
        assert ests[-1].value == 0.0

    def test_single_user_no_blockage_matches_quadrature(self):
        cfg = make_cfg(phi=0.0, tx_power=0.1)
        ests = estimate_ergodic([Scheme.PIN_D2], cfg, 300_000, 4)[0]
        expected = oracles.single_user_pin_ergodic_no_blockage(cfg)
        assert abs(ests[0].value - expected) <= ests[0].ci_half_width

    def test_returns_per_user_then_sum(self):
        cfg = make_cfg(num_users=3, tx_power=1.0)
        ests = estimate_ergodic([Scheme.PIN_D2], cfg, 20000, 8)[0]
        # by position: users 1, 2 and 3, then the sum
        assert len(ests) == 4
        assert ests[-1].value == pytest.approx(sum(e.value for e in ests[:3]),
                                               rel=1e-9)

    def test_two_user_unconstrained_matches_triple_quadrature(self):
        cfg = SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=1.0,
                           phi=0.1, blockage_model=BlockageModel.MODEL_B)
        ests = estimate_ergodic([Scheme.PIN_D2], cfg, 300_000, 13)[0]
        expected = oracles.two_user_ergodic_unconstrained(cfg)
        assert abs(ests[0].value - expected) <= ests[0].ci_half_width + 1e-3

    def test_design1_at_least_design2_at_preset_points(self):
        for dbm in (10.0, 20.0, 30.0, 40.0):
            cfg = make_cfg(num_users=2, tx_power=dbm_to_watt(dbm))
            d1 = estimate_ergodic([Scheme.PIN_D1], cfg, 40000, 2)[0][-1]
            d2 = estimate_ergodic([Scheme.PIN_D2], cfg, 40000, 2)[0][-1]
            assert (d1.value - d2.value) >= -(d1.ci_half_width + d2.ci_half_width)

    def test_design1_is_design2_for_one_user(self):
        # a single user sees no interference, so zero forcing is Design II
        cfg = make_cfg(tx_power=1.0)
        assert np.array_equal(
            _rates_chunk((Scheme.PIN_D1,), cfg, 4096, chunk_generator(11, 0, 0)),
            _rates_chunk((Scheme.PIN_D2,), cfg, 4096, chunk_generator(11, 0, 0)))
        assert (estimate_ergodic([Scheme.PIN_D1], cfg, 20000, 11)[0]
                == estimate_ergodic([Scheme.PIN_D2], cfg, 20000, 11)[0])
        rate = estimate_ergodic([Scheme.PIN_D2], cfg, 20000, 11)[0][0].value
        p = OutageParams(cfg=cfg, r_target=rate)
        d1 = estimate_outage([Scheme.PIN_D1], p, 20000, 11)[0]
        assert 0.0 < d1.value < 1.0
        assert d1 == estimate_outage([Scheme.PIN_D2], p, 20000, 11)[0]

    def test_interference_survives_the_lowest_height(self):
        # M = 2 under the waveguides at h = 1e-2 m, the box's lowest
        # height, 20 m apart, where the own link is at least 4e6 > CANCEL
        # times the cross link: Design II keeps its interference, so it
        # stays below zero forcing, and every rate of both its routes is
        # within TestInterferenceAcrossHeights' bound of the cross-sum
        # reference on the chunk's own placements
        cfg = SystemConfig(num_users=2, d_w=40.0, d_l=40.0, height=1e-2,
                           phi=0.0, tx_power=dbm_to_watt(40.0),
                           blockage_model=BlockageModel.MODEL_B,
                           constrain_under_waveguide=True)
        n = montecarlo.CHUNK_TRIALS
        d2, d1 = estimate_ergodic([Scheme.PIN_D2, Scheme.PIN_D1], cfg, n, 1)
        assert d2[-1].value < d1[-1].value
        x, y = chunk_generator(1, 0, 0).random((n, 2)), np.empty((n, 2))
        beta = waveguide_y_offsets(cfg)
        _place_users(cfg, x, y, beta)
        s = power_gains(cfg, pin_distances_sq(cfg, x, y, beta), x)
        ref = oracles.design2_rates_cross_sum(s, cfg.tx_power,
                                              cfg.noise_power)
        bound = 2 * 2.0 ** -32 * ref
        for schemes in ((Scheme.PIN_D2, Scheme.PIN_D1), (Scheme.PIN_D2,)):
            rates = _rates_chunk(schemes, cfg, n, chunk_generator(1, 0, 0))[0]
            assert (np.abs(rates - ref) <= bound).all(), schemes

    def test_conv_bound_dominates_finite_snr_rate(self):
        # the noise-free limit ignores blockage, so it upper-bounds the
        # finite-SNR expectation that zeroes out blocked realizations
        cfg = make_cfg(num_users=2, tx_power=1000.0)
        bound = ergodic_conv_highsnr(cfg)[-1]
        finite = estimate_ergodic([Scheme.CONV], cfg, 60000, 3)[0][-1]
        assert bound > finite.value
        assert bound == pytest.approx(2.0, abs=0.02)

    def test_non_finite_total_is_named(self):
        # no config in the box gives a rate that is not finite, so the
        # reduction is fed such chunk totals directly
        finite = ([1.0, 2.0], [1.0, 4.0], 3.0, 5.0)
        for bad, message in (
                (([math.inf, 2.0], [1.0, 4.0], 3.0, 5.0),
                 "the ergodic rate of user 1 is not finite (total inf over "
                 "10 trials)"),
                (([1.0, 2.0], [1.0, math.nan], 3.0, 5.0),
                 "the ergodic rate of user 2 is not finite (total 4.0 over "
                 "10 trials)"),
                (([1.0, 2.0], [1.0, 4.0], 3.0, math.inf),
                 "the ergodic sum rate is not finite (total 6.0 over 10 "
                 "trials)")):
            with pytest.raises(ArithmeticError,
                               match=f"^{re.escape('PIN_D1: ' + message)}$"):
                montecarlo._ergodic_estimates([finite, bad], 10, "PIN_D1")

    def test_non_finite_estimate_names_the_scheme_and_the_point(
            self, monkeypatch):
        # every chunk's user-1 total made +inf, as an overflowing rate
        # would make it
        sums = montecarlo._ergodic_sums

        def overflowing(rates):
            per_sum, per_sq, total, total_sq = sums(rates)
            return [math.inf] + per_sum[1:], per_sq, total, total_sq

        monkeypatch.setattr(montecarlo, "_ergodic_sums", overflowing)
        cfg = make_cfg(num_users=2, tx_power=dbm_to_watt(100.0))
        schemes = [Scheme.PIN_D2, Scheme.CONV]
        message = ("PIN_D2: the ergodic rate of user 1 is not finite "
                   "(total inf over 100 trials)")
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            estimate_ergodic(schemes, cfg, 100, 1)
        with pytest.raises(ArithmeticError, match="^" + re.escape(
                f"TX_POWER_DBM = 10.0: {message}") + "$"):
            sweep(cfg, schemes, SweepAxis.TX_POWER_DBM, [10.0, 100.0],
                  MetricKind.ERGODIC_SUM, 100, 1)


R_TARGET_BOX = "r_target must be in [1e-09, 1000] bits/s/Hz"


class TestSweep:
    def test_single_point_equals_direct_estimate(self):
        cfg = make_cfg(tx_power=1.0)
        pts = sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, [40.0],
                    MetricKind.ERGODIC_SUM, 30000, 17)[0]
        direct = estimate_ergodic([Scheme.PIN_D2], cfg, 30000, 17, axis_index=0)[0][-1]
        assert pts == [(direct,)]

    def test_power_sweep_is_monotone_within_ci(self):
        cfg = make_cfg(num_users=2)
        pts = sweep(cfg, [Scheme.PIN_D2], SweepAxis.TX_POWER_DBM,
                    [10.0, 20.0, 30.0, 40.0], MetricKind.ERGODIC_SUM, 30000, 9)[0]
        vals = [p[0].value for p in pts]
        cis = [p[0].ci_half_width for p in pts]
        for i in range(3):
            assert vals[i + 1] >= vals[i] - (cis[i] + cis[i + 1])

    def test_outage_gap_sweep_tracks_analytics(self):
        cfg = make_cfg(d_w=5.0, tx_power=0.01,
                       blockage_model=BlockageModel.MODEL_B)
        from pinchsim import outage_gap_model_b
        r_target = 7.662862522672084
        values = [10.0, 20.0, 40.0]
        pin = sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, values, MetricKind.OUTAGE,
                    150_000, 23, r_target=r_target)[0]
        conv = sweep(cfg, [Scheme.CONV], SweepAxis.D_L, values, MetricKind.OUTAGE,
                     150_000, 24, r_target=r_target)[0]
        for pp, cc, dl in zip(pin, conv, values):
            p = OutageParams(cfg=SystemConfig(num_users=1, d_w=5.0, d_l=dl,
                                              tx_power=0.01, phi=0.1,
                                              blockage_model=BlockageModel.MODEL_B),
                             r_target=r_target)
            gap = cc[0].value - pp[0].value
            ci = cc[0].ci_half_width + pp[0].ci_half_width
            assert abs(gap - outage_gap_model_b(p)) <= ci + 2e-3

    def test_r_target_axis(self):
        # targets chosen so the distance threshold moves through the strip
        cfg = make_cfg()
        pts = sweep(cfg, [Scheme.PIN_D2], SweepAxis.R_TARGET, [8.0, 9.5, 12.0],
                    MetricKind.OUTAGE, 20000, 5)[0]
        vals = [p[0].value for p in pts]
        cis = [p[0].ci_half_width for p in pts]
        for i in range(2):
            assert vals[i + 1] >= vals[i] + 0.01 - (cis[i] + cis[i + 1])

    def test_bad_axis_values_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, [], MetricKind.ERGODIC_SUM,
                  100, 1)[0]
        with pytest.raises(ValueError):
            sweep(cfg, [Scheme.PIN_D2], SweepAxis.D_L, [20.0, 10.0],
                  MetricKind.ERGODIC_SUM, 100, 1)[0]

    @staticmethod
    def _record_estimates(monkeypatch) -> list[str]:
        calls = []
        for name in ("estimate_ergodic", "estimate_outage"):
            def record(*args, _name=name, _real=getattr(montecarlo, name),
                       **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(montecarlo, name, record)
        return calls

    @pytest.mark.parametrize("axis, metric, values, message", [
        (SweepAxis.D_L, MetricKind.ERGODIC_SUM, [10.0, 20.0, math.inf],
         "axis_values at D_L = inf: d_l must be in [0.01, 10000] m"),
        (SweepAxis.TX_POWER_DBM, MetricKind.OUTAGE, [10.0, 20.0, 4000.0],
         "axis_values at TX_POWER_DBM = 4000.0: tx_power must be in "
         "[1e-13, 1e+07] W (-100 to 100 dBm)"),
        (SweepAxis.R_TARGET, MetricKind.OUTAGE, [1.0, 2.0, math.nan],
         "axis_values at R_TARGET = nan: r_target must be in [1e-09, 1000] "
         "bits/s/Hz"),
    ], ids=["D_L", "TX_POWER_DBM", "R_TARGET"])
    def test_bad_last_point_fails_before_any_estimate(
            self, monkeypatch, axis, metric, values, message):
        calls = self._record_estimates(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(make_cfg(num_users=2),
                  (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV), axis, values,
                  metric, 400, 1, r_target=5.0)
        assert calls == []

    @pytest.mark.parametrize("r_target, metric, message", [
        (None, MetricKind.OUTAGE, "r_target must be given for the OUTAGE "
         "metric unless the axis is R_TARGET"),
        (0.0, MetricKind.OUTAGE, R_TARGET_BOX),
        (-1.0, MetricKind.OUTAGE, R_TARGET_BOX),
        (-1.0, MetricKind.ERGODIC_SUM, R_TARGET_BOX),
        (0.0, MetricKind.ERGODIC_PER_USER, R_TARGET_BOX),
        (9.999999999999999e-10, MetricKind.OUTAGE, R_TARGET_BOX),
        (1000.0000000000001, MetricKind.ERGODIC_SUM, R_TARGET_BOX),
    ])
    def test_fixed_target_checked_before_any_estimate(
            self, monkeypatch, r_target, metric, message):
        calls = self._record_estimates(monkeypatch)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sweep(make_cfg(), [Scheme.PIN_D2], SweepAxis.D_L, [10.0, 20.0],
                  metric, 400, 1, r_target=r_target)[0]
        assert calls == []

    def test_outage_requires_target(self):
        with pytest.raises(ValueError):
            sweep(make_cfg(), [Scheme.PIN_D2], SweepAxis.D_L, [10.0],
                  MetricKind.OUTAGE, 100, 1)[0]

    def test_ergodic_rejects_target_axis(self):
        with pytest.raises(ValueError):
            sweep(make_cfg(), [Scheme.PIN_D2], SweepAxis.R_TARGET, [1.0, 2.0],
                  MetricKind.ERGODIC_SUM, 100, 1)[0]


class TestSmallRunProperties:
    """Every estimate of a small multi-scheme run is finite; outage is a
    probability and, on one stream, monotone in the target rate."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(1, 3),
           model=st.sampled_from(list(BlockageModel)),
           loss=st.sampled_from(list(LossCase)),
           constrained=st.booleans(),
           d_w=st.floats(0.5, 50.0), d_l=st.floats(0.5, 500.0),
           height=st.floats(0.01, 20.0),
           phi=st.just(0.0) | st.floats(1e-9, 2.0),
           tx_power_dbm=st.floats(-30.0, 80.0),
           targets=st.lists(st.floats(1e-3, 40.0), min_size=2, max_size=2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_estimates_finite_and_outage_in_unit_interval(
            self, m, model, loss, constrained, d_w, d_l, height, phi,
            tx_power_dbm, targets, seed):
        cfg = make_cfg(num_users=m, d_w=d_w, d_l=d_l, height=height, phi=phi,
                       tx_power=dbm_to_watt(tx_power_dbm), blockage_model=model,
                       loss_case=loss, constrain_under_waveguide=constrained)
        schemes = tuple(Scheme)
        for per_scheme in estimate_ergodic(schemes, cfg, 100, seed):
            for est in per_scheme:
                assert math.isfinite(est.value) and est.value >= 0.0
                assert math.isfinite(est.ci_half_width)
        low, high = sorted(targets)
        outages = [estimate_outage(schemes, OutageParams(cfg=cfg, r_target=r),
                                   100, seed)
                   for r in (low, high)]
        for at_low, at_high in zip(*outages):
            assert 0.0 <= at_low.value <= at_high.value <= 1.0
            assert math.isfinite(at_high.ci_half_width)


class TestWaveguideLossEffect:
    def test_lossy_case_slightly_slower_but_close(self):
        cfg_i = make_cfg(loss_case=LossCase.CASE_I, tx_power=1.0)
        cfg_ii = make_cfg(loss_case=LossCase.CASE_II, tx_power=1.0)
        # paired seeds: identical placements and blockage draws
        a = estimate_ergodic([Scheme.PIN_D2], cfg_i, 60000, 77)[0][-1]
        b = estimate_ergodic([Scheme.PIN_D2], cfg_ii, 60000, 77)[0][-1]
        assert b.value < a.value
        assert a.value - b.value < 0.5
