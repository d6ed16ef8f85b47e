"""Monte-Carlo estimation of outage and ergodic rates.

Trials are evaluated in fixed-size chunks. Each chunk owns an independent
counter-based random stream derived from (master_seed, axis_index, chunk),
and chunk results are reduced in chunk order with exact summation, so an
estimate is bit-identical for any worker count. This module owns only the
streams, the sub-batching and the reductions: the rates inside a chunk come
from the batched functions of :mod:`pinchsim.channel` and
:mod:`pinchsim.transceiver`, the one implementation of the channel model
and the rate formulas.

Streams are keyed per sweep point and chunk, not per scheme, and every
scheme of an estimator call is evaluated from one pass over each chunk's
stream. All schemes therefore see the same user placements, PIN_D1 and
PIN_D2 also see the same blockage, and scheme comparisons are paired. A
scheme's rates never depend on which other schemes run with it: the
conventional scheme's blockage uniforms are the first of the ones the
pinching schemes draw right after the placement, so it reads them from that
draw, without rewinding the stream, and reads the same uniforms as when it
runs alone. The conventional array is evaluated only where line of sight
survives: a blocked user's rate is exactly 0.0 without its row of gains, so
only the users that keep line of sight get one, which on dense, strongly
blocked systems skips most of the conventional work.

A chunk is evaluated in sub-batches of about SUB_LINKS links so that its
temporaries stay cache-sized. Every random number is still drawn in trial
order from the chunk's stream, so the sub-batch size never changes a draw,
a rate or an estimate.

Chunk memory stays mapped from one chunk to the next: before the first
chunk of the process, one untouched block larger than a chunk's working set
is allocated and freed (see ``_prime_heap``), and what a chunk returns holds
no numpy buffer (see ``_ergodic_sums``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .analytics import OutageParams
from .channel import (
    center_distances_sq,
    channel_coefficients,
    conv_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from .scenario import SystemConfig, _sample_user_xy, dbm_to_watt, waveguide_y_offsets
from .transceiver import (
    conventional_rates_batch,
    design1_rates_from_gains,
    design2_rates_from_power,
    design2_rates_from_rows,
    no_empty_line,
    zf_gains_batch,
)

# Trials per random-stream chunk. Fixed so that the set of random draws, and
# therefore every estimate, is independent of how chunks are scheduled.
CHUNK_TRIALS = 8192

# Links (trial x user x antenna entries) evaluated at once inside a chunk:
# max(1, SUB_LINKS // M^2) trials, so an (n, M, M) float64 temporary is at
# most 512 KiB and a sub-batch's working set stays in cache. Sub-batching
# never changes the random draws (see _pin_rates), so it is free to tune
# without changing any estimate.
SUB_LINKS = 1 << 16

# Bound on the heap one chunk uses at M <= 16: at most 8 float64
# (CHUNK_TRIALS, M) per-user arrays and 16 float64 sub-batch temporaries of
# SUB_LINKS links (tracemalloc peaks of _rates_chunk with all three schemes,
# CASE_II: 1.5 MiB at M=1, 6.7 MiB at M=5, 12.0 MiB at M=16; with phi = 0,
# where the conventional array evaluates every user, 0.8, 8.9 and 12.1 MiB).
# It must stay below 32 MiB, glibc's cap on its dynamic mmap threshold.
_CHUNK_HEAP_BYTES = 8 * CHUNK_TRIALS * 16 * 8 + 16 * SUB_LINKS * 8


class Scheme(Enum):
    PIN_D1 = "PIN_D1"
    PIN_D2 = "PIN_D2"
    CONV = "CONV"


class MetricKind(Enum):
    OUTAGE = "OUTAGE"
    ERGODIC_PER_USER = "ERGODIC_PER_USER"
    ERGODIC_SUM = "ERGODIC_SUM"


class Provenance(Enum):
    SIMULATED = "SIMULATED"
    CLOSED_FORM = "CLOSED_FORM"


class SweepAxis(Enum):
    TX_POWER_DBM = "TX_POWER_DBM"
    D_L = "D_L"
    R_TARGET = "R_TARGET"


@dataclass(frozen=True)
class MetricEstimate:
    """A single metric value with a 99.7% (3-sigma) confidence half-width."""

    value: float
    ci_half_width: float
    n_trials: int
    metric_kind: MetricKind
    provenance: Provenance


@dataclass(frozen=True)
class SweepPoint:
    """Estimates at one axis value; several entries only for per-user metrics."""

    axis_value: float
    estimates: tuple[MetricEstimate, ...]


def chunk_generator(master_seed: int, axis_index: int,
                    chunk_index: int) -> np.random.Generator:
    """Independent counter-based stream for one chunk of trials."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(axis_index, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _chunk_sizes(n_trials: int) -> list[int]:
    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    return [min(CHUNK_TRIALS, n_trials - i * CHUNK_TRIALS) for i in range(n_chunks)]


@functools.cache
def _prime_heap() -> None:
    """Keep chunk memory mapped between chunks, once per process.

    glibc serves a request above its mmap threshold (128 KiB at start-up)
    with a fresh mapping, and returns the free top of the heap to the OS
    once it exceeds its trim threshold (also 128 KiB); either way the next
    chunk faults its pages back in. Freeing a mapped block of up to 32 MiB
    raises the mmap threshold to that block's size and the trim threshold
    to twice it. A block just over _CHUNK_HEAP_BYTES, never touched, so
    costing no page faults, lifts both above a chunk's working set. Other
    allocators ignore it.
    """
    np.empty(_CHUNK_HEAP_BYTES, dtype=np.uint8)


def _map_ordered(fn, n_chunks: int, workers: int) -> list:
    _prime_heap()
    if workers <= 1 or n_chunks == 1:
        return [fn(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_chunks)))


def _sub_batches(n: int, m: int) -> list[slice]:
    """Consecutive trial ranges of about SUB_LINKS links each."""
    step = max(1, SUB_LINKS // (m * m))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _pin_rates(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
               beta: np.ndarray, rng: np.random.Generator, zero_force: bool,
               conv_u: np.ndarray | None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """Design II and Design I rates of the pinching system on one placement.

    Draws the (n, M, M) blockage uniforms, which both designs share. The
    Design I rates are None unless ``zero_force``; with one user they are
    the Design II array itself. ``conv_u``, an (n, M) array or None, is
    filled with the first n M of those uniforms: the ones the conventional
    scheme draws from the same point of the stream when it runs alone.
    """
    n, m = x.shape
    d2 = np.empty((n, m))
    if not zero_force:
        d1 = None
    elif m == 1:
        # A single user sees no interference, so zero forcing is Design II.
        d1 = d2
    else:
        d1 = np.empty((n, m))
    for b in _sub_batches(n, m):
        xb = x[b]
        dist_sq = pin_distances_sq(cfg, xb, y[b], beta)
        p_los = unblocked_probability_sq(dist_sq, cfg)
        # Blockage uniforms are drawn sub-batch by sub-batch in trial order,
        # which consumes the stream exactly as one (n, M, M) draw would.
        u = rng.random(dist_sq.shape)
        lo = b.start * m * m
        if conv_u is not None and lo < conv_u.size:
            k = min(u.size, conv_u.size - lo)
            conv_u.reshape(-1)[lo:lo + k] = u.reshape(-1)[:k]
        alpha = u < p_los
        # The gains are finite and positive, so this equals where(alpha, s, 0).
        s_eff = power_gains(cfg, dist_sq, xb)
        s_eff *= alpha
        d2[b] = design2_rates_from_power(s_eff, cfg.tx_power,
                                         cfg.noise_power, m)
        if d1 is None or d1 is d2:
            continue

        # A realization with an empty row or column cannot be zero-forced
        # and keeps its Design II rate; only the others are assembled and
        # passed to zf_gains_batch.
        live = np.flatnonzero(no_empty_line(alpha))
        h = channel_coefficients(cfg, dist_sq[live], s_eff[live], xb[live])
        gains, ok = zf_gains_batch(h)

        out = d1[b]
        out[...] = d2[b]
        out[live[ok]] = design1_rates_from_gains(gains[ok], cfg.tx_power,
                                                 cfg.noise_power)
    return d2, d1


def _conv_rates(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Conventional-array rates on one placement, given its (n, M) blockage
    uniforms.

    The array is evaluated only where line of sight survives: a blocked
    user's rate is exactly 0.0 without its row of gains, and the users that
    keep line of sight are evaluated SUB_LINKS // M rows (SUB_LINKS links)
    at a time.
    """
    alpha = u < unblocked_probability_sq(center_distances_sq(cfg, x, y), cfg)
    return conventional_rates_batch(cfg, x, y, alpha,
                                    max(1, SUB_LINKS // x.shape[1]))


def _rates_chunk(schemes: tuple[Scheme, ...], cfg: SystemConfig, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """(n, M) rates of each of ``schemes`` from one pass over a chunk's stream.

    The placement is drawn once. The pinching schemes share the blockage
    draw that follows it and everything up to the Design II rates. The
    conventional scheme's (n, M) blockage uniforms are the first n M of
    that draw, so with a pinching scheme it reads them from the pinching
    draw, and alone it draws them itself: either way it reads the uniforms
    it reads alone, and the stream is never rewound. A repeated scheme gets
    the same array again.
    """
    beta = waveguide_y_offsets(cfg)
    x, y = _sample_user_xy(cfg, n, rng, beta)
    zero_force = Scheme.PIN_D1 in schemes
    pin = zero_force or Scheme.PIN_D2 in schemes
    conv_u = None
    rates = {}
    if Scheme.CONV in schemes:
        conv_u = np.empty(x.shape) if pin else rng.random(x.shape)
    if pin:
        rates[Scheme.PIN_D2], rates[Scheme.PIN_D1] = _pin_rates(
            cfg, x, y, beta, rng, zero_force, conv_u)
    if conv_u is not None:
        rates[Scheme.CONV] = _conv_rates(cfg, x, y, conv_u)
    return tuple(rates[s] for s in schemes)


def _as_schemes(schemes) -> tuple[tuple[Scheme, ...], bool]:
    """``schemes`` as a nonempty tuple, and whether it was one bare Scheme."""
    if isinstance(schemes, Scheme):
        return (schemes,), True
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("schemes must be nonempty")
    return schemes, False


def estimate_outage(schemes: Scheme | Sequence[Scheme], params: OutageParams,
                    n_trials: int, master_seed: int, *, workers: int = 1,
                    axis_index: int = 0):
    """Fraction of trials in which user 1's rate falls at or below the target.

    ``schemes`` is one Scheme, giving one estimate, or a sequence of them,
    giving a list with one estimate per scheme from one pass over the trials
    (each equal to the one-scheme estimate).
    The confidence half-width is the 3-sigma binomial normal approximation.
    """
    schemes, single = _as_schemes(schemes)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    cfg = params.cfg
    sizes = _chunk_sizes(n_trials)

    def one(chunk: int) -> list[int]:
        rng = chunk_generator(master_seed, axis_index, chunk)
        return [int(np.count_nonzero(rates[:, 0] <= params.r_target))
                for rates in _rates_chunk(schemes, cfg, sizes[chunk], rng)]

    counts = _map_ordered(one, len(sizes), workers)
    estimates = []
    for hits in zip(*counts):
        value = sum(hits) / n_trials
        sigma = math.sqrt(value * (1.0 - value) / n_trials)
        estimates.append(MetricEstimate(value=value, ci_half_width=3.0 * sigma,
                                        n_trials=n_trials,
                                        metric_kind=MetricKind.OUTAGE,
                                        provenance=Provenance.SIMULATED))
    return estimates[0] if single else estimates


def _mean_ci(total: float, total_sq: float, n: int) -> tuple[float, float]:
    mean = total / n
    if n < 2:
        return mean, 0.0
    var = max((total_sq - n * mean * mean) / (n - 1), 0.0)
    return mean, 3.0 * math.sqrt(var / n)


def _ergodic_sums(
        rates: np.ndarray) -> tuple[list[float], list[float], float, float]:
    """Per-user and sum-rate first and second moments of one chunk's rates.

    They are Python floats, so the results kept until the reduction hold no
    numpy buffers. Such small heap blocks would sit among the memory the
    chunk frees and split it, and as the conventional array's allocation
    sizes follow each chunk's line-of-sight count, a later chunk could then
    find no free block large enough and grow the heap.
    """
    per_sum = rates.sum(axis=0).tolist()
    per_sq = (rates * rates).sum(axis=0).tolist()
    totals = rates.sum(axis=1)
    return per_sum, per_sq, float(totals.sum()), float((totals * totals).sum())


def _ergodic_estimates(parts, n_trials: int) -> list[MetricEstimate]:
    """Per-user means then the sum-rate mean from ``_ergodic_sums`` of every
    chunk, reduced in chunk order with exact summation."""
    estimates = []
    for u in range(len(parts[0][0])):
        total = math.fsum(p[0][u] for p in parts)
        total_sq = math.fsum(p[1][u] for p in parts)
        mean, ci = _mean_ci(total, total_sq, n_trials)
        estimates.append(MetricEstimate(value=mean, ci_half_width=ci,
                                        n_trials=n_trials,
                                        metric_kind=MetricKind.ERGODIC_PER_USER,
                                        provenance=Provenance.SIMULATED))
    total = math.fsum(p[2] for p in parts)
    total_sq = math.fsum(p[3] for p in parts)
    mean, ci = _mean_ci(total, total_sq, n_trials)
    estimates.append(MetricEstimate(value=mean, ci_half_width=ci,
                                    n_trials=n_trials,
                                    metric_kind=MetricKind.ERGODIC_SUM,
                                    provenance=Provenance.SIMULATED))
    return estimates


def estimate_ergodic(schemes: Scheme | Sequence[Scheme], cfg: SystemConfig,
                     n_trials: int, master_seed: int, *, workers: int = 1,
                     axis_index: int = 0):
    """Per-user ergodic rates followed by the sum rate, each with 3-sigma CIs.

    ``schemes`` is one Scheme, giving that list of estimates, or a sequence
    of them, giving one such list per scheme from one pass over the trials.
    Every trial resamples both the placement and the blockage state.
    """
    schemes, single = _as_schemes(schemes)
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    sizes = _chunk_sizes(n_trials)

    def one(chunk: int) -> list[tuple]:
        rng = chunk_generator(master_seed, axis_index, chunk)
        return [_ergodic_sums(rates)
                for rates in _rates_chunk(schemes, cfg, sizes[chunk], rng)]

    parts = _map_ordered(one, len(sizes), workers)
    estimates = [_ergodic_estimates(scheme_parts, n_trials)
                 for scheme_parts in zip(*parts)]
    return estimates[0] if single else estimates


def estimate_conv_rate_bound(cfg: SystemConfig, n_trials: int, master_seed: int,
                             *, workers: int = 1,
                             axis_index: int = 0) -> list[MetricEstimate]:
    """High-SNR limit of the conventional rates: E[log2(1 + S/I)].

    This is the bounded ceiling the conventional baseline saturates to when
    the power budget grows; unlike the finite-SNR expectation it ignores
    blockage (the indicator cancels between signal and interference).
    """
    if cfg.num_users < 2:
        raise ValueError("the conventional rate bound needs num_users >= 2")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    m = cfg.num_users
    sizes = _chunk_sizes(n_trials)
    beta = waveguide_y_offsets(cfg)

    def one(chunk: int) -> tuple[np.ndarray, np.ndarray, float, float]:
        rng = chunk_generator(master_seed, axis_index, chunk)
        n = sizes[chunk]
        x, y = _sample_user_xy(cfg, n, rng, beta)
        rates = np.empty((n, m))
        for b in _sub_batches(n, m):
            s = power_gains(cfg, conv_distances_sq(cfg, x[b], y[b]))
            # unit power and no noise: the SINR is S / I
            rates[b] = design2_rates_from_rows(
                np.diagonal(s, axis1=-2, axis2=-1), s.sum(axis=-1), 1.0, 0.0, m)
        return _ergodic_sums(rates)

    return _ergodic_estimates(_map_ordered(one, len(sizes), workers), n_trials)


def apply_axis(cfg: SystemConfig, axis: SweepAxis, value: float,
               r_target: float | None) -> tuple[SystemConfig, float | None]:
    """Return the config and target rate for one sweep point."""
    if axis is SweepAxis.TX_POWER_DBM:
        return replace(cfg, tx_power=dbm_to_watt(value)), r_target
    if axis is SweepAxis.D_L:
        return replace(cfg, d_l=value), r_target
    return cfg, value


def sweep(cfg: SystemConfig, schemes: Scheme | Sequence[Scheme],
          sweep_axis: SweepAxis, axis_values, metric: MetricKind, n_trials: int,
          master_seed: int, *, r_target: float | None = None,
          workers: int = 1):
    """One estimate per axis value with per-point deterministic seeding.

    Point i uses streams derived from (master_seed, i, chunk) for every
    scheme; a single-value sweep is therefore bit-identical to a direct
    estimate call. ``schemes`` is one Scheme, giving its list of points, or
    a sequence of them, giving one list of points per scheme; every scheme
    of a point is evaluated from one pass over that point's streams.
    """
    schemes, single = _as_schemes(schemes)
    values = [float(v) for v in axis_values]
    if not values:
        raise ValueError("axis_values must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("axis_values must be strictly increasing")
    if metric is not MetricKind.OUTAGE and sweep_axis is SweepAxis.R_TARGET:
        raise ValueError("R_TARGET sweeps only apply to the OUTAGE metric")

    points = [[] for _ in schemes]
    for i, v in enumerate(values):
        cfg_i, rt_i = apply_axis(cfg, sweep_axis, v, r_target)
        if metric is MetricKind.OUTAGE:
            if rt_i is None:
                raise ValueError("OUTAGE sweeps need r_target (or an R_TARGET axis)")
            ests = estimate_outage(schemes, OutageParams(cfg=cfg_i, r_target=rt_i),
                                   n_trials, master_seed, workers=workers,
                                   axis_index=i)
            chosen = [(est,) for est in ests]
        else:
            ests = estimate_ergodic(schemes, cfg_i, n_trials, master_seed,
                                    workers=workers, axis_index=i)
            if metric is MetricKind.ERGODIC_SUM:
                chosen = [(e[-1],) for e in ests]
            else:
                chosen = [tuple(e[:-1]) for e in ests]
        for scheme_points, estimates in zip(points, chosen):
            scheme_points.append(SweepPoint(axis_value=v, estimates=estimates))
    return points[0] if single else points
