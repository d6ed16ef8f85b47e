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
blocked systems skips most of the conventional work. Pinching Design II is
gated the same way on each user's own link: its distance, probability and
uniform come first, for every user, and only the users whose own link is
clear get their row of links. Design I's zero-forcing gate needs every link
of every matrix, so when PIN_D1 runs with two or more users both designs
read the full arrays instead. The uniforms are drawn as before either way,
so the gates change no draw and no rate.

Every estimator maps its chunks through one function, ``_map_chunks``, and
the conventional high-SNR bound is no separate simulator: it runs the same
chunk map and the same conventional kernel, with every user in line of
sight, unit power and no noise.

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
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from .scenario import SystemConfig, _sample_user_xy, dbm_to_watt, waveguide_y_offsets
from .transceiver import (
    conventional_rates_batch,
    design1_rates_from_gains,
    design2_rates_from_power,
    design2_rates_of_rows,
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
# SUB_LINKS links. tracemalloc peaks of _rates_chunk, CASE_II, at M = 1, 5
# and 16: with all three schemes 1.5, 6.7 and 12.0 MiB, and with phi = 0,
# where every link keeps line of sight, 0.8, 8.9 and 12.1 MiB; with PIN_D2
# and CONV, whose Design II takes the row path and its four row buffers,
# 0.7, 4.3 and 7.0 MiB, and with phi = 0 0.8, 5.0 and 7.6 MiB.
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


def _map_chunks(fn, n_trials: int, master_seed: int, axis_index: int,
                workers: int) -> list:
    """``fn(rng, n)`` for every chunk of ``n_trials`` trials, in chunk order.

    Chunk i holds n = min(CHUNK_TRIALS, n_trials - i CHUNK_TRIALS) trials
    and reads the stream chunk_generator(master_seed, axis_index, i), so the
    results do not depend on ``workers``.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    _prime_heap()

    def one(chunk: int):
        return fn(chunk_generator(master_seed, axis_index, chunk),
                  min(CHUNK_TRIALS, n_trials - chunk * CHUNK_TRIALS))

    if workers <= 1 or n_chunks == 1:
        return [one(i) for i in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(n_chunks)))


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

    Design I's zero-forcing gate needs every link of every matrix, so with
    two or more users it gets the full (n, M, M) arrays, and Design II its
    rates from the same arrays. Otherwise each sub-batch evaluates its
    users' own links first, and then the rows of links of only the users
    whose own link is clear (see ``_design2_rows``).
    """
    n, m = x.shape
    dense = zero_force and m > 1
    batches = _sub_batches(n, m)
    if dense:
        d2, d1, work = np.empty((n, m)), np.empty((n, m)), None
    else:
        # A single user sees no interference, so zero forcing is Design II.
        d2 = np.empty((n, m))
        d1 = d2 if zero_force else None
        # one set of row buffers for the chunk, sized for its largest
        # sub-batch, so that no allocation follows a sub-batch's LoS count
        rows = (batches[0].stop - batches[0].start) * m
        work = (None if m == 1 else
                (np.empty((rows, m)), np.empty((rows, m)),
                 np.empty((rows, m)), np.empty((rows, m), dtype=bool)))
    for b in batches:
        xb, yb = x[b], y[b]
        if dense:
            dist_sq = pin_distances_sq(cfg, xb, yb, beta)
            p_los = unblocked_probability_sq(dist_sq, cfg)
        else:
            # own links only: x - x = +0.0, so these are bit for bit the
            # diagonals of the full arrays
            own_sq = pin_distances_sq(cfg, xb, yb, beta, xb)
            own_p = unblocked_probability_sq(own_sq, cfg)
        # Blockage uniforms are drawn sub-batch by sub-batch in trial order,
        # which consumes the stream exactly as one (n, M, M) draw would.
        u = rng.random((xb.shape[0], m, m))
        lo = b.start * m * m
        if conv_u is not None and lo < conv_u.size:
            k = min(u.size, conv_u.size - lo)
            conv_u.reshape(-1)[lo:lo + k] = u.reshape(-1)[:k]
        if not dense:
            _design2_rows(cfg, xb, yb, beta, u, own_sq, own_p, d2[b], work)
            continue

        alpha = u < p_los
        # The gains are finite and positive, so this equals where(alpha, s, 0).
        s_eff = power_gains(cfg, dist_sq, xb)
        s_eff *= alpha
        d2[b] = design2_rates_from_power(s_eff, cfg.tx_power,
                                         cfg.noise_power, m)

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


def _design2_rows(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                  beta: np.ndarray, u: np.ndarray, own_sq: np.ndarray,
                  own_p: np.ndarray, rates: np.ndarray, work) -> None:
    """Design II rates of one sub-batch's (nb, M) users, written to
    ``rates``.

    ``u`` holds the sub-batch's (nb, M, M) blockage uniforms, ``own_sq`` and
    ``own_p`` its users' own-link squared distances and LoS probabilities.
    A user whose own link is blocked has rate +0.0 whatever its
    interference, so only the users whose own link is clear get their row
    of M links (distance, probability, indicator, gain and row sum), each
    bit for bit the row of the full (nb, M, M) evaluation. A lone user's
    row is its own link, so it reuses ``own_sq`` and needs no indicator.
    ``work`` holds the chunk's four (rows, M) buffers (None at M = 1), and
    the rows are [:k] views of them.
    """
    nb, m = x.shape
    clear = np.diagonal(u, axis1=1, axis2=2) < own_p
    if clear.all():
        # Every own link is clear: the sub-batch's arrays are read in place.
        if m == 1:
            s = power_gains(cfg, own_sq[:, :, None], x)
        else:
            dist = pin_distances_sq(cfg, x, y, beta)
            s = power_gains(cfg, dist, x)
            # the distances are read for the last time: p overwrites them
            s *= u < unblocked_probability_sq(dist, cfg, out=dist)
        rates[...] = design2_rates_from_power(s, cfg.tx_power,
                                              cfg.noise_power, m)
        return
    rates[...] = 0.0  # the rate of a blocked own link
    users = np.flatnonzero(clear)
    k = users.size
    if k == 0:
        return
    if m == 1:
        # as k one-user trials, so the amplitude is computed for those only
        s = power_gains(cfg, own_sq.reshape(-1).take(users)[:, None, None],
                        x.reshape(-1).take(users)[:, None])[:, 0]
    else:
        trials = users // m
        dist, p, s, mask = (w[:k] for w in work)
        # The antenna x and the uniforms are gathered into the buffers that
        # p and s overwrite once they are read; mode="clip" (the indices
        # are in range) lets take write there without an intermediate copy.
        pin_distances_sq(cfg, x.reshape(-1).take(users)[:, None],
                         y.reshape(-1).take(users)[:, None], beta,
                         x.take(trials, axis=0, out=p, mode="clip"), out=dist)
        np.less(u.reshape(-1, m).take(users, axis=0, out=s, mode="clip"),
                unblocked_probability_sq(dist, cfg, out=p), out=mask)
        # The gains are finite and positive, so this equals where(mask, s, 0).
        power_gains(cfg, dist, x, trials, out=s)
        s *= mask
    rates.reshape(-1)[users] = design2_rates_of_rows(s, users, cfg.tx_power,
                                                     cfg.noise_power)


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
    return conventional_rates_batch(cfg, x, y, alpha, cfg.tx_power,
                                    cfg.noise_power,
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

    def outages(rng: np.random.Generator, n: int) -> list[int]:
        return [int(np.count_nonzero(rates[:, 0] <= params.r_target))
                for rates in _rates_chunk(schemes, params.cfg, n, rng)]

    counts = _map_chunks(outages, n_trials, master_seed, axis_index, workers)
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

    def sums(rng: np.random.Generator, n: int) -> list[tuple]:
        return [_ergodic_sums(rates)
                for rates in _rates_chunk(schemes, cfg, n, rng)]

    parts = _map_chunks(sums, n_trials, master_seed, axis_index, workers)
    estimates = [_ergodic_estimates(scheme_parts, n_trials)
                 for scheme_parts in zip(*parts)]
    return estimates[0] if single else estimates


def estimate_conv_rate_bound(cfg: SystemConfig, n_trials: int, master_seed: int,
                             *, workers: int = 1,
                             axis_index: int = 0) -> list[MetricEstimate]:
    """High-SNR limit of the conventional rates: E[log2(1 + S/I)].

    This is the bounded ceiling the conventional baseline saturates to when
    the power budget grows; unlike the finite-SNR expectation it ignores
    blockage (the indicator cancels between signal and interference). The
    rates come from the conventional kernel of the estimators, with every
    user in line of sight, unit power and no noise, so the SINR is S / I.
    """
    if cfg.num_users < 2:
        raise ValueError("the conventional rate bound needs num_users >= 2")
    beta = waveguide_y_offsets(cfg)

    def sums(rng: np.random.Generator, n: int) -> tuple:
        x, y = _sample_user_xy(cfg, n, rng, beta)
        return _ergodic_sums(conventional_rates_batch(
            cfg, x, y, np.ones(x.shape, dtype=bool), 1.0, 0.0,
            max(1, SUB_LINKS // cfg.num_users)))

    return _ergodic_estimates(
        _map_chunks(sums, n_trials, master_seed, axis_index, workers), n_trials)


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
