"""Monte-Carlo estimation of outage and ergodic rates.

Trials are evaluated in fixed-size chunks. Each chunk owns an independent
counter-based random stream derived from (master_seed, axis_index, chunk),
and chunk results are reduced in chunk order with exact summation, so an
estimate is bit-identical for any worker count. This module owns only the
streams, the sub-batching, the choice of which users' links are evaluated
and the reductions: the rates inside a chunk come from the batched
functions of :mod:`pinchsim.channel` and :mod:`pinchsim.transceiver`, the
one implementation of the channel model and the rate formulas.

Streams are keyed per sweep point and chunk, not per scheme, and every
scheme of an estimator call is evaluated from one pass over each chunk's
stream. All schemes therefore see the same user placements, PIN_D1 and
PIN_D2 also see the same blockage, and scheme comparisons are paired. One
function, ``_rates_chunk``, draws every random number of a chunk (the rest
of each sub-batch's blockage through its helper ``_blockage_uniforms``), so
that contract lives in one place; no other module draws, and the kernels
it calls, ``scenario._place_users`` among them, are pure functions of
their draws. Whatever schemes run, a chunk's stream has one layout: its
placement, then the pinching schemes' blockage uniforms, whose first ones,
the chunk's lead, are the conventional scheme's. So a scheme's rates never
depend on which other schemes run with it.

The conventional array is evaluated only where line of sight survives: a
blocked user's rate is exactly 0.0 without its row of gains, so only the
users that keep line of sight get one, which on dense, strongly blocked
systems skips most of the conventional work. Pinching Design II is gated
the same way on each user's own link: its distance, probability and
uniform come first, for every user, and only the users whose own link is
clear get their row of links, in one row stage per sub-batch whatever the
share of clear links. Design I's zero-forcing gate needs every link of
every matrix, so when PIN_D1 runs with two or more users both designs read
the full arrays instead. Even then only the realizations with no empty row
or column get a complex channel matrix, and in it a blocked link is an
exact zero without a phase: only the clear links get their square root
and complex exponential. The gates change no draw and no rate.

Both estimators map their chunks through ``_map_chunks``; the conventional
high-SNR bound is a quadrature, ``analytics.ergodic_conv_highsnr``. A rate
whose SNR overflows is +inf, which an outage counts as no outage; an
ergodic estimate whose reduced total is not finite raises ArithmeticError,
naming the scheme, and ``sweep`` adds the sweep point, so no NaN or
infinite rate reaches a result.

A chunk is evaluated in batches of about SUB_LINKS links so that its
temporaries stay cache-sized: the pinching sub-batches of ``_rates_chunk``
and the conventional rows of ``_conv_rates``. The sub-batches take their
blockage uniforms in trial order, from the chunk's lead and then its
stream, so the batch size never changes a draw, a rate or an estimate.
Where a chunk is smaller than a sub-batch, as at M = 1 and 2,
``_map_chunks`` hands consecutive chunks to one ``_rates_chunk`` call, as
many as fit in one sub-batch, so that they share the fixed cost of the
kernel's numpy calls. Each chunk of such a group still draws from its own
stream in its own order and is reduced on its own, so grouping changes no
draw, rate or estimate either.

Chunk memory stays mapped from one kernel call to the next: before the
first chunk of the process, one untouched block larger than a call's
working set is allocated and freed (see ``_prime_heap``), and what a chunk
returns holds no numpy buffer (see ``_ergodic_sums``).
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
    own_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from .scenario import SystemConfig, _place_users, dbm_to_watt, waveguide_y_offsets
from .transceiver import (
    _column_sums,
    _row_sums,
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
# most 512 KiB and a sub-batch's working set stays in cache. It also sets
# how many whole chunks _map_chunks evaluates in one kernel call: as many
# as fit in one sub-batch, 8 at M = 1, 2 at M = 2 and 1 from M = 3 on.
# Neither sub-batching nor grouping changes the random draws (see
# _rates_chunk), so it is free to tune without changing any estimate.
SUB_LINKS = 1 << 16

# Bound on the heap one _rates_chunk call uses at M <= 16: at most 8 float64
# (n, M) per-user arrays, n M <= 16 CHUNK_TRIALS (a group of chunks fills
# at most one sub-batch, so there n M <= SUB_LINKS / M), and 16 float64
# sub-batch temporaries of SUB_LINKS links. tracemalloc peaks of one full
# group (8 chunks at M = 1, 2 at M = 2, 1 at M = 5 and 16), CASE_II, at
# M = 1, 2, 5 and 16: with all three schemes 5.1, 5.6, 5.4 and 9.9 MiB, and
# with phi = 0, where every link keeps line of sight, 5.5, 8.4, 8.3 and
# 11.6 MiB; with PIN_D2 and CONV, whose Design II takes the row path, 4.4,
# 3.9, 3.6 and 7.0 MiB, and with phi = 0, where every user gets its row,
# 5.5, 4.8, 4.2 and 7.6 MiB.
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


class SweepAxis(Enum):
    TX_POWER_DBM = "TX_POWER_DBM"
    D_L = "D_L"
    R_TARGET = "R_TARGET"


@dataclass(frozen=True)
class MetricEstimate:
    """A single metric value with a 99.7% (3-sigma) confidence half-width."""

    value: float
    ci_half_width: float


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
    costing no page faults, lifts both above a kernel call's working set.
    Other allocators ignore it.
    """
    np.empty(_CHUNK_HEAP_BYTES, dtype=np.uint8)


def _check_budget(n_trials: int, master_seed: int, workers: int) -> None:
    """Reject a trial count, seed or worker count out of its range, by name."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if master_seed < 0:
        raise ValueError("master_seed must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _map_chunks(reduce, schemes: tuple[Scheme, ...], cfg: SystemConfig,
                n_trials: int, master_seed: int, axis_index: int,
                workers: int) -> list[list]:
    """``reduce`` of each scheme's ``_rates_chunk`` rates, chunk by chunk.

    Chunk i holds n = min(CHUNK_TRIALS, n_trials - i CHUNK_TRIALS) trials
    and reads the stream chunk_generator(master_seed, axis_index, i), so the
    results do not depend on ``workers``. Consecutive chunks are evaluated
    in groups, one ``_rates_chunk`` call each: as many whole chunks as fit
    in one sub-batch of SUB_LINKS links, at least one, and no more than
    give every worker a group. ``reduce`` still sees each chunk's rows
    alone.
    """
    _check_budget(n_trials, master_seed, workers)
    n_chunks = (n_trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    m = cfg.num_users
    size = min(max(1, SUB_LINKS // (m * m * CHUNK_TRIALS)),
               -(-n_chunks // workers))
    _prime_heap()

    def group(first: int) -> list[list]:
        chunks = range(first, min(first + size, n_chunks))
        n = min(len(chunks) * CHUNK_TRIALS, n_trials - first * CHUNK_TRIALS)
        rates = _rates_chunk(schemes, cfg, n, *(
            chunk_generator(master_seed, axis_index, c) for c in chunks))
        return [[reduce(r[lo:lo + CHUNK_TRIALS]) for r in rates]
                for lo in range(0, n, CHUNK_TRIALS)]

    firsts = range(0, n_chunks, size)
    if workers <= 1 or len(firsts) == 1:
        groups = [group(f) for f in firsts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(group, firsts))
    return [part for parts in groups for part in parts]


def _sub_batches(n: int, m: int) -> list[slice]:
    """Consecutive trial ranges of about SUB_LINKS links each."""
    step = max(1, SUB_LINKS // (m * m))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _zf_rates(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
              beta: np.ndarray,
              u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nb, M) Design II and Design I rates of one sub-batch, from every link.

    ``u`` holds the sub-batch's (nb, M, M) blockage uniforms. Design I's
    zero-forcing gate needs every link of every matrix, so both designs
    read the full (nb, M, M) arrays. A realization with an empty row or
    column cannot be zero-forced and keeps its Design II rate, and so does
    one zf_gains_batch rejects.
    """
    dist_sq = pin_distances_sq(cfg, x, y, beta)
    alpha = u < unblocked_probability_sq(dist_sq, cfg)
    # The gains are finite and positive, so this equals where(alpha, s, 0).
    s_eff = power_gains(cfg, dist_sq, x)
    s_eff *= alpha
    d2 = design2_rates_from_power(s_eff, cfg.tx_power, cfg.noise_power)

    # only the realizations with no empty row or column are assembled
    live = np.flatnonzero(no_empty_line(alpha))
    h = channel_coefficients(cfg, dist_sq[live], s_eff[live], x[live])
    gains, ok = zf_gains_batch(h)
    d1 = d2.copy()
    d1[live[ok]] = design1_rates_from_gains(gains[ok], cfg.tx_power,
                                            cfg.noise_power)
    return d2, d1


def _design2_rows(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                  beta: np.ndarray, u: np.ndarray, rates: np.ndarray) -> None:
    """Fill ``rates`` with the (nb, M) Design II rates of one sub-batch.

    ``u`` holds the sub-batch's (nb, M, M) blockage uniforms and ``rates``
    is a contiguous (nb, M) array. Every user's own link is evaluated
    first. A user whose own link is blocked has rate +0.0 whatever its
    interference, so only the k users whose own link is clear get their
    (k, M) rows of links (distance, probability, indicator, gain and row
    sum), each bit for bit the row of the full (nb, M, M) evaluation. A
    lone user's row is its own link, so it needs no indicator.
    """
    m = x.shape[1]
    own_sq = own_distances_sq(cfg, y, beta)
    rates.fill(0.0)  # +0.0, the rate of a blocked own link
    users = np.flatnonzero(np.diagonal(u, axis1=1, axis2=2)
                           < unblocked_probability_sq(own_sq, cfg))
    if users.size == 0:
        return
    xs = x.reshape(-1).take(users)[:, None]
    if m == 1:
        # as k one-user trials, so the amplitude is computed for those only;
        # the n-trial own_sq is freed before the gains are built
        own_sq = own_sq.reshape(-1).take(users)[:, None, None]
        s = power_gains(cfg, own_sq, xs)[:, 0]
    else:
        trials = users // m
        dist = pin_distances_sq(cfg, xs, y.reshape(-1).take(users)[:, None],
                                beta, x.take(trials, axis=0))
        p = unblocked_probability_sq(dist, cfg)
        mask = u.reshape(-1, m).take(users, axis=0) < p
        # The gains are finite and positive, so this equals where(mask, s, 0).
        s = power_gains(cfg, dist, x, trials)
        s *= mask
    rates.reshape(-1)[users] = design2_rates_of_rows(s, users, cfg.tx_power,
                                                     cfg.noise_power)


def _conv_rates(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                alpha: np.ndarray) -> np.ndarray:
    """(n, M) conventional-array rates of n placements.

    Element m serves user m with power P/M, and all the elements one user
    sees share that user's blockage; with M = 1 this is a single fixed
    antenna with the whole budget.

    ``x`` and ``y`` are (n, M) user coordinates and ``alpha`` their (n, M)
    line-of-sight indicators. A user's rate reads only its own row of
    gains, and a blocked user's rate is 0, so rows are evaluated only for
    the users that keep line of sight, SUB_LINKS // M rows (SUB_LINKS links)
    at a time; the others stay exactly 0.0. Each evaluated rate is bit for
    bit the one a full (n, M, M) evaluation gives.
    """
    n, m = x.shape
    los = np.flatnonzero(alpha)
    rates = np.zeros(n * m)
    xs, ys = x.reshape(-1), y.reshape(-1)
    step = max(1, SUB_LINKS // m)
    for lo in range(0, los.size, step):
        rows = los[lo:lo + step]
        # (k, M) gains of the k rows, from (k, 1) user coordinates
        s = power_gains(cfg, conv_distances_sq(cfg, xs.take(rows)[:, None],
                                               ys.take(rows)[:, None]))[:, 0]
        rates[rows] = design2_rates_of_rows(s, rows, cfg.tx_power,
                                            cfg.noise_power)
    return rates.reshape(n, m)


def _blockage_uniforms(chunks, b: slice, m: int,
                       lead: np.ndarray) -> np.ndarray:
    """Sub-batch b's (nb, M, M) pinching blockage uniforms.

    ``chunks`` pairs each chunk's generator with its rows, and ``lead``
    holds the (n, M) uniforms each chunk drew right after its placement,
    the first of its pinching draw. Each chunk that b overlaps takes its
    part of b from its lead as far as that reaches and draws the rest from
    its own stream, in trial order. At M = 1 the lead is the whole draw.
    """
    if m == 1:
        return lead[b].reshape(-1, 1, 1)
    u = np.empty((b.stop - b.start, m, m))
    for g, rows in chunks:
        lo, hi = max(rows.start, b.start), min(rows.stop, b.stop)
        if lo >= hi:
            continue
        part = u[lo - b.start:hi - b.start].reshape(-1)
        # the lead entries at the part's place in its chunk's draw
        start = (lo - rows.start) * m * m
        known = lead[rows].reshape(-1)[start:start + part.size]
        part[:known.size] = known
        g.random(out=part[known.size:])
    return u


def _rates_chunk(schemes: tuple[Scheme, ...], cfg: SystemConfig, n: int,
                 rng: np.random.Generator,
                 *more: np.random.Generator) -> tuple[np.ndarray, ...]:
    """(n, M) rates of each of ``schemes`` from one pass over chunk streams.

    ``rng`` is the stream of one chunk of n trials. With ``more``, it and
    each further generator are the streams of consecutive chunks, which are
    evaluated together: each holds CHUNK_TRIALS trials but the last, which
    holds the rest of the n. This is the one function that draws a chunk's
    random numbers, and it fixes their layout, the same whatever schemes
    run: each chunk of n_c trials draws from its own stream every x, then
    every y of its (n_c, M) placement (no y when users are constrained
    under their waveguides), then its lead, the first n_c M of its
    (n_c, M, M) blockage uniforms, then the rest of them, which
    ``_blockage_uniforms`` draws only when a pinching scheme runs,
    sub-batch by sub-batch in trial order. So a chunk's rates do not depend
    on the chunks or the schemes evaluated with it. ``_place_users`` scales
    the placement to positions. Both pinching designs read the same
    uniforms, through ``_zf_rates`` when PIN_D1 runs with two or more users
    and through ``_design2_rows`` otherwise, and the conventional scheme
    reads the lead as its (n_c, M) uniforms. A repeated scheme gets the
    same array again.
    """
    chunks = [(g, slice(c * CHUNK_TRIALS,
                        n if c == len(more) else (c + 1) * CHUNK_TRIALS))
              for c, g in enumerate((rng, *more))]
    m = cfg.num_users
    zero_force = Scheme.PIN_D1 in schemes
    dense = zero_force and m > 1
    beta = waveguide_y_offsets(cfg)
    x, y, lead = np.empty((n, m)), np.empty((n, m)), np.empty((n, m))
    for g, rows in chunks:
        g.random(out=x[rows])
        if not cfg.constrain_under_waveguide:
            g.random(out=y[rows])
        g.random(out=lead[rows])
    _place_users(cfg, x, y, beta)
    rates = {}
    # An overflowing SNR gives the rate +inf, which an outage counts
    # correctly and _ergodic_estimates rejects, so overflow is not reported.
    # errstate is per thread, and chunks run on pool threads.
    with np.errstate(over="ignore"):
        if zero_force or Scheme.PIN_D2 in schemes:
            d2 = np.empty((n, m))
            # A single user sees no interference, so zero forcing is Design II.
            d1 = np.empty((n, m)) if dense else d2
            for b in _sub_batches(n, m):
                u = _blockage_uniforms(chunks, b, m, lead)
                if dense:
                    d2[b], d1[b] = _zf_rates(cfg, x[b], y[b], beta, u)
                else:
                    _design2_rows(cfg, x[b], y[b], beta, u, d2[b])
            del u  # not held through the conventional rows
            rates[Scheme.PIN_D2], rates[Scheme.PIN_D1] = d2, d1
        if Scheme.CONV in schemes:
            alpha = lead < unblocked_probability_sq(
                center_distances_sq(cfg, x, y), cfg)
            rates[Scheme.CONV] = _conv_rates(cfg, x, y, alpha)
    return tuple(rates[s] for s in schemes)


def _as_schemes(schemes: Sequence[Scheme]) -> tuple[Scheme, ...]:
    """``schemes`` as a nonempty tuple."""
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("schemes must be nonempty")
    return schemes


def estimate_outage(schemes: Sequence[Scheme], params: OutageParams,
                    n_trials: int, master_seed: int, *, workers: int = 1,
                    axis_index: int = 0) -> list[MetricEstimate]:
    """Fraction of trials in which user 1's rate falls at or below the target.

    Returns one estimate per scheme, in order, from one pass over the
    trials (each equal to the one-scheme estimate). The confidence
    half-width is the 3-sigma binomial normal approximation.
    """
    counts = _map_chunks(
        lambda rates: int(np.count_nonzero(rates[:, 0] <= params.r_target)),
        _as_schemes(schemes), params.cfg, n_trials, master_seed, axis_index,
        workers)
    values = [sum(hits) / n_trials for hits in zip(*counts)]
    return [MetricEstimate(v, 3.0 * math.sqrt(v * (1.0 - v) / n_trials))
            for v in values]


def _ergodic_sums(
        rates: np.ndarray) -> tuple[list[float], list[float], float, float]:
    """Per-user and sum-rate first and second moments of one chunk's rates.

    They are Python floats, so the results kept until the reduction hold no
    numpy buffers. Such small heap blocks would sit among the memory the
    chunk frees and split it, and as the conventional array's allocation
    sizes follow each chunk's line-of-sight count, a later chunk could then
    find no free block large enough and grow the heap.

    Each sum is bit for bit numpy's ``sum(axis=0)``. From M = 2 on, numpy
    adds the rows in order from +0.0, one inner loop per M-long row;
    ``_column_sums`` (one einsum call) adds them in that order in one C
    loop, about 4x faster on an (8192, 5) array. At M = 1 the rates are one
    contiguous column, which numpy sums pairwise, so numpy's own sum runs
    there.
    """
    if rates.shape[1] == 1:
        per_sum = rates.sum(axis=0).tolist()
        per_sq = (rates * rates).sum(axis=0).tolist()
    else:
        per_sum = _column_sums(rates).tolist()
        per_sq = _column_sums(rates * rates).tolist()
    totals = _row_sums(rates)
    return per_sum, per_sq, float(totals.sum()), float((totals * totals).sum())


def _ergodic_estimates(parts, n_trials: int,
                       name: str) -> list[MetricEstimate]:
    """Per-user means then the sum-rate mean from ``_ergodic_sums`` of every
    chunk, reduced in chunk order with exact summation.

    Raises ArithmeticError, naming ``name``, when a reduced total is not
    finite, so that no NaN or infinite rate reaches an estimate.
    """
    def estimate(total: float, total_sq: float, what: str) -> MetricEstimate:
        if not (math.isfinite(total) and math.isfinite(total_sq)):
            raise ArithmeticError(f"{name}: the ergodic {what} is not finite "
                                  f"(total {total!r} over {n_trials} trials)")
        mean = total / n_trials
        var = (max((total_sq - n_trials * mean * mean) / (n_trials - 1), 0.0)
               if n_trials > 1 else 0.0)
        return MetricEstimate(mean, 3.0 * math.sqrt(var / n_trials))

    estimates = [estimate(math.fsum(p[0][u] for p in parts),
                          math.fsum(p[1][u] for p in parts),
                          f"rate of user {u + 1}")
                 for u in range(len(parts[0][0]))]
    estimates.append(estimate(math.fsum(p[2] for p in parts),
                              math.fsum(p[3] for p in parts), "sum rate"))
    return estimates


def estimate_ergodic(schemes: Sequence[Scheme], cfg: SystemConfig,
                     n_trials: int, master_seed: int, *, workers: int = 1,
                     axis_index: int = 0) -> list[list[MetricEstimate]]:
    """Per-user ergodic rates followed by the sum rate, each with 3-sigma CIs.

    Returns one such list per scheme, in order, from one pass over the
    trials. Every trial resamples both the placement and the blockage
    state. Raises ArithmeticError, naming the scheme, when an estimate is
    not finite.
    """
    schemes = _as_schemes(schemes)
    parts = _map_chunks(_ergodic_sums, schemes, cfg, n_trials, master_seed,
                        axis_index, workers)
    return [_ergodic_estimates(scheme_parts, n_trials, scheme.value)
            for scheme, scheme_parts in zip(schemes, zip(*parts))]


def sweep_inputs(cfg: SystemConfig, sweep_axis: SweepAxis, axis_values,
                 metric: MetricKind, n_trials: int, master_seed: int, *,
                 r_target: float | None = None, workers: int = 1
                 ) -> list[tuple[float, SystemConfig | OutageParams]]:
    """Check a sweep's arguments, as ``sweep`` takes them, before any trial.

    Returns each point's axis value and estimator input: its config, or
    for OUTAGE its OutageParams. This is the one check of a sweep: every
    message begins with the name of the offending ``sweep`` parameter, and
    a point's error also names the axis and the value.
    """
    _check_budget(n_trials, master_seed, workers)
    values = [float(v) for v in axis_values]
    if not values:
        raise ValueError("axis_values must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("axis_values must be strictly increasing")
    outage = metric is MetricKind.OUTAGE
    if sweep_axis is SweepAxis.R_TARGET and not outage:
        raise ValueError("sweep_axis R_TARGET applies only to the OUTAGE metric")
    if r_target is not None and not r_target > 0:
        raise ValueError("r_target must be > 0")
    if outage and r_target is None and sweep_axis is not SweepAxis.R_TARGET:
        raise ValueError("r_target must be given for the OUTAGE metric "
                         "unless the axis is R_TARGET")
    inputs = []
    for v in values:
        try:
            cfg_v, rt_v = cfg, r_target
            if sweep_axis is SweepAxis.TX_POWER_DBM:
                cfg_v = replace(cfg, tx_power=dbm_to_watt(v))
            elif sweep_axis is SweepAxis.D_L:
                cfg_v = replace(cfg, d_l=v)
            else:
                rt_v = v
            inputs.append((v, OutageParams(cfg=cfg_v, r_target=rt_v)
                           if outage else cfg_v))
        except ValueError as exc:
            raise ValueError(f"axis_values at {sweep_axis.value} = {v!r}: "
                             f"{exc}") from exc
    return inputs


def sweep(cfg: SystemConfig, schemes: Sequence[Scheme],
          sweep_axis: SweepAxis, axis_values, metric: MetricKind, n_trials: int,
          master_seed: int, *, r_target: float | None = None,
          workers: int = 1) -> list[list[tuple[MetricEstimate, ...]]]:
    """One estimate per axis value with per-point deterministic seeding.

    Point i uses streams derived from (master_seed, i, chunk) for every
    scheme; a single-value sweep is therefore bit-identical to a direct
    estimate call. Returns, per scheme in order, one tuple of estimates per
    point in axis order: one estimate, or one per user for
    ERGODIC_PER_USER. Every scheme of a point is evaluated from one pass
    over that point's streams.
    Every argument and every point is checked by ``sweep_inputs`` before
    the first estimate, so a value outside its axis' domain fails before
    any trial runs.
    """
    schemes = _as_schemes(schemes)
    inputs = sweep_inputs(cfg, sweep_axis, axis_values, metric, n_trials,
                          master_seed, r_target=r_target, workers=workers)
    points = [[] for _ in schemes]
    for i, (v, point) in enumerate(inputs):
        if metric is MetricKind.OUTAGE:
            ests = estimate_outage(schemes, point, n_trials, master_seed,
                                   workers=workers, axis_index=i)
            chosen = [(est,) for est in ests]
        else:
            try:
                ests = estimate_ergodic(schemes, point, n_trials, master_seed,
                                        workers=workers, axis_index=i)
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"{sweep_axis.value} = {v!r}: {exc}") from exc
            if metric is MetricKind.ERGODIC_SUM:
                chosen = [(e[-1],) for e in ests]
            else:
                chosen = [tuple(e[:-1]) for e in ests]
        for scheme_points, estimates in zip(points, chosen):
            scheme_points.append(estimates)
    return points
