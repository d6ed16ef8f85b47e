"""Monte-Carlo estimation of outage and ergodic rates.

Trials are evaluated in fixed-size chunks. Each chunk owns an independent
counter-based random stream derived from (master_seed, axis_index, chunk),
and chunk results are reduced in chunk order with exact summation, so an
estimate is bit-identical for any worker count. This module owns only the
streams, the sub-batching, the choice of which users' links are evaluated
and the reductions: the rates inside a chunk come from the batched
functions of :mod:`pinchsim.channel` and :mod:`pinchsim.transceiver`, the
one implementation of the channel model and the rate formulas. It imports
only those two and :mod:`pinchsim.scenario`, which admits its inputs, and
never :mod:`pinchsim.analytics`, the route it is checked against.

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

Line of sight gates the work, and the gates change no draw and no rate:
a blocked user's rate is exactly 0.0, so only the users whose link to the
conventional array, or whose own pinching link (see ``_design2_rows``),
keeps line of sight get their row of links. Zero forcing needs every link,
so when PIN_D1 runs with two or more users both designs read the full
arrays, and only the realizations with no empty row or column get a
channel matrix (see ``_zf_rates``).

Both estimators map their chunks through ``_map_chunks``, and their
conventional rates, like those of ``analytics.ergodic_conv_highsnr``, come
from ``transceiver.conv_rates``. An ergodic estimate whose reduced total
is not finite raises ArithmeticError, naming the scheme, and ``sweep``
adds the sweep point, so no NaN or infinite rate reaches a result.

A chunk is evaluated in cache-sized batches of about SUB_LINKS links,
which take their blockage uniforms in trial order, and chunks smaller than
a batch go to ``_rates_chunk`` in groups that share its fixed cost (see
``_map_chunks``); neither changes a draw, a rate or an estimate. Chunk
memory stays mapped between calls (see ``_prime_heap``).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    center_distances_sq,
    channel_coefficients,
    own_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from .scenario import (
    MetricKind,
    OutageParams,
    Scheme,
    SweepAxis,
    SystemConfig,
    _check_budget,
    _place_users,
    sweep_inputs,
    waveguide_y_offsets,
)
from .transceiver import (
    SUB_LINKS,
    _column_sums,
    _row_sums,
    conv_rates,
    design1_rates_from_gains,
    design2_rates_from_power,
    design2_rates_of_rows,
    no_empty_line,
    zf_gains_batch,
)

# Trials per random-stream chunk. Fixed so that the set of random draws, and
# therefore every estimate, is independent of how chunks are scheduled.
CHUNK_TRIALS = 8192

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
    h = channel_coefficients(cfg, dist_sq[live], s_eff[live])
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
        los = np.flatnonzero(lead < unblocked_probability_sq(
            center_distances_sq(cfg, x, y), cfg))
        rates[Scheme.CONV] = conv = np.zeros((n, m))
        conv_rates(cfg, x, y, los, cfg.tx_power, cfg.noise_power,
                   conv.reshape(-1))
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
