"""Rates of the three transmission designs.

Design I inverts the channel matrix (zero forcing with per-user power
normalization) and falls back to Design II when blockage makes the matrix
rank-deficient. Design II assigns each transmit element to its own user with
an equal 1/sqrt(M) power split and treats cross links as interference. The
conventional baseline applies the Design II power split to the fixed
half-wavelength array.

The zero-forcing kernels (:func:`zf_gains_batch`,
:func:`design1_rates_from_gains`, and :func:`design2_rates_from_power`,
Design II and the fallback from the same full matrices) take stacked
(..., M, M) inputs, and the Monte-Carlo estimators call them on whole
sub-batches when Design I runs. :func:`design2_rates_of_rows` takes the
(k, M) rows of chosen users only, which is how every other rate is
evaluated: pinching Design II without zero forcing, and, through
:func:`conv_rates`, every conventional rate of the estimators and of the
high-SNR bound. One realization is the n = 1 case. Every Design II and
conventional rate comes from one SINR formula, :func:`design2_rates_from_rows`,
and every zero-forcing decision from one gate, the LU factorization and
conditioning test of the matrix's own inverse.

The reductions over the short matrix axes are bit for bit numpy's own
reductions but skip its one inner loop per M-element row: the column sums
are one ``einsum`` call, which adds the rows in numpy's order, and the row
sums, maxima and empty-line tests are unrolled into whole-stack ufunc
calls. The SINR step runs in place on its numerator and denominator; a
lone user's SINR skips the interference.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import conv_distances_sq, power_gains
from .scenario import SystemConfig


LN2 = np.log(2.0)

# Largest 1-norm condition number ||H||_1 ||H^-1||_1 at which zero forcing
# is still applied. The 1-norm and 2-norm condition numbers of an M x M matrix
# differ by at most a factor M. An exactly singular matrix, such as one with
# a zero row or column left by blockage, meets an exact zero pivot and gets
# a NaN inverse, which fails this test, so it mostly guards near-singular
# partially blocked matrices; the gains stay accurate across the whole
# admitted range because they come from inv(H), never inv(H H^H).
COND_LIMIT = 1e12

# Largest ratio of a Design II SINR's numerator S P to its denominator
# (row_total - S) P + M sigma^2 at which the interference is read from the
# row total. The subtraction loses about eps S, which moves the denominator
# by about eps S P: past this ratio more than 2^-32 of it, and all of the
# interference once S passes about 2^53 I, as when an own link of a 10 nm
# antenna meets metre-long cross links. Such a user's cross gains are
# summed instead. Below it, a lost interference moves no rate by more than
# that, even where the noise dominates.
CANCEL = 2.0 ** 20

# Links evaluated at once: conv_rates' rows of SUB_LINKS // M users and the
# Monte-Carlo sub-batches of SUB_LINKS // M^2 trials, so that a float64
# temporary stays at most 512 KiB and a batch's working set in cache. No
# batch size changes a draw or a rate, so it is free to tune.
SUB_LINKS = 1 << 16


def no_empty_line(mask: np.ndarray) -> np.ndarray:
    """True where a stacked (..., M, M) boolean pattern has no all-False row
    and no all-False column. A matrix whose zero pattern has one is
    rank-deficient whatever its other entries are."""
    # Unrolled ORs and ANDs over the short trailing axes: the ORs run 2-4x
    # faster than any() at M = 2, 5 and 16, and the ANDs than all().
    rows = mask[..., 0]
    cols = mask[..., 0, :]
    for j in range(1, mask.shape[-1]):
        rows = rows | mask[..., j]
        cols = cols | mask[..., j, :]
    lines = rows & cols
    full = lines[..., 0]
    for j in range(1, lines.shape[-1]):
        full = full & lines[..., j]
    return full


def zf_gains_batch(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing gains for stacked channel matrices.

    The gain of user m is g_m = 1 / (M ||col_m(inv(H))||^2), which equals
    1 / (M [inv(H H^H)]_mm) without squaring the condition number. The
    stack takes one batched inverse, each matrix factorized once: an exactly
    singular matrix, including one with an all-zero row or column, meets a
    zero pivot of that inverse's own LU factorization and gets a NaN
    inverse. The inverse's 1-norm gives the gate
    ||H||_1 ||inv(H)||_1 <= COND_LIMIT (within a factor M of the 2-norm
    condition number), which a NaN inverse fails.

    Args:
        h: (..., M, M) complex matrices, rows = users.

    Returns:
        (gains, ok): gains has shape (..., M) and is NaN where ``ok`` is
        False, i.e. where the matrix is rank-deficient (zero row/column,
        exactly singular, or 1-norm condition number above COND_LIMIT).
    """
    h = np.asarray(h, dtype=complex)
    # np.linalg.inv's own gufunc, which np.linalg.inv turns into LinAlgError
    # for the whole stack when one matrix hits an exact zero pivot in its LU
    # factorization; called directly it returns NaN for that matrix alone,
    # and a NaN inverse fails the conditioning gate below.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        inv = _umath_linalg.inv(h, signature="D->D")
    inv_abs = np.abs(inv)
    cond = (_last_axis_max(_column_sums(np.abs(h)))
            * _last_axis_max(_column_sums(inv_abs)))
    ok = np.asarray(cond <= COND_LIMIT)
    # squared column norms of the inverses that pass the gate, (k, M)
    sq = inv_abs[ok]
    sq *= sq
    gains = np.full(h.shape[:-1], np.nan)
    gains[ok] = 1.0 / (h.shape[-1] * _column_sums(sq))
    return gains, ok


# The reductions over the short matrix axes avoid numpy's own reductions
# there, which run one inner loop per row of M elements. Each is bit for bit
# numpy's: a.sum(axis=-2) adds the rows in order and a.sum(axis=-1) a row of
# fewer than 8 elements, both from +0.0, and max is exact and propagates NaN
# like np.maximum. The column sum is einsum's, which adds each column's rows
# in that same order from +0.0 in one C loop; on a stack of 2^16 entries,
# one Monte-Carlo sub-batch, it takes 101, 51 and 25 us at M = 2, 5 and 16,
# against 178, 88 and 58 us for M - 1 unrolled ufunc adds (2-CPU Xeon). It
# must stay at einsum's default optimize=False, which keeps BLAS out of it.
# einsum's row sums ("...ij->...i") run SIMD accumulators in another order,
# so the row sum and the max stay unrolled ufunc calls: on a (1500, 5, 5)
# stack the max runs about 10x and on a (2621, 5, 5) stack the row sum
# about 5x faster than numpy's reduction.
def _column_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-2)`` of a stack of matrices, or of one (n, M) array."""
    return np.einsum("...ij->...j", a)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` over a short trailing axis.

    Below 8 elements numpy adds a row in order, starting from +0.0. From 8
    on, its pairwise loop keeps 8 accumulators, and an unrolled copy of
    that is no faster, so numpy's own sum runs there.
    """
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    total = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` over a short trailing axis."""
    top = a[..., 0]
    for j in range(1, a.shape[-1]):
        top = np.maximum(top, a[..., j])
    return top


def _cross_sums(rows: np.ndarray, own_col: np.ndarray) -> np.ndarray:
    """``_row_sums`` of a (k, M) copy of gains with the own element of each
    row, at column ``own_col``, set to +0.0: the rows' interference."""
    rows[np.arange(len(rows)), own_col] = 0.0
    return _row_sums(rows)


def design1_rates_from_gains(gains: np.ndarray, tx_power: float,
                             noise_power: float) -> np.ndarray:
    """Zero-forcing rates log2(1 + g P / sigma^2) from the gains of
    :func:`zf_gains_batch`, any shape."""
    return np.log1p(gains * tx_power / noise_power) / LN2


def design2_rates_from_rows(own: np.ndarray, row_total: np.ndarray,
                            tx_power: float, noise_power: float, m: int,
                            cross=None) -> np.ndarray:
    """Design II rates log2(1 + S P / (I P + M sigma^2)) of arrays of one
    shape.

    ``own`` is each user's own-link power gain S and ``row_total`` the sum
    of its row of gains, so the interference is I = row_total - S. The
    steps are those of the one expression
    log1p(S P / (max(row_total - S, 0) P + M sigma^2)) / ln 2, in its
    order, run in place on its numerator and denominator. Given ``cross``,
    a function from flat indices into ``own`` to those users' sums of
    cross gains, a user whose numerator S P exceeds that denominator by
    more than CANCEL takes its I from ``cross`` instead, as the
    subtraction may have lost it to rounding. A lone user's row total is
    its own finite gain, so at m = 1 the interference is exactly +0.0 and
    the denominator M sigma^2: neither is computed, and neither
    ``row_total`` nor ``cross`` is read.
    """
    sinr = np.multiply(own, tx_power)
    if m == 1:
        sinr /= m * noise_power
    else:
        den = np.subtract(row_total, own)
        np.maximum(den, 0.0, out=den)
        den *= tx_power
        den += m * noise_power
        if cross is not None:
            # S P > CANCEL den, without overflowing
            lost = np.flatnonzero(np.multiply(sinr, 1.0 / CANCEL) > den)
            if lost.size:
                den.flat[lost] = cross(lost) * tx_power + m * noise_power
        sinr /= den
    np.log1p(sinr, out=sinr)
    sinr /= LN2
    return sinr


def design2_rates_of_rows(s: np.ndarray, users: np.ndarray, tx_power: float,
                          noise_power: float) -> np.ndarray:
    """Design II rates of k users from their (k, M) rows of blocked gains.

    Row j holds the links of user ``users[j]``, a flat index into (trial,
    user) order, so its own element is column users[j] % M. Each rate is bit
    for bit the one :func:`design2_rates_from_power` gives that user from
    its trial's full matrix.
    """
    m = s.shape[-1]
    if m == 1:
        # a lone user's own element is its only one, and its row total
        own = s[:, 0]
        return design2_rates_from_rows(own, own, tx_power, noise_power, m)
    own = s.reshape(-1).take(np.arange(0, s.size, m) + users % m)
    return design2_rates_from_rows(
        own, _row_sums(s), tx_power, noise_power, m,
        lambda lost: _cross_sums(s[lost], users[lost] % m))


def conv_rates(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
               users: np.ndarray, tx_power: float, noise_power: float,
               out: np.ndarray) -> None:
    """Write the conventional-array rates of ``users`` into ``out[users]``.

    ``users`` are flat indices into ``x`` and ``y``, user coordinates of one
    (..., M) shape, and ``out`` is flat. Element m serves user m with power
    P/M, and every element shares the user's blockage, which the caller
    applies by its choice of ``users``. The users' (k, M) rows of links run
    SUB_LINKS // M at a time, and each rate is bit for bit the one of a
    full (..., M, M) evaluation.
    """
    xs, ys = x.reshape(-1), y.reshape(-1)
    step = max(1, SUB_LINKS // cfg.num_users)
    for lo in range(0, users.size, step):
        rows = users[lo:lo + step]
        s = power_gains(cfg, conv_distances_sq(cfg, xs.take(rows),
                                               ys.take(rows)))
        out[rows] = design2_rates_of_rows(s, rows, tx_power, noise_power)


def design2_rates_from_power(s_eff: np.ndarray, tx_power: float,
                             noise_power: float) -> np.ndarray:
    """Design II rates from effective squared channel magnitudes.

    Args:
        s_eff: (..., M, M) array of alpha * |h|^2 (zero where blocked).

    Returns:
        (..., M) rates, see :func:`design2_rates_from_rows`.
    """
    m = s_eff.shape[-1]
    # flat user j is row j % M of matrix j // M
    return design2_rates_from_rows(
        np.diagonal(s_eff, axis1=-2, axis2=-1), _row_sums(s_eff), tx_power,
        noise_power, m, lambda lost: _cross_sums(s_eff.reshape(-1, m)[lost],
                                                 lost % m))

