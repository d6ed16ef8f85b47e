"""Rates of the three transmission designs.

Design I inverts the channel matrix (zero forcing with per-user power
normalization) and falls back to Design II when blockage makes the matrix
rank-deficient. Design II assigns each transmit element to its own user with
an equal 1/sqrt(M) power split and treats cross links as interference. The
conventional baseline applies the Design II power split to the fixed
half-wavelength array.

The kernels (:func:`zf_gains_batch`, :func:`zf_precoders`,
:func:`design1_rates_from_gains`, :func:`design2_rates_from_power`) take
stacked (..., M, M) inputs, and the Monte-Carlo estimators call them on
whole sub-batches; :func:`design2_rates_of_rows` takes the (k, M) rows of
chosen users only, which is how the estimators evaluate pinching Design II
without zero forcing and the conventional array. One realization is the
n = 1 case. Every Design II and conventional rate comes from one SINR
formula, :func:`design2_rates_from_rows`, and every zero-forcing decision
from one gate, the LU factorization and conditioning test of the matrix's
own inverse.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg


LN2 = np.log(2.0)

# Largest 1-norm condition number ||H||_1 ||H^-1||_1 at which zero forcing
# is still applied. The 1-norm and 2-norm condition numbers of an M x M matrix
# differ by at most a factor M. An exactly singular matrix, such as one with
# a zero row or column left by blockage, meets an exact zero pivot and gets
# a NaN inverse, which fails this test, so it mostly guards near-singular
# partially blocked matrices; the gains stay accurate across the whole
# admitted range because they come from inv(H), never inv(H H^H).
COND_LIMIT = 1e12


def no_empty_line(mask: np.ndarray) -> np.ndarray:
    """True where a stacked (..., M, M) boolean pattern has no all-False row
    and no all-False column. A matrix whose zero pattern has one is
    rank-deficient whatever its other entries are."""
    # An unrolled OR over the short trailing axes runs 2-4x faster than
    # any(axis=-1) / any(axis=-2) at M = 2, 5 and 16.
    rows = mask[..., 0]
    cols = mask[..., 0, :]
    for j in range(1, mask.shape[-1]):
        rows = rows | mask[..., j]
        cols = cols | mask[..., j, :]
    return rows.all(axis=-1) & cols.all(axis=-1)


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
    ok, _, col_sq = _zf_inverses(h)
    gains = np.full(h.shape[:-1], np.nan)
    gains[ok] = 1.0 / (h.shape[-1] * col_sq)
    return gains, ok


def zf_precoders(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Explicit zero-forcing precoders inv(H) diag(sqrt(g)) for stacked
    channel matrices, with the gains and the gate of :func:`zf_gains_batch`.

    Column m has squared norm g_m ||col_m(inv(H))||^2 = 1/M, so the total
    transmit power across the M users equals the configured budget.

    Returns:
        (w, ok): w has the (..., M, M) shape of ``h`` and is NaN where
        ``ok`` is False.
    """
    h = np.asarray(h, dtype=complex)
    ok, inv, col_sq = _zf_inverses(h)
    w = np.full(h.shape, np.nan, dtype=complex)
    w[ok] = inv[ok] * np.sqrt(1.0 / (h.shape[-1] * col_sq))[:, None, :]
    return w, ok


def _zf_inverses(h: np.ndarray):
    """The zero-forcing gate and inverse for stacked (..., M, M) matrices.

    Returns ``ok``, in the batch shape of ``h``, for the gate described in
    :func:`zf_gains_batch`, then every inverse, in the shape of ``h`` and
    NaN where LU met a zero pivot, and the squared column norms of the
    inverses that pass the gate, stacked in batch order as (k, M).
    """
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
    sq = inv_abs[ok]
    sq *= sq
    return ok, inv, _column_sums(sq)


# The reductions over the short matrix axes are unrolled into whole-stack
# ufunc calls, as in no_empty_line: numpy's own reductions there run one
# inner loop per row of M elements. Both are bit for bit numpy's:
# a.sum(axis=-2) adds the rows in order, and max is exact and propagates NaN
# like np.maximum. On a (1500, 5, 5) stack the sum runs about 3x and the
# max about 10x faster.
def _column_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-2)`` of a stack of matrices."""
    total = a[..., 0, :].copy()
    for j in range(1, a.shape[-2]):
        total += a[..., j, :]
    return total


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` over a short trailing axis."""
    top = a[..., 0]
    for j in range(1, a.shape[-1]):
        top = np.maximum(top, a[..., j])
    return top


def design1_rates_from_gains(gains: np.ndarray, tx_power: float,
                             noise_power: float) -> np.ndarray:
    """Zero-forcing rates log2(1 + g P / sigma^2) from the gains of
    :func:`zf_gains_batch`, any shape."""
    return np.log1p(gains * tx_power / noise_power) / LN2


def design2_rates_from_rows(own: np.ndarray, row_total: np.ndarray,
                            tx_power: float, noise_power: float,
                            m: int) -> np.ndarray:
    """Design II rates log2(1 + S P / (I P + M sigma^2)), any shape.

    ``own`` is each user's own-link power gain S and ``row_total`` the sum
    of its row of gains, so the interference is I = row_total - S.
    """
    interference = np.maximum(row_total - own, 0.0)
    sinr = own * tx_power / (interference * tx_power + m * noise_power)
    return np.log1p(sinr) / LN2


def design2_rates_of_rows(s: np.ndarray, users: np.ndarray, tx_power: float,
                          noise_power: float) -> np.ndarray:
    """Design II rates of k users from their (k, M) rows of blocked gains.

    Row j holds the links of user ``users[j]``, a flat index into (trial,
    user) order, so its own element is column users[j] % M. Each rate is bit
    for bit the one :func:`design2_rates_from_power` gives that user from
    its trial's full matrix.
    """
    m = s.shape[-1]
    # a lone user's own element is its only one
    own = (s[:, 0] if m == 1 else
           s.reshape(-1).take(np.arange(0, s.size, m) + users % m))
    return design2_rates_from_rows(own, s.sum(axis=-1), tx_power, noise_power,
                                   m)


def design2_rates_from_power(s_eff: np.ndarray, tx_power: float,
                             noise_power: float, m: int) -> np.ndarray:
    """Design II rates from effective squared channel magnitudes.

    Args:
        s_eff: (..., M, M) array of alpha * |h|^2 (zero where blocked).

    Returns:
        (..., M) rates, see :func:`design2_rates_from_rows`.
    """
    s_eff = np.asarray(s_eff, dtype=float)
    return design2_rates_from_rows(np.diagonal(s_eff, axis1=-2, axis2=-1),
                                   s_eff.sum(axis=-1), tx_power, noise_power,
                                   m)
