"""Rates of the three transmission designs.

Design I inverts the channel matrix (zero forcing with per-user power
normalization) and falls back to Design II when blockage makes the matrix
rank-deficient. Design II assigns each transmit element to its own user with
an equal 1/sqrt(M) power split and treats cross links as interference. The
conventional baseline applies the Design II power split to the fixed
half-wavelength array.

The kernels (:func:`zf_gains_batch`, :func:`design1_rates_from_gains`,
:func:`design2_rates_from_power`) take stacked (..., M, M) inputs, and the
Monte-Carlo estimators call them on whole sub-batches. The per-realization
functions are their n = 1 case, on one :class:`ChannelMatrix` or one
placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg

from .channel import (
    BlockageState,
    ChannelMatrix,
    SystemKind,
    _check_one_state,
    _user_xy,
    conv_distances_sq,
    power_gains,
)
from .scenario import Placement, SystemConfig

LN2 = np.log(2.0)

# Largest 1-norm condition number ||H||_1 ||H^-1||_1 at which zero forcing
# is still applied. The 1-norm and 2-norm condition numbers of an M x M matrix
# differ by at most a factor M. Blockage produces exact zero rows/columns,
# which are rejected before any factorization, and an exactly singular
# matrix gets a NaN inverse, which fails this test, so it mostly guards
# near-singular partially blocked matrices; the gains stay accurate across
# the whole admitted range because they come from inv(H), never inv(H H^H).
COND_LIMIT = 1e12


class SchemeUsed(Enum):
    ZF = "ZF"
    DESIGN2 = "DESIGN2"
    DESIGN2_FALLBACK = "DESIGN2_FALLBACK"
    CONVENTIONAL = "CONVENTIONAL"


@dataclass(frozen=True)
class RateVector:
    """Per-user instantaneous rates in bits/s/Hz plus the path that made them."""

    rates: np.ndarray
    scheme_used: SchemeUsed

    def __post_init__(self) -> None:
        arr = np.array(self.rates, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "rates", arr)


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
    1 / (M [inv(H H^H)]_mm) without squaring the condition number. Matrices
    with an all-zero row or column are rejected without factorization, and
    the rest take one batched inverse, each factorized once: an exactly
    singular matrix, flagged by a zero pivot of that inverse's own LU
    factorization, gets a NaN inverse. The inverse's 1-norm gives the gate
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
    m = h.shape[-1]
    batch = h.shape[:-2]
    flat = h.reshape(-1, m, m)
    live, _, col_sq = _zf_inverses(flat)

    ok = np.zeros(flat.shape[0], dtype=bool)
    ok[live] = True
    gains = np.full((flat.shape[0], m), np.nan)
    gains[live] = 1.0 / (m * col_sq)
    return gains.reshape(batch + (m,)), ok.reshape(batch)


def _zf_inverses(flat: np.ndarray):
    """The zero-forcing gate and inverse for an (N, M, M) stack.

    Returns the indices of the matrices that pass the gate described in
    :func:`zf_gains_batch`, their inverses and the squared column norms of
    those inverses.
    """
    live = np.flatnonzero(no_empty_line(flat != 0))
    mats = flat[live]
    # np.linalg.inv's own gufunc, which np.linalg.inv turns into LinAlgError
    # for the whole stack when one matrix hits an exact zero pivot in its LU
    # factorization; called directly it returns NaN for that matrix alone,
    # and a NaN inverse fails the conditioning gate below.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore",
                     under="ignore"):
        inv = _umath_linalg.inv(mats, signature="D->D")
    inv_abs = np.abs(inv)
    cond = (np.abs(mats).sum(axis=-2).max(axis=-1)
            * inv_abs.sum(axis=-2).max(axis=-1))
    well = cond <= COND_LIMIT
    return live[well], inv[well], (inv_abs[well] ** 2).sum(axis=-2)


def zero_forcing_gains(chan: ChannelMatrix) -> np.ndarray | None:
    """Per-user gains g_m = 1 / (M [inv(H H^H)]_mm), or None if rank-deficient.

    The gains are computed as 1 / (M ||col_m(inv(H))||^2), the same quantity
    without forming H H^H; see :func:`zf_gains_batch` for the gate. Rank
    deficiency is an expected outcome under blockage, so it is signalled
    by returning None rather than raising.
    """
    gains, ok = zf_gains_batch(chan.h)
    return gains if ok else None


def zero_forcing_precoder(chan: ChannelMatrix) -> np.ndarray | None:
    """Explicit precoding matrix inv(H) diag(sqrt(g)), or None if rank-deficient.

    Each column has squared norm 1/M, so the total transmit power across the
    M users equals the configured budget.
    """
    live, inv, col_sq = _zf_inverses(chan.h[None])
    if live.size == 0:
        return None
    return inv[0] * np.sqrt(1.0 / (chan.num_users * col_sq[0]))


def design1_rates_from_gains(gains: np.ndarray, tx_power: float,
                             noise_power: float) -> np.ndarray:
    """Zero-forcing rates log2(1 + g P / sigma^2) from the gains of
    :func:`zf_gains_batch`, any shape."""
    return np.log1p(gains * tx_power / noise_power) / LN2


def design2_rates_from_power(s_eff: np.ndarray, tx_power: float,
                             noise_power: float, m: int) -> np.ndarray:
    """Design II rates from effective squared channel magnitudes.

    Args:
        s_eff: (..., M, M) array of alpha * |h|^2 (zero where blocked).

    Returns:
        (..., M) rates log2(1 + S P / (I P + M sigma^2)).
    """
    s_eff = np.asarray(s_eff, dtype=float)
    own = np.diagonal(s_eff, axis1=-2, axis2=-1)
    interference = np.maximum(s_eff.sum(axis=-1) - own, 0.0)
    sinr = own * tx_power / (interference * tx_power + m * noise_power)
    return np.log1p(sinr) / LN2


def design2_rates(chan: ChannelMatrix, cfg: SystemConfig) -> RateVector:
    """Low-complexity per-waveguide transmission (equal 1/sqrt(M) power split)."""
    rates = design2_rates_from_power(np.abs(chan.h) ** 2, cfg.tx_power,
                                     cfg.noise_power, chan.num_users)
    return RateVector(rates=rates, scheme_used=SchemeUsed.DESIGN2)


def design1_rates(chan: ChannelMatrix, cfg: SystemConfig) -> RateVector:
    """Zero forcing when the channel is invertible, Design II otherwise."""
    gains = zero_forcing_gains(chan)
    if gains is None:
        return RateVector(rates=design2_rates(chan, cfg).rates,
                          scheme_used=SchemeUsed.DESIGN2_FALLBACK)
    rates = design1_rates_from_gains(gains, cfg.tx_power, cfg.noise_power)
    return RateVector(rates=rates, scheme_used=SchemeUsed.ZF)


def conventional_rates(placement: Placement, blockage: BlockageState,
                       cfg: SystemConfig) -> RateVector:
    """Rates for the fixed half-wavelength array baseline.

    Element m serves user m with power P/M; all elements seen by one user
    share that user's blockage state, and a user's Design II rate reads only
    its own row, so blockage applies to the rates. For M = 1 this reduces to
    the single fixed antenna with the full power budget.
    """
    _check_one_state(blockage, SystemKind.CONVENTIONAL)
    x, y = _user_xy(placement, cfg)
    s = power_gains(cfg, conv_distances_sq(cfg, x, y))
    rates = design2_rates_from_power(s, cfg.tx_power, cfg.noise_power,
                                     cfg.num_users)[0] * blockage.alpha
    return RateVector(rates=rates, scheme_used=SchemeUsed.CONVENTIONAL)
