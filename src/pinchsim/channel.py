"""The channel model: distances, line-of-sight probability, power gains and
complex coefficients.

Every function here takes n realizations at once, as (n, M) user
coordinates, and returns (n, M, M) arrays indexed [trial, user, antenna].
The Monte-Carlo estimators call them on whole sub-batches, and the
per-realization API (:func:`sample_blockage`, :func:`build_channel_matrix`)
is their n = 1 case.

A link of length r has free-space power gain path_gain_factor / r^2. The
pinching system adds the in-waveguide path of length l = x + d_l/2 from the
feed at the near edge to the antenna: a phase over the guided wavelength and,
for CASE_II, a dB/m amplitude loss a(l). So
h = alpha sqrt(path_gain_factor) / r a(l) exp(-2 pi j (r / wavelength
+ l / guided_wavelength)), with alpha the line-of-sight indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import (
    BlockageModel,
    LossCase,
    Placement,
    SystemConfig,
    conventional_array_positions,
    waveguide_y_offsets,
)


class SystemKind(Enum):
    PINCHING = "PINCHING"
    CONVENTIONAL = "CONVENTIONAL"


@dataclass(frozen=True)
class BlockageState:
    """Binary line-of-sight indicators.

    For PINCHING, ``alpha`` is an (M, M) matrix indexed [user, waveguide].
    For CONVENTIONAL all array elements share one indicator per user, so
    ``alpha`` is an (M,) vector. A state drawn with ``sample_blockage(...,
    size=n)`` carries a leading batch axis of n realizations.
    """

    alpha: np.ndarray
    system: SystemKind

    def __post_init__(self) -> None:
        given = np.asarray(self.alpha)
        if not np.all((given == 0) | (given == 1)):
            raise ValueError("alpha entries must be 0 or 1")
        arr = given.astype(np.int8)
        expected_ndim = 2 if self.system is SystemKind.PINCHING else 1
        if arr.ndim not in (expected_ndim, expected_ndim + 1):
            raise ValueError(
                f"alpha must be {expected_ndim}-dimensional for {self.system.value}, "
                "plus an optional leading batch axis")
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


@dataclass(frozen=True)
class ChannelMatrix:
    """Effective channel, rows = users, columns = transmit elements.

    ``h`` already includes blockage zeros and any waveguide loss.
    """

    h: np.ndarray
    system: SystemKind

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h must be a square matrix")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def num_users(self) -> int:
        return self.h.shape[0]


def pin_distances_sq(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                     beta: np.ndarray) -> np.ndarray:
    """Squared user-to-pinching-antenna distances, (n, M, M).

    Antenna m sits at (x[:, m], beta[m], height); ``beta`` is
    ``waveguide_y_offsets(cfg)``.
    """
    d = x[:, :, None] - x[:, None, :]
    d *= d
    dy = y[:, :, None] - beta[None, None, :]
    dy *= dy
    d += dy
    d += cfg.height * cfg.height
    return d


def conv_distances_sq(cfg: SystemConfig, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Squared user-to-element distances of the conventional array, (n, M, M)."""
    d = x[:, :, None] - conventional_array_positions(cfg)[None, None, :, 0]
    d *= d
    d += (y * y + cfg.height ** 2)[:, :, None]
    return d


def center_distances_sq(cfg: SystemConfig, x: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Squared user-to-array-center distances, (n, M): the length of the one
    link whose blockage every conventional element shares."""
    return x * x + y * y + cfg.height ** 2


def unblocked_probability_sq(dist_sq, cfg: SystemConfig):
    """Probability that a link keeps line of sight, from its squared length.

    MODEL_A uses exp(-phi * distance); MODEL_B uses exp(-phi * distance^2),
    which needs no square root.
    """
    dsq = np.asarray(dist_sq, dtype=float)
    # Built in place in one array; a scalar input gives a scalar.
    p = np.empty(dsq.shape)
    if cfg.blockage_model is BlockageModel.MODEL_A:
        np.sqrt(dsq, out=p)
        p *= -cfg.phi
    else:
        np.multiply(dsq, -cfg.phi, out=p)
    np.exp(p, out=p)
    return p if p.ndim else p[()]


def _guided_length(cfg: SystemConfig, x: np.ndarray) -> np.ndarray:
    """In-waveguide distance from the feed at x = -d_l/2 to antennas at x."""
    return x + cfg.d_l / 2.0


def waveguide_amplitude(cfg: SystemConfig, x: np.ndarray) -> np.ndarray:
    """In-waveguide amplitude factor of antennas at x: the dB/m loss for
    CASE_II, ones for CASE_I."""
    if cfg.loss_case is LossCase.CASE_II:
        length = _guided_length(cfg, x)
        return 10.0 ** (-cfg.waveguide_loss_db_per_m * length / 20.0)
    return np.ones_like(x)


def power_gains(cfg: SystemConfig, dist_sq: np.ndarray,
                pinch_x: np.ndarray | None = None) -> np.ndarray:
    """Unblocked |h|^2 of every link, (n, M, M).

    ``pinch_x`` holds the (n, M) antenna x coordinates of a pinching system,
    whose waveguide amplitude then applies per column; None for the
    conventional array.
    """
    s = cfg.path_gain_factor / dist_sq
    if pinch_x is not None:
        amp = waveguide_amplitude(cfg, pinch_x)
        amp *= amp
        s *= amp[:, None, :]
    return s


def channel_coefficients(cfg: SystemConfig, dist_sq: np.ndarray,
                         s_eff: np.ndarray,
                         pinch_x: np.ndarray | None = None) -> np.ndarray:
    """Complex h = sqrt(s_eff) exp(-2 pi j (r / wavelength + l / guided_wavelength)).

    ``s_eff`` is the blocked power gain alpha |h|^2. ``pinch_x`` is as in
    :func:`power_gains`; without it there is no in-waveguide phase.
    """
    cycles = np.sqrt(dist_sq) / cfg.wavelength
    if pinch_x is not None:
        cycles = (cycles + _guided_length(cfg, pinch_x)[:, None, :]
                  / cfg.guided_wavelength)
    return np.sqrt(s_eff) * np.exp(1j * (-2.0 * np.pi * cycles))


def _user_xy(placement: Placement,
             cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The placement as (1, M) coordinates, after checking that it holds
    the M users of ``cfg``, whose waveguides it is paired with."""
    if placement.x.shape != (cfg.num_users,):
        raise ValueError(f"placement holds {placement.x.size} users, "
                         f"expected num_users = {cfg.num_users}")
    return placement.x[None], placement.y[None]


def _check_one_state(blockage: BlockageState, system: SystemKind) -> None:
    if blockage.system is not system:
        raise ValueError("blockage state was drawn for a different system kind")
    if blockage.alpha.ndim != (2 if system is SystemKind.PINCHING else 1):
        raise ValueError("blockage state holds a batch; pass one realization")


def sample_blockage(placement: Placement, cfg: SystemConfig,
                    system: SystemKind, rng: np.random.Generator,
                    size: int | None = None) -> BlockageState:
    """Draw independent Bernoulli blockage indicators for one placement.

    With ``size=n`` the state holds n independent realizations along a
    leading axis, drawn in one call; the stream is consumed exactly as by
    n successive single draws.
    """
    x, y = _user_xy(placement, cfg)
    if system is SystemKind.PINCHING:
        dist_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))[0]
    else:
        dist_sq = center_distances_sq(cfg, x, y)[0]
    p = unblocked_probability_sq(dist_sq, cfg)
    shape = p.shape if size is None else (size,) + p.shape
    return BlockageState(alpha=rng.random(shape) < p, system=system)


def build_channel_matrix(placement: Placement, blockage: BlockageState,
                         cfg: SystemConfig, system: SystemKind) -> ChannelMatrix:
    """Assemble the effective (M, M) channel for one realization."""
    _check_one_state(blockage, system)
    x, y = _user_xy(placement, cfg)
    if system is SystemKind.PINCHING:
        dist_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
        pinch_x = x
        alpha = blockage.alpha
    else:
        dist_sq = conv_distances_sq(cfg, x, y)
        pinch_x = None
        alpha = blockage.alpha[:, None]
    s_eff = power_gains(cfg, dist_sq, pinch_x) * alpha
    h = channel_coefficients(cfg, dist_sq, s_eff, pinch_x)
    return ChannelMatrix(h=h[0], system=system)
