"""Blockage indicators and complex channel coefficients.

Channel coefficients combine a spherical-wave free-space term with, for the
pinching system, an in-waveguide phase (guided wavelength) and optional dB/m
amplitude loss between the feed point and the antenna.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .scenario import BlockageModel, LossCase, Placement, SystemConfig


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

    ``h`` already includes blockage zeros and any waveguide loss;
    ``magnitudes`` keeps the raw unblocked |h| for diagnostics.
    """

    h: np.ndarray
    magnitudes: np.ndarray
    system: SystemKind

    def __post_init__(self) -> None:
        h = np.array(self.h, dtype=complex)
        mags = np.array(self.magnitudes, dtype=float)
        if h.shape != mags.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("h and magnitudes must be equal square matrices")
        h.setflags(write=False)
        mags.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "magnitudes", mags)

    @property
    def num_users(self) -> int:
        return self.h.shape[0]


def blockage_probability(distance, cfg: SystemConfig):
    """Probability that a link of the given length keeps line of sight.

    MODEL_A uses exp(-phi * distance); MODEL_B uses exp(-phi * distance^2).
    Accepts scalars or arrays; the result is in (0, 1].
    """
    dist = np.asarray(distance, dtype=float)
    if np.any(dist < 0):
        raise ValueError("distance must be >= 0")
    if cfg.blockage_model is BlockageModel.MODEL_A:
        exponent = dist
    else:
        exponent = dist * dist
    out = np.exp(-cfg.phi * exponent)
    return float(out) if np.isscalar(distance) or out.ndim == 0 else out


def unblocked_probability_sq(dist_sq, cfg: SystemConfig):
    """Same as :func:`blockage_probability` but from squared distances.

    Avoids the square root for MODEL_B; used by the vectorized simulator.
    """
    dsq = np.asarray(dist_sq, dtype=float)
    if cfg.blockage_model is BlockageModel.MODEL_A:
        return np.exp(-cfg.phi * np.sqrt(dsq))
    return np.exp(-cfg.phi * dsq)


def sample_blockage(placement: Placement, cfg: SystemConfig,
                    system: SystemKind, rng: np.random.Generator,
                    size: int | None = None) -> BlockageState:
    """Draw independent Bernoulli blockage indicators for one placement.

    With ``size=n`` the state holds n independent realizations along a
    leading axis, drawn in one call; the stream is consumed exactly as by
    n successive single draws.
    """
    users = placement.user_positions
    if system is SystemKind.PINCHING:
        diff = users[:, None, :] - placement.pinch_positions[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
    else:
        center = np.array([0.0, 0.0, cfg.height])
        dist = np.linalg.norm(users - center, axis=-1)
    p = blockage_probability(dist, cfg)
    shape = dist.shape if size is None else (size,) + dist.shape
    alpha = (rng.random(shape) < p).astype(np.int8)
    return BlockageState(alpha=alpha, system=system)


def free_space_coefficient(tx, rx, cfg: SystemConfig) -> complex:
    """Spherical-wave coefficient between two points.

    Magnitude sqrt(path_gain_factor) / distance, phase -2 pi distance over
    the carrier wavelength.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    r = float(np.linalg.norm(rx - tx))
    if r == 0.0:
        raise ValueError("tx and rx coincide; free-space coefficient is singular")
    amp = np.sqrt(cfg.path_gain_factor) / r
    return amp * np.exp(-2j * np.pi * r / cfg.wavelength)


def waveguide_factor(feed, antenna, cfg: SystemConfig) -> complex:
    """In-waveguide propagation factor from the feed point to an antenna.

    Phase advances with the guided wavelength; CASE_II additionally applies
    the configured dB/m amplitude loss over the in-waveguide distance.
    """
    feed = np.asarray(feed, dtype=float)
    antenna = np.asarray(antenna, dtype=float)
    if feed[1] != antenna[1] or feed[2] != antenna[2]:
        raise ValueError("feed and antenna must lie on the same waveguide")
    length = abs(float(antenna[0] - feed[0]))
    amp = 1.0
    if cfg.loss_case is LossCase.CASE_II:
        amp = 10.0 ** (-cfg.waveguide_loss_db_per_m * length / 20.0)
    return amp * np.exp(-2j * np.pi * length / cfg.guided_wavelength)


def build_channel_matrix(placement: Placement, blockage: BlockageState,
                         cfg: SystemConfig, system: SystemKind) -> ChannelMatrix:
    """Assemble the effective (M, M) channel for one realization."""
    if blockage.system is not system:
        raise ValueError("blockage state was drawn for a different system kind")
    if blockage.alpha.ndim != (2 if system is SystemKind.PINCHING else 1):
        raise ValueError("blockage state holds a batch; pass one realization")
    users = placement.user_positions

    if system is SystemKind.PINCHING:
        elements = placement.pinch_positions
        diff = users[:, None, :] - elements[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        if np.any(dist == 0):
            raise ValueError("user coincides with an antenna; channel is singular")
        wav_len = np.abs(elements[:, 0] - placement.feed_positions[:, 0])
        amp = np.ones_like(wav_len)
        if cfg.loss_case is LossCase.CASE_II:
            amp = 10.0 ** (-cfg.waveguide_loss_db_per_m * wav_len / 20.0)
        mags = np.sqrt(cfg.path_gain_factor) / dist * amp[None, :]
        phase = -2.0 * np.pi * (dist / cfg.wavelength
                                + wav_len[None, :] / cfg.guided_wavelength)
        h = blockage.alpha * mags * np.exp(1j * phase)
    else:
        elements = placement.conv_positions
        diff = users[:, None, :] - elements[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        if np.any(dist == 0):
            raise ValueError("user coincides with an antenna; channel is singular")
        mags = np.sqrt(cfg.path_gain_factor) / dist
        phase = -2.0 * np.pi * dist / cfg.wavelength
        h = blockage.alpha[:, None] * mags * np.exp(1j * phase)

    return ChannelMatrix(h=h, magnitudes=mags, system=system)
