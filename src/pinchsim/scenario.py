"""Deployment geometry: service area, waveguides, user and antenna placement.

The service area is a ``d_l`` x ``d_w`` rectangle on the floor (z = 0),
covered by ``num_users`` parallel waveguides at height ``height``. Waveguide m
runs along the x-axis at the center line of strip m, and serves the single
user dropped uniformly inside that strip. One pinching antenna per waveguide
is activated at the in-waveguide position closest to its user.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s, exact SI value


class BlockageModel(Enum):
    """Distance law for the probability that a link keeps line of sight."""

    MODEL_A = "MODEL_A"  # P(unblocked) = exp(-phi * distance), phi in 1/m
    MODEL_B = "MODEL_B"  # P(unblocked) = exp(-phi * distance^2), phi in 1/m^2


class LossCase(Enum):
    """Whether in-waveguide propagation loss is applied to the channel."""

    CASE_I = "CASE_I"    # lossless waveguide
    CASE_II = "CASE_II"  # dB/m amplitude loss between feed point and antenna


def dbm_to_watt(dbm: float) -> float:
    """Convert a power level in dBm to watts (inf beyond the float range)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemConfig:
    """All physical and deployment parameters, validated eagerly.

    Powers are linear watts; frequencies in Hz; lengths in meters. Every
    float field must be finite, and each error message begins with the name
    of the offending field. Derived quantities (wavelengths, free-space gain
    constant) are pure functions of the fields, exposed as properties so
    they can never drift.
    """

    num_users: int
    d_w: float
    d_l: float
    tx_power: float
    phi: float
    blockage_model: BlockageModel
    height: float = 3.0
    carrier_freq: float = 28e9
    noise_power: float = 1e-12
    loss_case: LossCase = LossCase.CASE_I
    waveguide_loss_db_per_m: float = 0.08
    n_eff: float = 1.4
    constrain_under_waveguide: bool = False

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        positive = ("d_w", "d_l", "height", "carrier_freq", "noise_power",
                    "tx_power", "n_eff")
        for name in positive + ("phi", "waveguide_loss_db_per_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.phi < 0:
            raise ValueError("phi must be >= 0")
        if self.waveguide_loss_db_per_m < 0:
            raise ValueError("waveguide_loss_db_per_m must be >= 0")
        if not isinstance(self.blockage_model, BlockageModel):
            raise TypeError("blockage_model must be a BlockageModel")
        if not isinstance(self.loss_case, LossCase):
            raise TypeError("loss_case must be a LossCase")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters."""
        return SPEED_OF_LIGHT / self.carrier_freq

    @property
    def guided_wavelength(self) -> float:
        """In-waveguide wavelength: carrier wavelength over n_eff."""
        return self.wavelength / self.n_eff

    @property
    def path_gain_factor(self) -> float:
        """Free-space power gain at 1 m, (wavelength / 4 pi)^2.

        The received power at distance r is tx_power * path_gain_factor / r^2.
        """
        return SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * self.carrier_freq ** 2)

    @property
    def strip_width(self) -> float:
        """Width d_w / num_users of the strip served by one waveguide."""
        return self.d_w / self.num_users


def waveguide_y_offsets(cfg: SystemConfig) -> np.ndarray:
    """Center-line y coordinates of the M waveguides, as an (M,) array.

    Offsets are equally spaced by d_w / num_users and symmetric about y = 0.
    """
    return (-cfg.d_w / 2.0 + np.arange(cfg.num_users) * cfg.d_w / cfg.num_users
            + cfg.d_w / (2.0 * cfg.num_users))


def conventional_array_positions(cfg: SystemConfig) -> np.ndarray:
    """Positions of the fixed half-wavelength-spaced array, (M, 3).

    The array sits at the area center at waveguide height, spaced along x,
    and is centered so the mean x coordinate is exactly zero.
    """
    m = cfg.num_users
    xs = (np.arange(m) - (m - 1) / 2.0) * (cfg.wavelength / 2.0)
    pos = np.zeros((m, 3))
    pos[:, 0] = xs
    pos[:, 2] = cfg.height
    return pos


def _to_uniform(u: np.ndarray, low, high) -> None:
    """Turn ``random()`` doubles into ``uniform(low, high)`` ones, in place.

    numpy's ``uniform`` computes ``low + (high - low) * u`` from one
    ``random()`` double per entry, so this is its draw bit for bit; with
    array bounds it runs about twice as fast.
    """
    u *= high - low
    u += low


def _sample_user_xy(cfg: SystemConfig, n: int, rng,
                    beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n user drops at once: (n, M) x and y coordinates.

    User m gets x ~ U(-d_l/2, d_l/2) and y uniform in its strip, unless
    ``constrain_under_waveguide`` pins y to the waveguide center line.
    ``rng`` is one generator, or a sequence of (generator, rows) pairs
    whose row slices split the n drops into runs; each generator draws all
    x of its rows before any y, ``rng.uniform``'s draw bit for bit, and the
    uniforms are scaled once over all n rows. ``beta`` is
    ``waveguide_y_offsets(cfg)``, which callers also need for the distances
    and so compute once.
    """
    if isinstance(rng, np.random.Generator):
        rng = [(rng, slice(0, n))]
    constrained = cfg.constrain_under_waveguide
    x, y = np.empty((n, cfg.num_users)), np.empty((n, cfg.num_users))
    for g, rows in rng:
        g.random(out=x[rows])
        if not constrained:
            g.random(out=y[rows])
    _to_uniform(x, -cfg.d_l / 2.0, cfg.d_l / 2.0)
    if constrained:
        y[...] = beta
    else:
        half = cfg.strip_width / 2.0
        _to_uniform(y, beta - half, beta + half)
    return x, y

