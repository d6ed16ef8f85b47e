"""Deployment geometry and the admitted inputs of both estimation routes.

The service area is a ``d_l`` x ``d_w`` rectangle on the floor (z = 0),
covered by ``num_users`` parallel waveguides at height ``height``. Waveguide m
runs along the x-axis at the center line of strip m, and serves the single
user dropped uniformly inside that strip. One pinching antenna per waveguide
is activated at the in-waveguide position closest to its user.

Every admission rule, and every message that ``cli`` maps to a config key,
is written here: the box ``_BOUNDS``, which ``SystemConfig`` and
``OutageParams`` check, and ``sweep_inputs``, the one check of a sweep.
Both routes take their inputs from here, so neither imports the other.

This module imports no other module of the package and draws no random
numbers: :mod:`pinchsim.montecarlo` draws a chunk's uniforms, and
``_place_users`` maps them to user positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


class Scheme(Enum):
    """Transmission scheme: pinching Design I (zero forcing) or Design II
    (one antenna per user), or the fixed conventional array."""

    PIN_D1 = "PIN_D1"
    PIN_D2 = "PIN_D2"
    CONV = "CONV"


class MetricKind(Enum):
    """Quantity estimated at each sweep point."""

    OUTAGE = "OUTAGE"
    ERGODIC_PER_USER = "ERGODIC_PER_USER"
    ERGODIC_SUM = "ERGODIC_SUM"


class SweepAxis(Enum):
    TX_POWER_DBM = "TX_POWER_DBM"
    D_L = "D_L"
    R_TARGET = "R_TARGET"


def dbm_to_watt(dbm: float) -> float:
    """Convert a power level in dBm to watts (inf beyond the float range)."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        return math.inf


# The admitted box: (low, high, unit) of each float field of SystemConfig,
# and of the target rate, which OutageParams and ``sweep_inputs`` check.
# It holds an indoor mmWave downlink with room to spare: areas from
# 1 cm to 10 km a side, powers from -100 to 100 dBm transmitted and from
# -200 to 0 dBm of noise (dbm_to_watt converts those edges exactly). A phi
# of 0, no blockage, is admitted as well.
_BOUNDS = {
    "d_w": (1e-2, 1e4, "m"),
    "d_l": (1e-2, 1e4, "m"),
    "height": (1e-2, 1e3, "m"),
    "carrier_freq": (1e8, 1e12, "Hz"),
    "tx_power": (1e-13, 1e7, "W (-100 to 100 dBm)"),
    "noise_power": (1e-23, 1e-3, "W (-200 to 0 dBm)"),
    "phi": (1e-9, 1e3, "(1/m or 1/m^2), or 0"),
    "waveguide_loss_db_per_m": (0.0, 1.0, "dB/m"),
    "r_target": (1e-9, 1e3, "bits/s/Hz"),
}


def _check_bound(name: str, value: float) -> None:
    """Raise ValueError, beginning with ``name``, unless ``value`` lies in
    its row of _BOUNDS (edges included; nan and inf never do)."""
    low, high, unit = _BOUNDS[name]
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low:g}, {high:g}] {unit}")


@dataclass(frozen=True)
class SystemConfig:
    """All physical and deployment parameters, validated eagerly.

    Powers are linear watts; frequencies in Hz; lengths in meters. The
    table _BOUNDS is the one gate of the float fields: each must lie in its
    row (phi may also be 0), and each error message begins with the name
    of the offending field. The kernels are written for that box alone.
    Derived quantities (wavelength, free-space gain constant) are pure
    functions of the fields, exposed as properties so they can never drift.
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
    constrain_under_waveguide: bool = False

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        for name in _BOUNDS:
            # r_target is OutageParams' field; phi = 0 is no blockage
            if name != "r_target" and not (name == "phi" and self.phi == 0.0):
                _check_bound(name, getattr(self, name))
        if not isinstance(self.blockage_model, BlockageModel):
            raise TypeError("blockage_model must be a BlockageModel")
        if not isinstance(self.loss_case, LossCase):
            raise TypeError("loss_case must be a LossCase")

    @property
    def wavelength(self) -> float:
        """Carrier wavelength in meters."""
        return SPEED_OF_LIGHT / self.carrier_freq

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


@dataclass(frozen=True)
class OutageParams:
    """System config plus the target rate defining the outage event."""

    cfg: SystemConfig
    r_target: float

    def __post_init__(self) -> None:
        _check_bound("r_target", self.r_target)

    @property
    def epsilon(self) -> float:
        """SINR threshold 2**r_target - 1."""
        return 2.0 ** self.r_target - 1.0

    @property
    def tau1(self) -> float:
        """Maximum link distance that still meets the target rate."""
        cfg = self.cfg
        return math.sqrt(cfg.path_gain_factor * cfg.tx_power
                         / (self.epsilon * cfg.noise_power))

    @property
    def tau3(self) -> float:
        """Half-width of the in-range y interval, sqrt(tau1^2 - height^2),
        clamped to the strip [0, d_w/2]. It is 0 when tau1 <= height: no
        floor position is close enough, and the out-of-range tails tile the
        whole strip."""
        cfg = self.cfg
        s_sq = self.tau1 ** 2 - cfg.height ** 2
        return min(cfg.d_w / 2.0, math.sqrt(s_sq) if s_sq > 0 else 0.0)


def _check_budget(n_trials: int, master_seed: int, workers: int) -> None:
    """Reject a trial count, seed or worker count out of its range, by name."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if master_seed < 0:
        raise ValueError("master_seed must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")


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
    if r_target is not None:
        _check_bound("r_target", r_target)
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


def waveguide_y_offsets(cfg: SystemConfig) -> np.ndarray:
    """Center-line y coordinates of the M waveguides, as an (M,) array.

    Offsets are equally spaced by d_w / num_users and symmetric about y = 0.
    """
    return (-cfg.d_w / 2.0 + np.arange(cfg.num_users) * cfg.d_w / cfg.num_users
            + cfg.d_w / (2.0 * cfg.num_users))


def _to_uniform(u: np.ndarray, low, high) -> None:
    """Turn ``random()`` doubles into ``uniform(low, high)`` ones, in place.

    numpy's ``uniform`` computes ``low + (high - low) * u`` from one
    ``random()`` double per entry, so this is its draw bit for bit; with
    array bounds it runs about twice as fast.
    """
    u *= high - low
    u += low


def _place_users(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                 beta: np.ndarray) -> None:
    """Turn (n, M) ``random()`` doubles into user coordinates, in place.

    User m gets x ~ U(-d_l/2, d_l/2) and y uniform in its strip, each
    ``rng.uniform``'s draw bit for bit from the same doubles. With
    ``constrain_under_waveguide``, y is pinned to the waveguide center line
    and its doubles are not read. ``beta`` is ``waveguide_y_offsets(cfg)``,
    which callers also need for the distances and so compute once.
    """
    _to_uniform(x, -cfg.d_l / 2.0, cfg.d_l / 2.0)
    if cfg.constrain_under_waveguide:
        y[...] = beta
    else:
        half = cfg.strip_width / 2.0
        _to_uniform(y, beta - half, beta + half)
