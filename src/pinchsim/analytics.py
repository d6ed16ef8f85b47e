"""Closed-form and quadrature evaluation of outage and ergodic-rate formulas.

The single-user outage study splits the outage event into "link blocked" and
"link clear but too long": a rate target translates into a distance threshold
tau1 = sqrt(gain * P / (eps * sigma^2)), which the strip geometry clamps to
[tau2, tau3]. Under the distance-squared blockage law (MODEL_B) everything
reduces to error functions; under MODEL_A the strip integral has no
elementary antiderivative and is evaluated by adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import erf

import numpy as np
from scipy.integrate import quad

from .scenario import BlockageModel, SystemConfig, waveguide_y_offsets

SQRT_PI = math.sqrt(math.pi)

# Quadrature tolerances: integrands here are smooth, so these are easily met.
_EPSABS = 1e-13
_EPSREL = 1e-11


@dataclass(frozen=True)
class OutageParams:
    """System config plus the target rate defining the outage event."""

    cfg: SystemConfig
    r_target: float

    def __post_init__(self) -> None:
        if not self.r_target > 0:
            raise ValueError("r_target must be > 0")

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


@dataclass(frozen=True)
class ThresholdGeometry:
    """Strip-clamped distance thresholds for the single-user outage integral.

    ``s`` is the half-width of the in-range y interval; ``tau2``/``tau3`` are
    its clamps to the strip [-d_w/2, d_w/2], with tau2 = -tau3 by symmetry.
    """

    s: float
    tau2: float
    tau3: float


def threshold_geometry(p: OutageParams) -> ThresholdGeometry:
    """Clamp the distance threshold into the service strip.

    When tau1 <= height no floor position is close enough, s collapses to 0
    and the two out-of-range integrals tile the whole strip (certain outage
    of the distance test).
    """
    cfg = p.cfg
    s_sq = p.tau1 ** 2 - cfg.height ** 2
    s = math.sqrt(s_sq) if s_sq > 0 else 0.0
    tau2 = max(-cfg.d_w / 2.0, -s)
    tau3 = min(cfg.d_w / 2.0, s)
    return ThresholdGeometry(s=s, tau2=tau2, tau3=tau3)


def strip_los_integral(a: float, b: float, cfg: SystemConfig) -> float:
    """(1/d_w) * integral of exp(-phi * sqrt(y^2 + height^2)) over [a, b].

    This is the unblocked-probability mass of a y interval under MODEL_A.
    """
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    phi = cfg.phi
    d = cfg.height
    val, _ = quad(lambda y: math.exp(-phi * math.sqrt(y * y + d * d)),
                  a, b, epsabs=_EPSABS, epsrel=_EPSREL, limit=200)
    return val / cfg.d_w


def _check_model(cfg: SystemConfig, model: BlockageModel, where: str) -> None:
    if cfg.blockage_model is not model:
        raise ValueError(f"{where} requires blockage model {model.value}")


def _check_probability(value: float, where: str) -> float:
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ArithmeticError(f"{where} produced {value}, outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def outage_pin_model_a(p: OutageParams) -> float:
    """Exact single-user pinching outage probability under MODEL_A.

    Sum of the blockage mass over the strip and the unblocked mass of the
    out-of-range tails beyond the distance threshold.
    """
    _check_model(p.cfg, BlockageModel.MODEL_A, "outage_pin_model_a")
    cfg = p.cfg
    t = threshold_geometry(p)
    half = cfg.d_w / 2.0
    val = (1.0 - strip_los_integral(-half, half, cfg)
           + strip_los_integral(-half, t.tau2, cfg)
           + strip_los_integral(t.tau3, half, cfg))
    return _check_probability(val, "outage_pin_model_a")


def outage_pin_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_A pinching outage: pure blockage mass."""
    _check_model(p.cfg, BlockageModel.MODEL_A, "outage_pin_model_a_highsnr")
    cfg = p.cfg
    half = cfg.d_w / 2.0
    val = 1.0 - strip_los_integral(-half, half, cfg)
    return _check_probability(val, "outage_pin_model_a_highsnr")


def outage_conv_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR conventional outage under MODEL_A by 2-D quadrature.

    Averages the blockage probability of the fixed center antenna over the
    whole service area (symmetry reduces the domain to one quadrant).
    """
    _check_model(p.cfg, BlockageModel.MODEL_A, "outage_conv_model_a_highsnr")
    cfg = p.cfg
    phi = cfg.phi
    d2 = cfg.height ** 2

    def inner(x: float) -> float:
        val, _ = quad(lambda y: math.exp(-phi * math.sqrt(x * x + y * y + d2)),
                      0.0, cfg.d_w / 2.0, epsabs=_EPSABS, epsrel=_EPSREL, limit=200)
        return val

    outer, _ = quad(inner, 0.0, cfg.d_l / 2.0,
                    epsabs=_EPSABS, epsrel=1e-9, limit=200)
    val = 1.0 - 4.0 * outer / (cfg.d_w * cfg.d_l)
    return _check_probability(val, "outage_conv_model_a_highsnr")


def outage_pin_model_b(p: OutageParams) -> float:
    """Exact single-user pinching outage under MODEL_B, in closed form.

    The strip integral of exp(-phi y^2) becomes an error function, so no
    high-SNR approximation is needed.
    """
    _check_model(p.cfg, BlockageModel.MODEL_B, "outage_pin_model_b")
    cfg = p.cfg
    t = threshold_geometry(p)
    if cfg.phi == 0.0:
        # No blockage: outage is the out-of-range probability alone.
        val = 1.0 - (t.tau3 - t.tau2) / cfg.d_w
        return _check_probability(val, "outage_pin_model_b")
    sqrt_phi = math.sqrt(cfg.phi)
    val = 1.0 - (math.exp(-cfg.phi * cfg.height ** 2)
                 * SQRT_PI / (2.0 * sqrt_phi * cfg.d_w)
                 * (erf(-sqrt_phi * t.tau2) + erf(sqrt_phi * t.tau3)))
    return _check_probability(val, "outage_pin_model_b")


def outage_pin_model_b_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_B pinching outage."""
    _check_model(p.cfg, BlockageModel.MODEL_B, "outage_pin_model_b_highsnr")
    cfg = p.cfg
    if cfg.phi == 0.0:
        return 0.0
    sqrt_phi = math.sqrt(cfg.phi)
    val = 1.0 - (SQRT_PI * math.exp(-cfg.phi * cfg.height ** 2)
                 / (sqrt_phi * cfg.d_w) * erf(sqrt_phi * cfg.d_w / 2.0))
    return _check_probability(val, "outage_pin_model_b_highsnr")


def outage_conv_model_b_highsnr(p: OutageParams) -> float:
    """High-SNR conventional outage under MODEL_B, in closed form."""
    _check_model(p.cfg, BlockageModel.MODEL_B, "outage_conv_model_b_highsnr")
    cfg = p.cfg
    if cfg.phi == 0.0:
        return 0.0
    sqrt_phi = math.sqrt(cfg.phi)
    val = 1.0 - (math.pi * math.exp(-cfg.phi * cfg.height ** 2)
                 / (cfg.d_w * cfg.d_l * cfg.phi)
                 * erf(sqrt_phi * cfg.d_l / 2.0)
                 * erf(sqrt_phi * cfg.d_w / 2.0))
    return _check_probability(val, "outage_conv_model_b_highsnr")


def outage_gap_model_b(p: OutageParams) -> float:
    """Conventional-minus-pinching high-SNR outage gap under MODEL_B.

    Equals outage_conv_model_b_highsnr - outage_pin_model_b_highsnr exactly;
    the factored form makes its positivity and growth with d_l explicit.
    """
    _check_model(p.cfg, BlockageModel.MODEL_B, "outage_gap_model_b")
    cfg = p.cfg
    if cfg.phi == 0.0:
        return 0.0
    sqrt_phi = math.sqrt(cfg.phi)
    gamma1 = (SQRT_PI * math.exp(-cfg.phi * cfg.height ** 2)
              / (sqrt_phi * cfg.d_w) * erf(sqrt_phi * cfg.d_w / 2.0))
    return gamma1 * (1.0 - SQRT_PI / (cfg.d_l * sqrt_phi)
                     * erf(sqrt_phi * cfg.d_l / 2.0))


def triangular_pdf(z, d_l: float):
    """Density of the difference of two independent U(-d_l/2, d_l/2) draws.

    (d_l - |z|) / d_l^2 on [-d_l, d_l], zero outside. Accepts arrays.
    """
    if not d_l > 0:
        raise ValueError("d_l must be > 0")
    zz = np.asarray(z, dtype=float)
    out = np.where(np.abs(zz) <= d_l, (d_l - np.abs(zz)) / d_l ** 2, 0.0)
    return float(out) if out.ndim == 0 else out


def two_user_cross_blockage_factor(cfg: SystemConfig) -> float:
    """Bracket term of the two-user ergodic approximation.

    Half the triangular-averaged probability that the cross-waveguide link is
    blocked, with both users pinned under their waveguides:
    1/2 - E_z[exp(-phi (z^2 + tau4))] / 2 where z = x_1 - x_2 and
    tau4 = (beta_1 - beta_2)^2 + height^2.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, BlockageModel.MODEL_B, "two_user_cross_blockage_factor")
    if cfg.phi == 0.0:
        return 0.0
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    tau4 = (beta1 - beta2) ** 2 + cfg.height ** 2
    phi = cfg.phi
    d_l = cfg.d_l
    sqrt_phi = math.sqrt(phi)
    return (0.5
            - math.exp(-phi * tau4) / d_l * SQRT_PI / (2.0 * sqrt_phi)
            * erf(sqrt_phi * d_l)
            + math.exp(-phi * tau4) / (2.0 * phi * d_l ** 2)
            * (1.0 - math.exp(-phi * d_l ** 2)))


def ergodic_pin_two_user_highsnr(cfg: SystemConfig) -> float:
    """High-SNR ergodic rate of user 1, two users pinned under waveguides.

    Keeps the dominant blockage pattern (own link clear, cross link blocked),
    where user 1 sees the interference-free rate at the minimum distance
    ``height``. Requires MODEL_B; the phi -> 0 limit is 0 because the cross
    link is then never blocked.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, BlockageModel.MODEL_B, "ergodic_pin_two_user_highsnr")
    if cfg.phi == 0.0:
        return 0.0
    snr = (cfg.path_gain_factor * cfg.tx_power
           / (cfg.num_users * cfg.noise_power * cfg.height ** 2))
    rate_clear = math.log2(1.0 + snr)
    return (2.0 * rate_clear * math.exp(-cfg.phi * cfg.height ** 2)
            * two_user_cross_blockage_factor(cfg))
