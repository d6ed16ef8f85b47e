"""Closed-form and quadrature evaluation of outage and ergodic-rate formulas.

The single-user outage study splits the outage event into "link blocked" and
"link clear but too long": a rate target translates into a distance threshold
tau1 = sqrt(gain * P / (eps * sigma^2)), whose in-range y interval
[-tau3, tau3] the strip geometry clamps to [-d_w/2, d_w/2]. Under the
distance-squared blockage law (MODEL_B) everything reduces to error
functions; under MODEL_A the strip integral has no elementary antiderivative
and is evaluated by adaptive composite Gauss-Legendre quadrature in numpy
(``_integrate``), after the substitution y = height * sinh(t) that makes its
integrand entire.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import erf

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import conv_distances_sq, power_gains
from .scenario import BlockageModel, SystemConfig, waveguide_y_offsets
from .transceiver import design2_rates_from_power

SQRT_PI = math.sqrt(math.pi)

# Adaptive quadrature: every panel is integrated with an _ORDER-node and a
# 2*_ORDER-node Gauss-Legendre rule. A panel is accepted, with the finer
# value, once the two agree to _RTOL of its own value or of the whole
# integral's share of its width, whichever is larger, so the accepted
# panels' disagreements sum to at most 2 * _RTOL of the integral of |f|;
# otherwise it is bisected. One integral evaluates at most _MAX_PANELS
# panels.
_ORDER = 16
_RTOL = 1e-13
_MAX_PANELS = 512
# Growth of the exponent phi * distance past which the MODEL_A integrand is
# dropped: there it has fallen below 41 * exp(-40) < 2e-16 of its value at
# the interval's start (or at its peak), and it decays faster from there.
_DECAY = 40.0


@functools.cache
def _gl_rules(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the n- and 2n-node Gauss-Legendre rules mapped to [0, 1],
    concatenated, and the (2, 3n) matrix that weights the values at those
    nodes into the 2n-node integral and its excess over the n-node one."""
    x1, w1 = leggauss(n)
    x2, w2 = leggauss(2 * n)
    nodes = np.concatenate([x1, x2]) / 2.0 + 0.5
    weights = np.zeros((2, 3 * n))
    weights[:, n:] = w2 / 2.0
    weights[1, :n] = -w1 / 2.0
    return nodes, weights


def _out_of_panels(where: str) -> ArithmeticError:
    return ArithmeticError(f"{where}: quadrature did not converge within "
                           f"{_MAX_PANELS} panels")


def _integrate(f, where: str):
    """Integral of ``f`` over [0, 1] by adaptive Gauss-Legendre.

    ``f`` maps a 1-D array of points to their values along the first axis;
    any trailing axes hold independent integrands that share the panels
    (a panel is accepted when all of them agree). The result has the
    trailing shape: a numpy float64 or a 0-d array for a scalar integrand.
    All open panels are evaluated together, one ``f`` call per round of
    bisection. Raises ArithmeticError, naming ``where``, when the panel
    budget runs out.
    """
    nodes, weights = _gl_rules(_ORDER)
    if _MAX_PANELS < 1:
        raise _out_of_panels(where)
    # Most integrands here are resolved by the first panel, so that round
    # skips the general loop's bookkeeping; a scalar integrand's check runs
    # on Python floats, which round as numpy does.
    vals = f(nodes)
    est = weights @ vals.reshape(nodes.size, -1)
    if vals.ndim == 1:
        (fine,), (excess,) = est.tolist()
        if abs(excess) <= _RTOL * abs(fine):
            return np.float64(fine)
    elif (np.abs(est[1]) <= _RTOL * np.abs(est[0])).all():
        return est[0].reshape(vals.shape[1:])

    lo = np.array([0.0, 0.5])
    width = np.array([0.5, 0.5])
    done = 0.0   # sum of the accepted panels' values
    mass = 0.0   # sum of their absolute values
    used = 1
    while True:
        used += lo.size
        if used > _MAX_PANELS:
            raise _out_of_panels(where)
        vals = f((lo[:, None] + width[:, None] * nodes).ravel())
        # (panel, [2n-node value, its excess over the n-node one], integrand)
        est = weights @ vals.reshape(lo.size, nodes.size, -1)
        est *= width[:, None, None]
        fine = est[:, 0]
        abs_fine = np.abs(fine)
        share = width[:, None] * (mass + abs_fine.sum(axis=0))
        tol = _RTOL * np.maximum(abs_fine, share)
        ok = (np.abs(est[:, 1]) <= tol).all(axis=1)
        if ok.all():
            return (done + fine.sum(axis=0)).reshape(vals.shape[1:])
        done = done + fine[ok].sum(axis=0)
        mass = mass + abs_fine[ok].sum(axis=0)
        lo, half = lo[~ok], width[~ok] / 2.0
        lo = np.concatenate([lo, lo + half])
        width = np.concatenate([half, half])


def _t_interval(phi: float, height: float, lo: float,
                hi: float) -> tuple[float, float, float]:
    """Start and length of the t interval that y = height * sinh(t) maps
    onto [lo, hi], with 0 <= lo <= hi and hi > 0, and the integrand
    exp(-phi * sqrt(lo^2 + height^2)) at its start.

    The interval ends early where the exponent phi * sqrt(y^2 + height^2)
    has grown by _DECAY past its value at lo (or past 1, where the MODEL_A
    integrand peaks): the rest is below float precision.
    """
    r_lo = math.hypot(lo, height)
    t0 = math.asinh(lo / height)
    # asinh(hi / height) - t0, without the cancellation when lo is near hi
    span = math.asinh((hi - lo) * (hi + lo)
                      / (hi * r_lo + lo * math.hypot(hi, height)))
    if phi > 0.0:
        top = (max(phi * r_lo, 1.0) + _DECAY) / (phi * height)
        span = min(span, math.acosh(top) - t0)
    return t0, span, math.exp(-phi * r_lo)


def _scaled_strip_integral(phi: float, height, t0, span, where: str):
    """Integral of exp(-phi * sqrt(y^2 + height^2)) over the y interval that
    y = height * sinh(t) maps from [t0, t0 + span], divided by the
    integrand's value exp(-phi * height * cosh(t0)) at its start.

    ``height``, ``t0`` and ``span`` broadcast to one shape, and all those
    integrals come from one quadrature. In t, with r = height * cosh(t),
    the scaled integrand is r * exp(-phi * (r - r(t0))), which is entire,
    so the kink near y = 0 at small heights costs no extra panels. Its
    exponent is formed from r - r(t0) = 2 height sinh(t0 + tau/2)
    sinh(tau/2), tau = t - t0, so it carries no rounding error of the
    size of phi * r, however far the strip is.
    """
    start = height * np.cosh(t0)
    half_span = np.multiply(span, 0.5)

    def integrand(u: np.ndarray) -> np.ndarray:
        half = np.multiply.outer(u, half_span)
        rise = np.sinh(t0 + half)
        rise *= np.sinh(half)
        rise *= 2.0 * height
        return span * (start + rise) * np.exp(-phi * rise)

    return _integrate(integrand, where)


def _strip_integral(cfg: SystemConfig, lo: float, hi: float,
                    where: str) -> float:
    """Integral of exp(-phi * sqrt(y^2 + height^2)) over one y interval
    [lo, hi] (0 <= lo <= hi, hi > 0), from a scalar quadrature."""
    t0, span, start = _t_interval(cfg.phi, cfg.height, lo, hi)
    return float(_scaled_strip_integral(cfg.phi, cfg.height, t0, span,
                                        where)) * start


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
        """SINR threshold 2**r_target - 1 (inf beyond the float range)."""
        try:
            return 2.0 ** self.r_target - 1.0
        except OverflowError:
            return math.inf

    @property
    def tau1(self) -> float:
        """Maximum link distance that still meets the target rate (inf
        where the SINR threshold rounds to 0)."""
        cfg = self.cfg
        floor = self.epsilon * cfg.noise_power
        if floor == 0.0:
            return math.inf
        return math.sqrt(cfg.path_gain_factor * cfg.tx_power / floor)

    @property
    def tau3(self) -> float:
        """Half-width of the in-range y interval, sqrt(tau1^2 - height^2),
        clamped to the strip [0, d_w/2]. It is 0 when tau1 <= height: no
        floor position is close enough, and the out-of-range tails tile the
        whole strip."""
        cfg = self.cfg
        s_sq = self.tau1 ** 2 - cfg.height ** 2
        return min(cfg.d_w / 2.0, math.sqrt(s_sq) if s_sq > 0 else 0.0)


def strip_los_integral(a: float, b: float, cfg: SystemConfig) -> float:
    """(1/d_w) * integral of exp(-phi * sqrt(y^2 + height^2)) over [a, b].

    This is the unblocked-probability mass of a y interval under MODEL_A.
    """
    where = "strip_los_integral"
    _check_model(cfg, BlockageModel.MODEL_A, where)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a == b:
        return 0.0
    # The integrand is even: an interval across 0 is two intervals from 0,
    # and a negative one is its mirror image.
    if a < 0.0 < b:
        mass = (_strip_integral(cfg, 0.0, -a, where)
                + _strip_integral(cfg, 0.0, b, where))
    else:
        mass = _strip_integral(cfg, *sorted((abs(a), abs(b))), where)
    return mass / cfg.d_w


def _check_model(cfg: SystemConfig, model: BlockageModel, where: str) -> None:
    if cfg.blockage_model is not model:
        raise ValueError(f"{where} requires blockage model {model.value}")


def _check_probability(value: float, where: str) -> float:
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ArithmeticError(f"{where} produced {value}, outside [0, 1]")
    return min(max(value, 0.0), 1.0)


def _pin_outage(cfg: SystemConfig, model: BlockageModel, reach: float,
                where: str) -> float:
    """1 - (2/d_w) * the unblocked mass of [0, reach] under blockage law
    ``model``: the single-user pinching outage when the users in range are
    those with |y| <= reach. 1.0 at reach = 0, with no quadrature."""
    _check_model(cfg, model, where)
    if reach == 0.0:
        return 1.0
    if model is BlockageModel.MODEL_A:
        val = 1.0 - 2.0 * _strip_integral(cfg, 0.0, reach, where) / cfg.d_w
    elif cfg.phi == 0.0:
        val = 1.0 - 2.0 * reach / cfg.d_w  # no blockage: out of range alone
    else:
        sqrt_phi = math.sqrt(cfg.phi)
        val = 1.0 - (math.exp(-cfg.phi * cfg.height ** 2)
                     * SQRT_PI / (2.0 * sqrt_phi * cfg.d_w)
                     * (2.0 * erf(sqrt_phi * reach)))
    return _check_probability(val, where)


def outage_pin_model_a(p: OutageParams) -> float:
    """Exact single-user pinching outage probability under MODEL_A.

    A user escapes outage when its link is clear and its y lies in the
    in-range interval [-tau3, tau3]. That mass is even in y, so the outage
    is 1 - (2/d_w) * the unblocked mass of [0, tau3], from one quadrature;
    at tau3 = d_w/2 it is the high-SNR floor, bit for bit, and at tau3 = 0
    it is 1.0 without one. Exact for a lossless waveguide (CASE_I); under
    CASE_II, whose loss only lowers the gains, it is a lower bound.
    """
    return _pin_outage(p.cfg, BlockageModel.MODEL_A, p.tau3,
                       "outage_pin_model_a")


def outage_pin_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_A pinching outage: pure blockage mass."""
    return _pin_outage(p.cfg, BlockageModel.MODEL_A, p.cfg.d_w / 2.0,
                       "outage_pin_model_a_highsnr")


def outage_conv_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR conventional outage under MODEL_A by 2-D quadrature.

    Averages the blockage probability of the fixed center antenna over the
    whole service area (symmetry reduces the domain to one quadrant). With
    x = height * sinh(s), the y integral at each x is the strip integral at
    height c = sqrt(x^2 + height^2) = height * cosh(s), and dx = c ds; the
    outer and inner nodes form one tensor grid per round. The factor
    exp(-phi * height) stays outside both quadratures, and the outer
    exponent uses c - height = 2 height sinh(s/2)^2.
    """
    where = "outage_conv_model_a_highsnr"
    _check_model(p.cfg, BlockageModel.MODEL_A, where)
    cfg = p.cfg
    phi, height = cfg.phi, cfg.height

    def over_x(s: np.ndarray) -> np.ndarray:
        rise = 2.0 * height * np.sinh(s / 2.0) ** 2
        c = height + rise
        # _t_interval(phi, c, 0, d_w / 2) for every c at once
        span = np.arcsinh(cfg.d_w / 2.0 / c)
        if phi > 0.0:
            span = np.minimum(span, np.arccosh(
                (np.maximum(phi * c, 1.0) + _DECAY) / (phi * c)))
        inner = _scaled_strip_integral(phi, c, 0.0, span, where)
        return c * np.exp(-phi * rise) * inner

    s_max = math.asinh(cfg.d_l / (2.0 * height))
    mass = (math.exp(-phi * height) * s_max
            * float(_integrate(lambda u: over_x(s_max * u), where)))
    val = 1.0 - 4.0 * mass / (cfg.d_w * cfg.d_l)
    return _check_probability(val, where)


def outage_pin_model_b(p: OutageParams) -> float:
    """Exact single-user pinching outage under MODEL_B, in closed form.

    The strip integral of exp(-phi y^2) becomes an error function, so no
    high-SNR approximation is needed; at tau3 = d_w/2 it is the floor, bit
    for bit. Exact for a lossless waveguide (CASE_I); under CASE_II, whose
    loss only lowers the gains, it is a lower bound.
    """
    return _pin_outage(p.cfg, BlockageModel.MODEL_B, p.tau3,
                       "outage_pin_model_b")


def outage_pin_model_b_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_B pinching outage."""
    return _pin_outage(p.cfg, BlockageModel.MODEL_B, p.cfg.d_w / 2.0,
                       "outage_pin_model_b_highsnr")


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
    if not 0 < d_l < math.inf:
        raise ValueError("d_l must be finite and > 0")
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


def ergodic_conv_highsnr(cfg: SystemConfig) -> list[float]:
    """High-SNR limit of the conventional rates, E[log2(1 + S/I)]: each
    user's bound, then their sum. Blockage drops out, as a user's elements
    share its indicator. User m's bound integrates x, and y over strip m
    unless ``constrain_under_waveguide``, of the estimators' own channel and
    SINR at unit power and no noise.
    """
    if cfg.num_users < 2:
        raise ValueError("the conventional rate bound needs num_users >= 2")
    where, m = "ergodic_conv_highsnr", cfg.num_users
    beta = waveguide_y_offsets(cfg)

    def rates(u: np.ndarray, y: np.ndarray) -> np.ndarray:
        # every user at x = d_l (u - 1/2) and at its own y along the last
        # axis; 2^16 links at a time, so memory does not grow as M^2
        x, y = np.broadcast_arrays(cfg.d_l * (u[..., None] - 0.5), y)
        xs, ys = x.reshape(-1, m), y.reshape(-1, m)
        out = np.empty(xs.shape)
        step = max(1, (1 << 16) // (m * m))
        for lo in range(0, len(out), step):
            rows = slice(lo, lo + step)
            s = power_gains(cfg, conv_distances_sq(cfg, xs[rows], ys[rows]))
            out[rows] = design2_rates_from_power(s, 1.0, 0.0, m)
        return out.reshape(x.shape)

    if cfg.constrain_under_waveguide:
        bounds = _integrate(lambda u: rates(u, beta), where).tolist()
    else:
        bounds = _integrate(lambda u: _integrate(lambda v: rates(
            u, beta + cfg.strip_width * (v[:, None, None] - 0.5)), where),
            where).tolist()
    return bounds + [math.fsum(bounds)]
