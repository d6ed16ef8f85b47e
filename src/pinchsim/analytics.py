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

``counterparts`` is the one table of which analytic stands beside each
simulated row, and whether it is exact, a lower bound or an approximation.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from math import erf

import numpy as np
from numpy.polynomial.legendre import leggauss

from .scenario import (
    BlockageModel,
    LossCase,
    MetricKind,
    Scheme,
    SystemConfig,
    waveguide_y_offsets,
)
from .transceiver import conv_rates

SQRT_PI = math.sqrt(math.pi)

# The blockage laws as module names: an Enum member lookup costs several
# times a global one, on every pinching outage.
_MODEL_A = BlockageModel.MODEL_A
_MODEL_B = BlockageModel.MODEL_B

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
# y = 0 (or at its peak), and it decays faster from there.
_DECAY = 40.0
# Half-width of the window in s about the peak of the conventional
# outage's edge integrand, which falls like e^-|s - s*| on either side:
# past it, each tail is below 21 * exp(-_WINDOW) < 5e-18 of the edge's
# integral.
_WINDOW = _DECAY + 3.0
# Below v = _Q_SMALL, q(v) = (1 - (1 + v) e^-v) / v^2 loses digits to
# cancellation in closed form and comes from its Taylor series,
# sum_k (-v)^k / (k! (k + 2)); nine terms reach double precision there.
_Q_SMALL = 0.05
_Q_SERIES = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(9))
_LOG2 = math.log(2.0)
_NORMAL = sys.float_info.min  # the smallest positive normal float


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


def _scaled_strip_integral(phi: float, height, span, where: str):
    """Integral of exp(-phi * sqrt(y^2 + height^2)) over the y interval
    [0, height * sinh(span)], divided by the integrand's value
    exp(-phi * height) at y = 0.

    ``height`` broadcasts against ``span``, and all those integrals come
    from one quadrature. In t, with y = height * sinh(t) and
    r = height * cosh(t), the scaled integrand is
    r * exp(-phi * (r - height)), which is entire, so the kink near y = 0 at
    small heights costs no extra panels. Its exponent is formed from
    r - height = 2 height sinh(t/2)^2, so it carries no rounding error of
    the size of phi * r.
    """
    half_span = span * 0.5

    def integrand(u: np.ndarray) -> np.ndarray:
        # span * (height + rise) * exp(-phi * rise), built in place
        rise = np.multiply.outer(u, half_span)
        np.sinh(rise, out=rise)
        rise *= rise
        rise *= 2.0 * height
        decay = -phi * rise
        np.exp(decay, out=decay)
        rise += height
        rise *= span
        rise *= decay
        return rise

    return _integrate(integrand, where)


def _strip_integral(cfg: SystemConfig, reach: float, where: str) -> float:
    """Integral of exp(-phi * sqrt(y^2 + height^2)) over [0, reach],
    reach > 0, from a scalar quadrature.

    The t interval ends early where the exponent phi * sqrt(y^2 + height^2)
    has grown by _DECAY past its value at y = 0 (or past 1, where the MODEL_A
    integrand peaks): the rest is below float precision.
    """
    phi, height = cfg.phi, cfg.height
    # asinh(reach / height), kept as the quotient reach^2 / (reach * height):
    # the plain one differs from it in the last bit for about one (reach,
    # height) pair in nine, which would move the MODEL_A outages by an ulp.
    # Where either product leaves the normal range, the plain one it is.
    square, area = reach * reach, reach * height
    if _NORMAL <= square < math.inf and _NORMAL <= area < math.inf:
        span = math.asinh(square / area)
    else:
        span = math.asinh(reach / height)
    if phi > 0.0:
        span = min(span, math.acosh(
            (max(phi * height, 1.0) + _DECAY) / (phi * height)))
    return (float(_scaled_strip_integral(phi, height, span, where))
            * math.exp(-phi * height))


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
    if model is _MODEL_A:
        val = 1.0 - 2.0 * _strip_integral(cfg, reach, where) / cfg.d_w
    elif cfg.phi == 0.0:
        val = 1.0 - 2.0 * reach / cfg.d_w  # no blockage: out of range alone
    else:
        sqrt_phi = math.sqrt(cfg.phi)
        den = 2.0 * sqrt_phi * cfg.d_w
        if den >= _NORMAL:
            val = 1.0 - (math.exp(-cfg.phi * cfg.height ** 2) * SQRT_PI / den
                         * (2.0 * erf(sqrt_phi * reach)))
        else:
            # z = sqrt(phi) reach <= den / 4 is so small that
            # erf(z) = 2 z / sqrt(pi) to double precision
            val = 1.0 - (math.exp(-cfg.phi * cfg.height ** 2)
                         * (2.0 * reach / cfg.d_w))
    return _check_probability(val, where)


def outage_pin_model_a(p: OutageParams) -> float:
    """Exact single-user pinching outage probability under MODEL_A.

    A user escapes outage when its link is clear and its y lies in the
    in-range interval [-tau3, tau3]. That mass is even in y, so the outage
    is 1 - (2/d_w) * the unblocked mass of [0, tau3], from one quadrature;
    at tau3 = d_w/2 it is the high-SNR floor, bit for bit, and at tau3 = 0
    it is 1.0 without one. Which simulated rows it stands beside, and as
    what, is ``counterparts``' table (README, "Analytic counterparts").
    """
    return _pin_outage(p.cfg, _MODEL_A, p.tau3,
                       "outage_pin_model_a")


def outage_pin_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_A pinching outage: pure blockage mass."""
    return _pin_outage(p.cfg, _MODEL_A, p.cfg.d_w / 2.0,
                       "outage_pin_model_a_highsnr")


def _conv_edge(phi: float, height: float, c: float, other: float) -> tuple:
    """One far edge of the conventional quadrant, at distance c from the
    antenna and ``other`` long, for ``outage_conv_model_a_highsnr``:
    (width, foot_ray, foot_weight, grow_ray, grow_weight).

    The edge is integrated over s = lo + width * u, u in [0, 1]. There the
    ray is R = foot_ray cosh(s - lo) + grow_ray e^(s - lo) = c cosh(s), and
    width * R / other is the same with the weights.

    The integrand peaks near the ray length R* = sqrt(2 height / phi +
    1 / phi^2) at which v = 1, and falls like e^-|s - s*| on both sides,
    so the window ends _WINDOW past s* (or past the foot, s = 0, where
    R* <= c), or at the corner. It starts at the foot unless both the
    corner and s* lie past s = 2 _WINDOW: there it starts _WINDOW before
    s*, at lo, where cosh(s) = e^s / 2 to double precision, and the rays
    are grow_ray e^(s - lo), as e^s could overflow. They are scaled from
    the ray at the window's end, so that one ending at the corner ends on
    its exact length.
    """
    x = other / c
    if x <= 1.0:
        # span / x -> 1 as x -> 0, also where x underflows
        span = math.asinh(x)
        return span, c, span / x if x > 0.0 else 1.0, 0.0, 0.0
    log_x = math.log(other) - math.log(c)
    span = math.asinh(x) if x < math.inf else _LOG2 + log_x
    # log R* to within log(2) / 2 below it; s* lies within
    # [log(R* / c), log(2 R* / c)] when R* > c
    log_peak = 0.5 * (_LOG2 + max(math.log(2.0 * height) - math.log(phi),
                                  -2.0 * math.log(phi))) - math.log(c)
    lo = min(span, log_peak - 0.5 * _LOG2) - _WINDOW
    if lo < _WINDOW:
        lo = 0.0
    hi = min(span, max(log_peak + _LOG2, 0.0) + _WINDOW)
    width = hi - lo
    if lo == 0.0:
        return width, c, width / x, 0.0, 0.0
    # the ray at hi, the corner's own where the window ends there
    end = (math.hypot(c, other) if hi == span
           else math.exp(math.log(c) + hi - _LOG2))
    shrink = math.exp(-width)
    return width, 0.0, 0.0, end * shrink, width * (end / other) * shrink


def outage_conv_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR conventional outage under MODEL_A, by one 1-D quadrature.

    Averages the blockage probability of the fixed center antenna over the
    whole service area; by symmetry, over one quadrant, in polar
    coordinates about the antenna. Along a ray of length R the mass
    int_0^R exp(-phi sqrt(r^2 + height^2)) r dr is elementary: with
    U = hypot(R, height), L = U - height = R^2 / (U + height) and
    v = phi L, it is exp(-phi height) L (height e1(v) + L q(v)), where
    e1(v) = (1 - e^-v) / v and q(v) = (1 - (1 + v) e^-v) / v^2. Divided by
    R^2 exp(-phi height), that is
    m(R) = (height e^-v + (1 + phi height) L q(v)) / (U + height) <= 1/2.

    Each of the quadrant's two far edges, at distance c from the antenna
    and o long, is parametrised as c sinh(s): the ray to that point has
    length R = c cosh(s) and subtends d(angle) = ds / cosh(s), so the
    edge's share of the quadrant's mass, divided by its area c o, is the
    integral of (R / o) m(R) over s in [0, asinh(o / c)], or over the
    window of it that ``_conv_edge`` keeps. The two edges are the trailing
    integrands of one ``_integrate`` call. 0.0 at phi = 0, and 1.0 where
    exp(-phi height) underflows or the outage rounds to 1, with no
    quadrature.
    """
    where = "outage_conv_model_a_highsnr"
    _check_model(p.cfg, _MODEL_A, where)
    cfg = p.cfg
    phi, height = cfg.phi, cfg.height
    if phi == 0.0:
        return 0.0
    scale = math.exp(-phi * height)
    half_l, half_w = cfg.d_l / 2.0, cfg.d_w / 2.0
    # The unblocked share is at most the mean of exp(-phi x) along the
    # longer side, below 1 / (phi * that half-side): from 2^-54 on, the
    # outage rounds to 1. Short of that, no v overflows.
    if scale == 0.0 or phi * max(half_l, half_w) >= 2.0 ** 54:
        return 1.0
    edges = (_conv_edge(phi, height, half_l, half_w),
             _conv_edge(phi, height, half_w, half_l))
    # one row per edge, so that each coefficient broadcasts along a row
    width, foot_ray, foot_weight, grow_ray, grow_weight = np.array(
        edges).T[:, :, None]
    shifted = edges[0][3] > 0.0 or edges[1][3] > 0.0  # a window past a foot
    # v is smallest at the foot of the nearer edge
    near = min(half_l, half_w)
    foot_v = phi * near * (near / (math.hypot(near, height) + height))
    series = foot_v < _Q_SMALL
    gain = 1.0 + phi * height

    def integrand(u: np.ndarray) -> np.ndarray:
        w = width * u
        grow = np.cosh(w)
        ray = grow * foot_ray
        weight = grow * foot_weight
        if shifted:
            np.exp(w, out=grow)
            ray += grow * grow_ray
            weight += grow * grow_weight
        den = np.hypot(ray, height)
        den += height
        rise = ray / den
        rise *= ray                      # L = U - height
        neg_v = rise * -phi
        decay = np.exp(neg_v)
        v_clip = np.minimum(neg_v, -_Q_SMALL) if series else neg_v
        q = v_clip * decay
        q -= np.expm1(v_clip)
        q /= v_clip
        q /= v_clip                      # q(v) where v >= _Q_SMALL
        if series:
            small = np.maximum(neg_v, -_Q_SMALL)
            poly = np.full_like(small, _Q_SERIES[-1])
            for coef in _Q_SERIES[-2::-1]:
                poly *= small
                poly += coef
            np.copyto(q, poly, where=neg_v > -_Q_SMALL)
        q *= rise
        q *= gain
        decay *= height
        q += decay
        q /= den
        q *= weight
        return q.T

    low, high = _integrate(integrand, where).tolist()
    return _check_probability(1.0 - scale * (low + high), where)


def outage_pin_model_b(p: OutageParams) -> float:
    """Exact single-user pinching outage under MODEL_B, in closed form.

    The strip integral of exp(-phi y^2) becomes an error function, so no
    high-SNR approximation is needed; at tau3 = d_w/2 it is the floor, bit
    for bit. Which simulated rows it stands beside, and as what, is
    ``counterparts``' table (README, "Analytic counterparts").
    """
    return _pin_outage(p.cfg, _MODEL_B, p.tau3,
                       "outage_pin_model_b")


def outage_pin_model_b_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_B pinching outage."""
    return _pin_outage(p.cfg, _MODEL_B, p.cfg.d_w / 2.0,
                       "outage_pin_model_b_highsnr")


def outage_conv_model_b_highsnr(p: OutageParams) -> float:
    """High-SNR conventional outage under MODEL_B, in closed form."""
    _check_model(p.cfg, _MODEL_B, "outage_conv_model_b_highsnr")
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
    _check_model(p.cfg, _MODEL_B, "outage_gap_model_b")
    cfg = p.cfg
    if cfg.phi == 0.0:
        return 0.0
    sqrt_phi = math.sqrt(cfg.phi)
    gamma1 = (SQRT_PI * math.exp(-cfg.phi * cfg.height ** 2)
              / (sqrt_phi * cfg.d_w) * erf(sqrt_phi * cfg.d_w / 2.0))
    return gamma1 * (1.0 - SQRT_PI / (cfg.d_l * sqrt_phi)
                     * erf(sqrt_phi * cfg.d_l / 2.0))


def two_user_cross_blockage_factor(cfg: SystemConfig) -> float:
    """Bracket term of the two-user ergodic approximation.

    Half the triangular-averaged probability that the cross-waveguide link is
    blocked, with both users pinned under their waveguides:
    1/2 - E_z[exp(-phi (z^2 + tau4))] / 2 where z = x_1 - x_2 and
    tau4 = (beta_1 - beta_2)^2 + height^2. A square past the float range
    is not formed: phi times it is, and the bracket then tends to 1/2.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, _MODEL_B, "two_user_cross_blockage_factor")
    if cfg.phi == 0.0:
        return 0.0
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    phi = cfg.phi
    d_l = cfg.d_l
    try:
        decay = phi * ((beta1 - beta2) ** 2 + cfg.height ** 2)
    except OverflowError:
        decay = phi * (beta1 - beta2) * (beta1 - beta2) + phi * cfg.height ** 2
    x = phi * d_l * d_l
    if x < 0.1:
        # 1/2 - exp(-phi tau4) E / 2, E = E_z[exp(-phi z^2)], cancels here,
        # so it is (exp(-phi tau4) gap - expm1(-phi tau4)) / 2, gap = 1 - E
        # from its series in x: E[z^2k] = 2 d_l^2k / ((2k + 1)(2k + 2)).
        gap, term = 0.0, -1.0
        for k in range(1, 12):
            term *= -x / k
            gap += 2.0 * term / ((2 * k + 1) * (2 * k + 2))
        return 0.5 * (math.exp(-decay) * gap - math.expm1(-decay))
    sqrt_phi = math.sqrt(phi)
    try:
        tail = (math.exp(-decay) / (2.0 * phi * d_l ** 2)
                * (1.0 - math.exp(-phi * d_l ** 2)))
    except OverflowError:
        tail = math.exp(-decay) / (2.0 * x) * (1.0 - math.exp(-x))
    return (0.5
            - math.exp(-decay) / d_l * SQRT_PI / (2.0 * sqrt_phi)
            * erf(sqrt_phi * d_l)
            + tail)


def ergodic_pin_two_user_highsnr(cfg: SystemConfig) -> float:
    """High-SNR ergodic rate of user 1, two users pinned under waveguides.

    Keeps the dominant blockage pattern (own link clear, cross link blocked),
    where user 1 sees the interference-free rate at the minimum distance
    ``height``. Requires MODEL_B; the phi -> 0 limit is 0 because the cross
    link is then never blocked. An SNR past the float's normal range is
    taken in logs, so a pattern of probability 0 gives 0.0.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, _MODEL_B, "ergodic_pin_two_user_highsnr")
    if cfg.phi == 0.0:
        return 0.0
    noise = cfg.num_users * cfg.noise_power * cfg.height ** 2
    snr = (cfg.path_gain_factor * cfg.tx_power / noise
           if noise >= sys.float_info.min else math.inf)
    if math.isfinite(snr):
        rate_clear = math.log2(1.0 + snr)
    else:
        log_snr = (math.log2(cfg.path_gain_factor) + math.log2(cfg.tx_power)
                   - math.log2(cfg.num_users) - math.log2(cfg.noise_power)
                   - 2.0 * math.log2(cfg.height))
        rate_clear = float(np.logaddexp2(0.0, log_snr))
    return (2.0 * rate_clear * math.exp(-cfg.phi * cfg.height ** 2)
            * two_user_cross_blockage_factor(cfg))


def ergodic_conv_highsnr(cfg: SystemConfig) -> list[float]:
    """High-SNR limit of the conventional rates, E[log2(1 + S/I)]: each
    user's bound, then their sum. Blockage drops out, as a user's elements
    share its indicator. User m's bound integrates x, and y over strip m
    unless ``constrain_under_waveguide``, of the estimators' own rate
    routine, ``transceiver.conv_rates``, at unit power and no noise.
    """
    if cfg.num_users < 2:
        raise ValueError("the conventional rate bound needs num_users >= 2")
    where = "ergodic_conv_highsnr"
    beta = waveguide_y_offsets(cfg)

    def rates(u: np.ndarray, y: np.ndarray) -> np.ndarray:
        # every user at x = d_l (u - 1/2) and at its own y along the last axis
        x, y = np.broadcast_arrays(cfg.d_l * (u[..., None] - 0.5), y)
        out = np.empty(x.size)
        conv_rates(cfg, x, y, np.arange(x.size), 1.0, 0.0, out)
        return out.reshape(x.shape)

    if cfg.constrain_under_waveguide:
        bounds = _integrate(lambda u: rates(u, beta), where).tolist()
    else:
        bounds = _integrate(lambda u: _integrate(lambda v: rates(
            u, beta + cfg.strip_width * (v[:, None, None] - 0.5)), where),
            where).tolist()
    return bounds + [math.fsum(bounds)]


class Kind(Enum):
    """What an analytic counterpart is to the quantity it stands beside."""

    EXACT = "EXACT"    # the same quantity by another route
    LOWER = "LOWER"    # a lower bound on it
    APPROX = "APPROX"  # an approximation that bounds it on no known side


def _floor(analytic, p: OutageParams, memo: dict) -> float:
    """``analytic(p)`` for a high-SNR outage floor, which does not depend
    on the target rate: evaluated once per (analytic, config) in ``memo``."""
    key = (analytic, p.cfg)
    if key not in memo:
        memo[key] = analytic(p)
    return memo[key]


def counterparts(scheme: Scheme, metric: MetricKind,
                 point: SystemConfig | OutageParams, memo: dict,
                 source=None) -> Iterator[tuple[Kind, float]]:
    """The analytic counterparts of a simulated sweep point's first
    estimate, as (kind, value) pairs: the one table of them.

    ``point`` is the point's estimator input from ``montecarlo.sweep_inputs``
    and ``memo`` a dict kept for one run (see ``_floor``). The first pair
    is the one the CLI writes as the point's CLOSED_FORM row; a check of
    the simulation takes the tightest. Each value is evaluated when its
    pair is read, so a caller that takes the first evaluates only that.
    The analytics are read from ``source`` by name, this module by
    default; the CLI passes its own, where the benchmark re-binds them to
    time them.

    A high-SNR floor is a lower bound, as a finite SNR only adds outage.
    Waveguide loss (CASE_II) only lowers the pinching gains, so there an
    outage exact for a lossless waveguide is a lower bound. Every outage
    analytic spreads the user over its strip, so with users constrained
    to the waveguide's center line an outage has no counterpart. A value
    that is not finite raises ArithmeticError naming its analytic.
    """
    fns = source or sys.modules[__name__]
    if metric is MetricKind.OUTAGE:
        cfg = point.cfg
        if cfg.num_users != 1 or cfg.constrain_under_waveguide:
            return
        model_a = cfg.blockage_model is _MODEL_A
        exact = Kind.EXACT if cfg.loss_case is LossCase.CASE_I else Kind.LOWER
        if scheme is Scheme.CONV:
            yield Kind.LOWER, _floor(
                fns.outage_conv_model_a_highsnr if model_a
                else fns.outage_conv_model_b_highsnr, point, memo)
        elif model_a:
            yield Kind.LOWER, _floor(fns.outage_pin_model_a_highsnr, point,
                                     memo)
            yield exact, fns.outage_pin_model_a(point)
        else:
            yield exact, fns.outage_pin_model_b(point)
    elif (scheme is Scheme.PIN_D2 and point.num_users == 2
          and point.blockage_model is _MODEL_B
          and point.constrain_under_waveguide):
        rate = fns.ergodic_pin_two_user_highsnr(point)
        if not math.isfinite(rate):
            raise ArithmeticError(f"ergodic_pin_two_user_highsnr produced "
                                  f"{rate}")
        # The two users are mirror images, so the sum is twice user 1's rate.
        yield Kind.APPROX, (2.0 * rate if metric is MetricKind.ERGODIC_SUM
                            else rate)
