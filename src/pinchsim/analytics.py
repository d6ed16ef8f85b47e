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

from .scenario import (
    BlockageModel,
    SystemConfig,
    _check_bound,
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
# Below v = _Q_SMALL, q(v) = (1 - (1 + v) e^-v) / v^2 loses digits to
# cancellation in closed form and comes from its Taylor series,
# sum_k (-v)^k / (k! (k + 2)); nine terms reach double precision there.
_Q_SMALL = 0.05
_Q_SERIES = tuple(1.0 / (math.factorial(k) * (k + 2)) for k in range(9))


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
    span = math.asinh(reach * reach / (reach * height))
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
        val = 1.0 - (math.exp(-cfg.phi * cfg.height ** 2) * SQRT_PI
                     / (2.0 * sqrt_phi * cfg.d_w)
                     * (2.0 * erf(sqrt_phi * reach)))
    return _check_probability(val, where)


def outage_pin_model_a(p: OutageParams) -> float:
    """Exact single-user pinching outage probability under MODEL_A.

    A user escapes outage when its link is clear and its y lies in the
    in-range interval [-tau3, tau3]. That mass is even in y, so the outage
    is 1 - (2/d_w) * the unblocked mass of [0, tau3], from one quadrature;
    at tau3 = d_w/2 it is the high-SNR floor, bit for bit, and at tau3 = 0
    it is 1.0 without one.
    """
    return _pin_outage(p.cfg, _MODEL_A, p.tau3,
                       "outage_pin_model_a")


def outage_pin_model_a_highsnr(p: OutageParams) -> float:
    """High-SNR floor of the MODEL_A pinching outage: pure blockage mass."""
    return _pin_outage(p.cfg, _MODEL_A, p.cfg.d_w / 2.0,
                       "outage_pin_model_a_highsnr")


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
    integral of (R / o) m(R) over s in [0, asinh(o / c)]. The two edges
    are the trailing integrands of one ``_integrate`` call. 0.0 at
    phi = 0, and 1.0 where exp(-phi height) underflows, with no
    quadrature.
    """
    where = "outage_conv_model_a_highsnr"
    _check_model(p.cfg, _MODEL_A, where)
    cfg = p.cfg
    phi, height = cfg.phi, cfg.height
    if phi == 0.0:
        return 0.0
    scale = math.exp(-phi * height)
    if scale == 0.0:
        return 1.0
    half_l, half_w = cfg.d_l / 2.0, cfg.d_w / 2.0
    # An edge c from the antenna and o long spans s in [0, asinh(x)],
    # x = o / c; there its ray is c cosh(s), and R / o times the span is
    # (span / x) cosh(s). One row per edge, so that each coefficient
    # broadcasts along a row.
    edges = []
    for c, o in ((half_l, half_w), (half_w, half_l)):
        x = o / c
        span = math.asinh(x)
        edges.append((span, c, span / x))
    width, foot_ray, foot_weight = np.array(edges).T[:, :, None]
    # v is smallest at the foot of the nearer edge
    near = min(half_l, half_w)
    foot_v = phi * near * (near / (math.hypot(near, height) + height))
    series = foot_v < _Q_SMALL
    gain = 1.0 + phi * height

    def integrand(u: np.ndarray) -> np.ndarray:
        grow = np.cosh(width * u)
        ray = grow * foot_ray
        weight = grow * foot_weight
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
    for bit.
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
    tau4 = (beta_1 - beta_2)^2 + height^2.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, _MODEL_B, "two_user_cross_blockage_factor")
    if cfg.phi == 0.0:
        return 0.0
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    phi = cfg.phi
    d_l = cfg.d_l
    decay = phi * ((beta1 - beta2) ** 2 + cfg.height ** 2)
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
    tail = (math.exp(-decay) / (2.0 * phi * d_l ** 2)
            * (1.0 - math.exp(-phi * d_l ** 2)))
    return (0.5
            - math.exp(-decay) / d_l * SQRT_PI / (2.0 * sqrt_phi)
            * erf(sqrt_phi * d_l)
            + tail)


def ergodic_pin_two_user_highsnr(cfg: SystemConfig) -> float:
    """High-SNR ergodic rate of user 1, two users pinned under waveguides.

    Keeps the dominant blockage pattern (own link clear, cross link blocked),
    where user 1 sees the interference-free rate at the minimum distance
    ``height``. Requires MODEL_B; the phi -> 0 limit is 0 because the cross
    link is then never blocked.
    """
    if cfg.num_users != 2:
        raise ValueError("the two-user analysis requires num_users == 2")
    _check_model(cfg, _MODEL_B, "ergodic_pin_two_user_highsnr")
    if cfg.phi == 0.0:
        return 0.0
    noise = cfg.num_users * cfg.noise_power * cfg.height ** 2
    rate_clear = math.log2(1.0 + cfg.path_gain_factor * cfg.tx_power / noise)
    return (2.0 * rate_clear * math.exp(-cfg.phi * cfg.height ** 2)
            * two_user_cross_blockage_factor(cfg))


def ergodic_conv_highsnr(cfg: SystemConfig) -> list[float]:
    """High-SNR limit of the conventional rates, E[log2(1 + S/I)]: each
    user's bound, then their sum. Blockage drops out, as a user's elements
    share its indicator. User m's bound integrates x, and y over strip m
    unless ``constrain_under_waveguide``, of the estimators' own rate
    routine, ``transceiver.conv_rates``, at unit power and no noise. That
    peaks under the elements, at x within (M - 1) lambda / 4 of the center
    and y = 0, about sqrt(y^2 + height^2) wide, so x runs as +-height *
    sinh(t) and y as height * sinh(t) (see ``_scaled_strip_integral``).
    """
    if cfg.num_users < 2:
        raise ValueError("the conventional rate bound needs num_users >= 2")
    where = "ergodic_conv_highsnr"
    height, beta = cfg.height, waveguide_y_offsets(cfg)

    def sinh_map(lo, hi, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # points height * sinh(t) of [lo, hi], t linear in u; mean weights
        t_lo = np.arcsinh(lo / height)
        t_span = np.arcsinh(hi / height) - t_lo
        t = t_lo + t_span * u
        return height * np.sinh(t), height * t_span / (hi - lo) * np.cosh(t)

    def rates(u: np.ndarray, y: np.ndarray, y_weight=1.0) -> np.ndarray:
        # mean of the users at +x and -x, x = sinh_map(0, d_l / 2, u), at y
        x, x_weight = sinh_map(0.0, cfg.d_l / 2.0, u[:, None])
        x, y = np.broadcast_arrays(x, y)
        out = np.empty((2, x.size))
        for sign, row in zip((x, -x), out):
            conv_rates(cfg, sign, y, np.arange(x.size), 1.0, 0.0, row)
        return (out[0] + out[1]).reshape(x.shape) * x_weight * y_weight / 2

    if cfg.constrain_under_waveguide:
        bounds = _integrate(lambda u: rates(u, beta), where).tolist()
    else:
        half = cfg.strip_width / 2.0
        bounds = _integrate(lambda u: _integrate(lambda v: rates(
            u, *sinh_map(beta - half, beta + half, v[:, None, None])), where),
            where).tolist()
    return bounds + [math.fsum(bounds)]
