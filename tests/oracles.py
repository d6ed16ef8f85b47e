"""Independent numerical oracles used to pin expected values in the tests.

Everything here recomputes quantities from their defining integrals, from
high-precision arithmetic, or link by link from the channel model's
definition, deliberately avoiding the closed forms and batched kernels under
test.
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
from scipy.integrate import quad

from pinchsim import (
    BlockageModel,
    LossCase,
    OutageParams,
    SystemConfig,
    threshold_geometry,
)
from pinchsim.channel import (
    conv_distances_sq,
    pin_distances_sq,
    power_gains,
    unblocked_probability_sq,
)
from pinchsim.scenario import SPEED_OF_LIGHT, waveguide_y_offsets
from pinchsim.transceiver import COND_LIMIT

_EPSABS = 1e-15
_EPSREL = 1e-11


def _mp_matrix(h) -> mpmath.matrix:
    """The exact float matrix ``h`` as an mpmath matrix."""
    return mpmath.matrix([[mpmath.mpc(complex(v).real, complex(v).imag)
                           for v in row] for row in h])


def zf_applies_highprec(h, dps: int = 60) -> bool:
    """Whether zero forcing applies to the float matrix ``h`` with no empty
    row or column: H is not singular at ``dps`` digits, and its 1-norm
    condition number ||H||_1 ||inv(H)||_1 is at most COND_LIMIT."""
    with mpmath.workdps(dps):
        mat = _mp_matrix(h)
        try:
            inv = mat ** -1
        except ZeroDivisionError:  # mpmath's LU met a zero pivot
            return False
        return mpmath.mnorm(mat, 1) * mpmath.mnorm(inv, 1) <= COND_LIMIT


def zf_gains_highprec(h, dps: int = 60) -> list[float]:
    """Zero-forcing gains 1 / (M ||col_m(inv(H))||^2) of the exact float
    matrix ``h``, inverted in ``dps``-digit mpmath arithmetic."""
    with mpmath.workdps(dps):
        mat = _mp_matrix(h)
        inv = mat ** -1
        m = mat.rows
        return [float(1 / (m * mpmath.fsum(abs(inv[i, j]) ** 2
                                           for i in range(m))))
                for j in range(m)]


def waveguide_centers(cfg: SystemConfig) -> list[float]:
    """y of each waveguide's center line: the middle of its d_w / M strip."""
    m = cfg.num_users
    return [(k + 0.5) * cfg.d_w / m - cfg.d_w / 2.0 for k in range(m)]


def los_probability(cfg: SystemConfig, r: float) -> float:
    """exp(-phi r) for MODEL_A, exp(-phi r^2) for MODEL_B."""
    if cfg.blockage_model is BlockageModel.MODEL_A:
        return math.exp(-cfg.phi * r)
    return math.exp(-cfg.phi * r * r)


def _constants(cfg: SystemConfig) -> tuple[float, float, float]:
    """Carrier wavelength, guided wavelength and 1 m power gain (lambda/4pi)^2,
    from the raw config fields."""
    lam = SPEED_OF_LIGHT / cfg.carrier_freq
    return lam, lam / cfg.n_eff, (lam / (4.0 * math.pi)) ** 2


def pin_link_distance(cfg: SystemConfig, x, y, u: int, k: int) -> float:
    """User u on the floor to the antenna on waveguide k above x[k]."""
    beta = waveguide_centers(cfg)
    return math.sqrt((x[u] - x[k]) ** 2 + (y[u] - beta[k]) ** 2
                     + cfg.height ** 2)


def pin_channel(cfg: SystemConfig, x, y, alpha) -> list[list[complex]]:
    """Pinching channel of one realization, link by link:
    h[u][k] = alpha sqrt(G) / r a(l) exp(-2 pi j (r / lambda + l / lambda_g)),
    with l = x[k] + d_l / 2 the in-waveguide run from the feed and a(l) its
    dB/m amplitude loss (1 for CASE_I)."""
    lam, lam_g, gain = _constants(cfg)
    m = cfg.num_users
    h = [[0j] * m for _ in range(m)]
    for u in range(m):
        for k in range(m):
            r = pin_link_distance(cfg, x, y, u, k)
            run = x[k] + cfg.d_l / 2.0
            amp = 1.0
            if cfg.loss_case is LossCase.CASE_II:
                amp = 10.0 ** (-cfg.waveguide_loss_db_per_m * run / 20.0)
            phase = -2.0 * math.pi * (r / lam + run / lam_g)
            h[u][k] = alpha[u][k] * math.sqrt(gain) / r * amp * cmath.exp(1j * phase)
    return h


def design2_rates(cfg: SystemConfig, h) -> list[float]:
    """Per-user Design II rates: antenna k sends user k's stream at power
    P / M, and every other active antenna interferes."""
    m = len(h)
    p_each = cfg.tx_power / m
    rates = []
    for u in range(m):
        signal = p_each * abs(h[u][u]) ** 2
        interference = sum(p_each * abs(h[u][k]) ** 2 for k in range(m) if k != u)
        rates.append(math.log2(1.0 + signal / (interference + cfg.noise_power)))
    return rates


def design1_rates(cfg: SystemConfig, h) -> list[float]:
    """Per-user Design I rates: zero forcing with the high-precision gains,
    or Design II where it does not apply: a blocked row or column, an
    exactly singular H or one above the conditioning gate."""
    m = len(h)
    empty = (any(all(h[u][k] == 0 for k in range(m)) for u in range(m))
             or any(all(h[u][k] == 0 for u in range(m)) for k in range(m)))
    if empty or not zf_applies_highprec(h):
        return design2_rates(cfg, h)
    return [math.log2(1.0 + g * cfg.tx_power / cfg.noise_power)
            for g in zf_gains_highprec(h)]


def conv_rates(cfg: SystemConfig, x, y, alpha) -> list[float]:
    """Per-user conventional rates: element k of the half-wavelength array at
    ((k - (M - 1) / 2) lambda / 2, 0, height) sends user k's stream at power
    P / M, and user u's links share its indicator alpha[u]."""
    lam, _, gain = _constants(cfg)
    m = cfg.num_users
    elem_x = [(k - (m - 1) / 2.0) * lam / 2.0 for k in range(m)]
    h = [[alpha[u] * math.sqrt(gain)
          / math.sqrt((x[u] - elem_x[k]) ** 2 + y[u] ** 2 + cfg.height ** 2)
          for k in range(m)] for u in range(m)]
    return design2_rates(cfg, h)


def conv_rates_dense(cfg: SystemConfig, x, y, alpha, tx_power, noise_power):
    """(n, M) conventional rates with every user's row evaluated, blocked or
    not: the full (n, M, M) gains, Design II's diagonal-and-row-sum SINR at
    ``tx_power`` and ``noise_power``, then the rates times the (n, M)
    indicators ``alpha``. This is the evaluation the line-of-sight-gated
    kernel must reproduce bit for bit.
    """
    s = power_gains(cfg, conv_distances_sq(cfg, x, y))
    own = np.diagonal(s, axis1=-2, axis2=-1)
    interference = np.maximum(s.sum(axis=-1) - own, 0.0)
    sinr = own * tx_power / (interference * tx_power
                             + cfg.num_users * noise_power)
    return np.log1p(sinr) / np.log(2.0) * alpha


def pin_d2_rates_dense(cfg: SystemConfig, x, y, u):
    """(n, M) pinching Design II rates with every link of every matrix
    evaluated, whatever its user's own link: the full (n, M, M) distances,
    LoS probabilities, indicators ``u < p`` on the (n, M, M) uniforms ``u``
    and blocked gains, then Design II's diagonal-and-row-sum SINR. This is
    the evaluation the own-link-gated kernel must reproduce bit for bit.
    """
    d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
    s = power_gains(cfg, d_sq, x) * (u < unblocked_probability_sq(d_sq, cfg))
    own = np.diagonal(s, axis1=-2, axis2=-1)
    interference = np.maximum(s.sum(axis=-1) - own, 0.0)
    sinr = own * cfg.tx_power / (interference * cfg.tx_power
                                 + cfg.num_users * cfg.noise_power)
    return np.log1p(sinr) / np.log(2.0)


def channel_coefficients_dense(cfg: SystemConfig, dist_sq, s_eff,
                               pinch_x=None):
    """Complex coefficients sqrt(s_eff) exp(-2 pi j cycles) of every link,
    blocked or not, as one dense expression over the whole array. This is
    the evaluation the line-of-sight-gated ``channel_coefficients`` must
    reproduce bit for bit on every clear link.
    """
    cycles = np.sqrt(dist_sq) / cfg.wavelength
    if pinch_x is not None:
        cycles = (cycles + (pinch_x + cfg.d_l / 2.0)[:, None, :]
                  / cfg.guided_wavelength)
    return np.sqrt(s_eff) * np.exp(1j * (-2.0 * np.pi * cycles))


def _quad(f, a, b, epsabs=_EPSABS, epsrel=_EPSREL):
    val, _ = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=200)
    return val


def pin_los_mass_model_a(cfg: SystemConfig, a: float, b: float) -> float:
    """(1/d_w) * int_a^b exp(-phi sqrt(y^2 + d^2)) dy."""
    phi, d = cfg.phi, cfg.height
    return _quad(lambda y: math.exp(-phi * math.sqrt(y * y + d * d)), a, b) / cfg.d_w


def pin_los_mass_model_b(cfg: SystemConfig, a: float, b: float) -> float:
    """(1/d_w) * int_a^b exp(-phi (y^2 + d^2)) dy."""
    phi, d = cfg.phi, cfg.height
    return _quad(lambda y: math.exp(-phi * (y * y + d * d)), a, b) / cfg.d_w


def strip_los_mass_mp(cfg: SystemConfig, a: float, b: float,
                      dps: int = 30) -> float:
    """int_a^b exp(-phi sqrt(y^2 + d^2)) dy, 0 <= a <= b, by mpmath's
    tanh-sinh quadrature in y itself, in ``dps``-digit arithmetic.

    The interval is cut where the integrand changes scale: at d * 2^k
    around its curvature near y = 0, and wherever the exponent
    phi * sqrt(y^2 + d^2) has grown by another 2 over its value at a, for
    the first 40.
    """
    phi, d = cfg.phi, cfg.height
    cuts = {a, b}
    r = d / 8.0
    while r < b:
        cuts.add(r)
        r *= 2.0
    if phi > 0:
        r_a = math.hypot(a, d)
        cuts.update(math.sqrt((r_a + 2.0 * j / phi) ** 2 - d * d)
                    for j in range(1, 21))
    cuts = sorted(c for c in cuts if a <= c <= b)
    with mpmath.workdps(dps):
        # mpmath's error target is absolute, so the integrand is scaled to
        # 1 at y = a and the scale put back afterwards.
        r_a = mpmath.sqrt(mpmath.mpf(a) ** 2 + mpmath.mpf(d) ** 2)
        val = mpmath.quad(
            lambda y: mpmath.exp(-phi * (mpmath.sqrt(y * y + d * d) - r_a)),
            cuts)
        return float(val * mpmath.exp(-phi * r_a))


def conv_los_mass_model_a_mp(cfg: SystemConfig, dps: int = 30) -> float:
    """Area-averaged MODEL_A unblocked probability of the center antenna,
    in ``dps``-digit arithmetic and in polar coordinates.

    Over a disc sector the radial integral is elementary:
    int_0^R exp(-phi sqrt(r^2 + d^2)) r dr = int_d^U u exp(-phi u) du with
    U = sqrt(R^2 + d^2). So one quadrant is a 1-D mpmath integral over the
    angle, split where the ray leaves the rectangle through its corner.
    The factor exp(-phi d) is kept outside the quadrature, whose error
    target is absolute.
    """
    with mpmath.workdps(dps):
        phi, d = mpmath.mpf(cfg.phi), mpmath.mpf(cfg.height)
        half_l, half_w = mpmath.mpf(cfg.d_l) / 2, mpmath.mpf(cfg.d_w) / 2

        def radial(rr):
            # exp(phi d) * int_0^rr exp(-phi sqrt(r^2 + d^2)) r dr
            u = mpmath.sqrt(rr * rr + d * d)
            if phi == 0:
                return rr * rr / 2
            return ((phi * d + 1)
                    - (phi * u + 1) * mpmath.exp(-phi * (u - d))) / phi ** 2

        corner = mpmath.atan2(half_w, half_l)
        quadrant = (mpmath.quad(lambda t: radial(half_l / mpmath.cos(t)),
                                [0, corner])
                    + mpmath.quad(lambda t: radial(half_w / mpmath.sin(t)),
                                  [corner, mpmath.pi / 2]))
        return float(quadrant * mpmath.exp(-phi * d) / (half_l * half_w))


def outage_pin_quadrature(p: OutageParams) -> float:
    """Single-user pinching outage from its three defining integrals."""
    cfg = p.cfg
    t = threshold_geometry(p)
    half = cfg.d_w / 2.0
    phi, d = cfg.phi, cfg.height
    if cfg.blockage_model is BlockageModel.MODEL_A:
        los = lambda y: math.exp(-phi * math.sqrt(y * y + d * d))  # noqa: E731
    else:
        los = lambda y: math.exp(-phi * (y * y + d * d))  # noqa: E731
    blocked = _quad(lambda y: 1.0 - los(y), -half, half) / cfg.d_w
    tails = (_quad(los, -half, t.tau2) + _quad(los, t.tau3, half)) / cfg.d_w
    return blocked + tails


def conv_los_mass(cfg: SystemConfig) -> float:
    """Area-averaged unblocked probability of the fixed center antenna."""
    phi, d = cfg.phi, cfg.height
    half_w, half_l = cfg.d_w / 2.0, cfg.d_l / 2.0
    if cfg.blockage_model is BlockageModel.MODEL_A:
        expo = lambda x, y: math.sqrt(x * x + y * y + d * d)  # noqa: E731
    else:
        expo = lambda x, y: x * x + y * y + d * d  # noqa: E731

    def inner(x):
        return _quad(lambda y: math.exp(-phi * expo(x, y)), -half_w, half_w,
                     epsabs=1e-14, epsrel=1e-11)

    outer = _quad(inner, -half_l, half_l, epsabs=1e-14, epsrel=1e-10)
    return outer / (cfg.d_w * cfg.d_l)


def outage_conv_quadrature(p: OutageParams) -> float:
    """High-SNR conventional outage from its defining 2-D integral."""
    return 1.0 - conv_los_mass(p.cfg)


def outage_gap_quadrature(p: OutageParams) -> float:
    """Conventional-minus-pinching high-SNR gap as a difference of masses.

    Avoids the 1-minus cancellation so the quadrature stays accurate even
    when both outage probabilities are close to 1.
    """
    cfg = p.cfg
    half = cfg.d_w / 2.0
    if cfg.blockage_model is BlockageModel.MODEL_A:
        pin_mass = pin_los_mass_model_a(cfg, -half, half)
    else:
        pin_mass = pin_los_mass_model_b(cfg, -half, half)
    return pin_mass - conv_los_mass(cfg)


def two_user_bracket_quadrature(cfg: SystemConfig) -> float:
    """1/2 minus the triangular-weighted cross-link LoS mass, by quadrature."""
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    tau4 = (beta1 - beta2) ** 2 + cfg.height ** 2
    phi, d_l = cfg.phi, cfg.d_l
    val = _quad(lambda z: math.exp(-phi * (z * z + tau4)) * (d_l - z) / d_l ** 2,
                0.0, d_l)
    return 0.5 - val


def two_user_ergodic_constrained(cfg: SystemConfig) -> float:
    """Exact finite-SNR ergodic rate of user 1 with both users under their
    waveguides (2-D quadrature over the two x coordinates)."""
    assert cfg.num_users == 2
    assert cfg.blockage_model is BlockageModel.MODEL_B
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    d2 = cfg.height ** 2
    g1 = d2
    phi = cfg.phi
    snr_own = cfg.path_gain_factor * cfg.tx_power / g1
    noise = cfg.num_users * cfg.noise_power
    p_own = math.exp(-phi * g1)

    def rate_given_x(x1, x2):
        g2 = (x1 - x2) ** 2 + (beta1 - beta2) ** 2 + d2
        p_cross = math.exp(-phi * g2)
        clear = math.log2(1.0 + snr_own / noise)
        both = math.log2(1.0 + snr_own
                         / (cfg.path_gain_factor * cfg.tx_power / g2 + noise))
        return p_own * ((1.0 - p_cross) * clear + p_cross * both)

    half_l = cfg.d_l / 2.0

    def inner(x2):
        return _quad(lambda x1: rate_given_x(x1, x2), -half_l, half_l,
                     epsabs=1e-12, epsrel=1e-10)

    outer = _quad(inner, -half_l, half_l, epsabs=1e-11, epsrel=1e-9)
    return outer / cfg.d_l ** 2


def two_user_ergodic_unconstrained(cfg: SystemConfig) -> float:
    """Exact finite-SNR ergodic rate of user 1 for two users dropped
    uniformly in their strips (triple quadrature over y1, x1, x2)."""
    assert cfg.num_users == 2
    assert cfg.blockage_model is BlockageModel.MODEL_B
    beta1, beta2 = waveguide_y_offsets(cfg).tolist()
    d2 = cfg.height ** 2
    phi = cfg.phi
    eta_p = cfg.path_gain_factor * cfg.tx_power
    noise = cfg.num_users * cfg.noise_power
    half_l = cfg.d_l / 2.0
    half_strip = cfg.strip_width / 2.0

    def rate_given(y1, x1, x2):
        g1 = (y1 - beta1) ** 2 + d2
        g2 = (x1 - x2) ** 2 + (y1 - beta2) ** 2 + d2
        p_own = math.exp(-phi * g1)
        p_cross = math.exp(-phi * g2)
        clear = math.log2(1.0 + eta_p / g1 / noise)
        both = math.log2(1.0 + (eta_p / g1) / (eta_p / g2 + noise))
        return p_own * ((1.0 - p_cross) * clear + p_cross * both)

    def over_y1(x1, x2):
        # user 1's y is uniform over its strip, density 1 / strip_width
        val = _quad(lambda y1: rate_given(y1, x1, x2),
                    beta1 - half_strip, beta1 + half_strip,
                    epsabs=1e-9, epsrel=1e-8)
        return val / cfg.strip_width

    def over_x1(x2):
        return _quad(lambda x1: over_y1(x1, x2), -half_l, half_l,
                     epsabs=1e-8, epsrel=1e-7)

    outer = _quad(over_x1, -half_l, half_l, epsabs=1e-7, epsrel=1e-6)
    return outer / cfg.d_l ** 2


def single_user_pin_ergodic_no_blockage(cfg: SystemConfig) -> float:
    """E[log2(1 + eta P / (sigma^2 (y^2 + d^2)))], the lossless single-user
    pinching ergodic rate when phi = 0."""
    assert cfg.num_users == 1
    snr0 = cfg.path_gain_factor * cfg.tx_power / cfg.noise_power
    d2 = cfg.height ** 2
    half = cfg.d_w / 2.0
    val = _quad(lambda y: math.log2(1.0 + snr0 / (y * y + d2)), -half, half)
    return val / cfg.d_w
