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
from scipy.integrate import dblquad, quad

from pinchsim import (
    BlockageModel,
    LossCase,
    OutageParams,
    SystemConfig,
)
from pinchsim.channel import (
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
        # mpmath's LU met a zero pivot, or, as a TypeError, a column with
        # no nonzero entry left to pivot on: H is singular either way
        except (ZeroDivisionError, TypeError):
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


def zf_gains_of_placement_mp(cfg: SystemConfig, x, y,
                             dps: int = 50) -> list[float]:
    """Zero-forcing gains of one placement's all-clear lossless pinching
    channel h[u][k] = sqrt(G) / r exp(-2 pi j r / lambda), the antenna of
    waveguide k above x[k], with every step from the float coordinates on
    (distances, phases, inverse) in ``dps``-digit mpmath arithmetic."""
    m = cfg.num_users
    beta = waveguide_y_offsets(cfg).tolist()
    with mpmath.workdps(dps):
        lam = mpmath.mpf(SPEED_OF_LIGHT) / mpmath.mpf(cfg.carrier_freq)
        amp = lam / (4 * mpmath.pi)
        h = mpmath.matrix(m, m)
        for u in range(m):
            for k in range(m):
                r = mpmath.sqrt((mpmath.mpf(x[u]) - x[k]) ** 2
                                + (mpmath.mpf(y[u]) - beta[k]) ** 2
                                + mpmath.mpf(cfg.height) ** 2)
                h[u, k] = amp / r * mpmath.expjpi(-2 * r / lam)
        inv = h ** -1
        return [float(1 / (m * mpmath.fsum(abs(inv[i, j]) ** 2
                                           for i in range(m))))
                for j in range(m)]


def waveguide_centers(cfg: SystemConfig) -> list[float]:
    """y of each waveguide's center line: the middle of its d_w / M strip."""
    m = cfg.num_users
    return [(k + 0.5) * cfg.d_w / m - cfg.d_w / 2.0 for k in range(m)]


def placement(cfg: SystemConfig, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n user drops as ``rng.uniform`` draws, in a chunk's order: (n, M) x,
    then (n, M) y uniform in each user's strip. Users constrained under
    their waveguides draw no y and sit on the center lines."""
    m = cfg.num_users
    beta = waveguide_y_offsets(cfg)
    x = rng.uniform(-cfg.d_l / 2.0, cfg.d_l / 2.0, (n, m))
    if cfg.constrain_under_waveguide:
        return x, np.tile(beta, (n, 1))
    half = cfg.strip_width / 2.0
    return x, rng.uniform(beta - half, beta + half, (n, m))


def los_probability(cfg: SystemConfig, r: float) -> float:
    """exp(-phi r) for MODEL_A, exp(-phi r^2) for MODEL_B."""
    if cfg.blockage_model is BlockageModel.MODEL_A:
        return math.exp(-cfg.phi * r)
    return math.exp(-cfg.phi * r * r)


def _constants(cfg: SystemConfig) -> tuple[float, float]:
    """Carrier wavelength and 1 m power gain (lambda/4pi)^2, from the raw
    config fields."""
    lam = SPEED_OF_LIGHT / cfg.carrier_freq
    return lam, (lam / (4.0 * math.pi)) ** 2


def pin_link_distance(cfg: SystemConfig, x, y, u: int, k: int) -> float:
    """User u on the floor to the antenna on waveguide k above x[k]."""
    beta = waveguide_centers(cfg)
    return math.sqrt((x[u] - x[k]) ** 2 + (y[u] - beta[k]) ** 2
                     + cfg.height ** 2)


def guided_phase(cfg: SystemConfig, x, k: int, n_eff: float) -> complex:
    """The in-waveguide phase exp(-2 pi j l / lambda_g) of antenna k, with
    l = x[k] + d_l / 2 its run from the feed and lambda_g = lambda / n_eff
    the guided wavelength."""
    lam, _ = _constants(cfg)
    run = x[k] + cfg.d_l / 2.0
    return cmath.exp(-2j * math.pi * run / (lam / n_eff))


def pin_channel(cfg: SystemConfig, x, y, alpha,
                n_eff: float = 1.4) -> list[list[complex]]:
    """Pinching channel of one realization, link by link, as the paper
    writes it: h[u][k] = alpha sqrt(G) / r a(l)
    exp(-2 pi j (r / lambda + l / lambda_g)), with l = x[k] + d_l / 2 the
    in-waveguide run from the feed, a(l) its dB/m amplitude loss (1 for
    CASE_I) and lambda_g = lambda / n_eff the guided wavelength. The model
    under test leaves out the guided phase, one unit factor per column
    (see ``guided_phase``), which no rate sees."""
    lam, gain = _constants(cfg)
    lam_g = lam / n_eff
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
    lam, gain = _constants(cfg)
    m = cfg.num_users
    elem_x = [(k - (m - 1) / 2.0) * lam / 2.0 for k in range(m)]
    h = [[alpha[u] * math.sqrt(gain)
          / math.sqrt((x[u] - elem_x[k]) ** 2 + y[u] ** 2 + cfg.height ** 2)
          for k in range(m)] for u in range(m)]
    return design2_rates(cfg, h)


def design2_rates_formula(own, row_total, tx_power, noise_power, m,
                          cross=None):
    """Design II rates log2(1 + S P / (I P + M sigma^2)) as one numpy
    expression, I = max(row_total - S, 0): the reference that the in-place
    ``transceiver.design2_rates_from_rows`` must reproduce bit for bit.
    Given ``cross``, the users' sums of cross gains, I is ``cross`` where
    S P exceeds I P + M sigma^2 by more than 2^20, as there.
    """
    interference = np.maximum(row_total - own, 0.0)
    if cross is not None:
        lost = (own * tx_power * 2.0 ** -20
                > interference * tx_power + m * noise_power)
        interference = np.where(lost, cross, interference)
    sinr = own * tx_power / (interference * tx_power + m * noise_power)
    return np.log1p(sinr) / np.log(2.0)


def design2_rates_cross_sum(s, tx_power, noise_power) -> np.ndarray:
    """(..., M) Design II rates of (..., M, M) power gains, user by user,
    with each interference the correctly rounded sum (``math.fsum``) of the
    user's cross gains, never a row total less the own gain."""
    m = s.shape[-1]
    rates = np.empty(s.shape[:-1])
    for idx in np.ndindex(rates.shape):
        row, u = s[idx].tolist(), idx[-1]
        interference = math.fsum(row[:u] + row[u + 1:])
        rates[idx] = math.log1p(row[u] * tx_power / (
            interference * tx_power + m * noise_power)) / math.log(2.0)
    return rates


def conv_distances_dense(cfg: SystemConfig, x, y) -> np.ndarray:
    """(n, M, M) squared distances of (n, M) users to the conventional
    elements, from the array's definition: M elements at waveguide height
    on the x-axis, half a wavelength apart and centered on the origin."""
    m = cfg.num_users
    elements = (np.arange(m) - (m - 1) / 2.0) * (cfg.wavelength / 2.0)
    return ((x[:, :, None] - elements) ** 2
            + (y * y + cfg.height * cfg.height)[:, :, None])


def conv_rates_dense(cfg: SystemConfig, x, y, alpha, tx_power, noise_power):
    """(n, M) conventional rates with every user's row evaluated, blocked or
    not: the full (n, M, M) gains, Design II's diagonal-and-row-sum SINR at
    ``tx_power`` and ``noise_power``, then the rates times the (n, M)
    indicators ``alpha``. This is the evaluation the line-of-sight-gated
    kernel and the high-SNR bound's row route must reproduce bit for bit.
    """
    s = power_gains(cfg, conv_distances_dense(cfg, x, y))
    return design2_rates_formula(np.diagonal(s, axis1=-2, axis2=-1),
                                 s.sum(axis=-1), tx_power, noise_power,
                                 cfg.num_users) * alpha


def conv_rate_bound_mc(cfg: SystemConfig, n_trials: int,
                       seed: int) -> list[tuple[float, float]]:
    """Monte-Carlo high-SNR conventional rates E[log2(1 + S/I)]: per user,
    then their sum, each as (mean, standard error of the mean).

    ``n_trials`` placements, x uniform over the service area and y uniform
    over each user's strip (or on its center line when constrained), from
    ``np.random.default_rng(seed)``; their rates are ``conv_rates_dense``
    with every user in line of sight, unit power and no noise.
    """
    rng = np.random.default_rng(seed)
    m = cfg.num_users
    x = rng.uniform(-cfg.d_l / 2.0, cfg.d_l / 2.0, (n_trials, m))
    y = np.broadcast_to(waveguide_centers(cfg), (n_trials, m)).copy()
    if not cfg.constrain_under_waveguide:
        y += rng.uniform(-cfg.strip_width / 2.0, cfg.strip_width / 2.0,
                         (n_trials, m))
    rates = conv_rates_dense(cfg, x, y, np.ones((n_trials, m), dtype=bool),
                             1.0, 0.0)
    columns = np.column_stack([rates, rates.sum(axis=1)])
    return [(float(c.mean()), float(c.std(ddof=1)) / math.sqrt(n_trials))
            for c in columns.T]


def _conv_elements_and_rate(cfg: SystemConfig):
    """The x of each conventional element, and the high-SNR rate
    log2(1 + S/I) of user u at (x, y).

    User u sees element k of the half-wavelength array at
    ((k - (M - 1) / 2) lambda / 2, 0, height) with power gain proportional
    to 1 / r_uk^2, so S/I = r_uu^-2 / sum_{k != u} r_uk^-2.
    """
    lam, _ = _constants(cfg)
    m = cfg.num_users
    elem_x = [(k - (m - 1) / 2.0) * lam / 2.0 for k in range(m)]

    def rate(u: int, x: float, y: float) -> float:
        inv = [1.0 / ((x - e) ** 2 + y * y + cfg.height ** 2) for e in elem_x]
        return math.log2(1.0 + inv[u] / math.fsum(inv[:u] + inv[u + 1:]))

    return elem_x, rate


def conv_rate_bound_quadrature(cfg: SystemConfig) -> list[float]:
    """High-SNR conventional rates E[log2(1 + S/I)] by scipy quadrature:
    per user, then their sum.

    The mean of ``_conv_elements_and_rate``'s rate is a ``dblquad`` over
    x and the user's strip, or a ``quad`` over x alone with the user on its
    waveguide's center line.
    """
    _, rate = _conv_elements_and_rate(cfg)
    half_l, half_s = cfg.d_l / 2.0, cfg.strip_width / 2.0
    bounds = []
    for u, center in enumerate(waveguide_centers(cfg)):
        if cfg.constrain_under_waveguide:
            val, _ = quad(lambda x: rate(u, x, center), -half_l, half_l,
                          epsabs=0.0, epsrel=1e-12, limit=200)
            bounds.append(val / cfg.d_l)
        else:
            val, _ = dblquad(lambda y, x: rate(u, x, y), -half_l, half_l,
                             center - half_s, center + half_s, epsabs=0.0,
                             epsrel=1e-12)
            bounds.append(val / (cfg.d_l * cfg.strip_width))
    return bounds + [math.fsum(bounds)]


def _graded(peaks, reach: float, a: float, b: float) -> list[float] | None:
    """Breakpoints inside (a, b) at each peak and at reach * 10^j on both
    sides of it, j = 0, 1, ..., up to the interval's length."""
    points = set()
    for peak in peaks:
        points.add(peak)
        step = reach
        while step <= b - a:
            points.update((peak - step, peak + step))
            step *= 10.0
    return sorted(p for p in points if a < p < b) or None


def conv_rate_bound_at_peaks(cfg: SystemConfig) -> list[float]:
    """High-SNR conventional rates E[log2(1 + S/I)] by nested scipy
    ``quad`` with breakpoints graded about the integrand's peaks: per user,
    then their sum.

    A user's rate peaks under the elements, at their x and y = 0, in
    spikes about sqrt(y^2 + height^2) wide, which a Gauss-Kronrod rule over
    a kilometre-long interval steps over. So the quadrature over x breaks
    at each element's x and at height * 10^j on both sides of it, and the
    one over the user's strip at y = 0 and at height * 10^j about it.
    """
    elem_x, rate = _conv_elements_and_rate(cfg)
    half_l, half_s = cfg.d_l / 2.0, cfg.strip_width / 2.0
    x_points = _graded(elem_x, cfg.height, -half_l, half_l)

    def mean(f, a: float, b: float, points) -> float:
        val, _ = quad(f, a, b, points=points, epsabs=0.0, epsrel=1e-13,
                      limit=400)
        return val / (b - a)

    bounds = []
    for u, center in enumerate(waveguide_centers(cfg)):
        if cfg.constrain_under_waveguide:
            def over_y(x, u=u, center=center):
                return rate(u, x, center)
        else:
            lo, hi = center - half_s, center + half_s
            y_points = _graded([0.0], cfg.height, lo, hi)

            def over_y(x, u=u, lo=lo, hi=hi, y_points=y_points):
                return mean(lambda y: rate(u, x, y), lo, hi, y_points)
        bounds.append(mean(over_y, -half_l, half_l, x_points))
    return bounds + [math.fsum(bounds)]


def pin_d2_rates_dense(cfg: SystemConfig, x, y, u):
    """(n, M) pinching Design II rates with every link of every matrix
    evaluated, whatever its user's own link: the full (n, M, M) distances,
    LoS probabilities, indicators ``u < p`` on the (n, M, M) uniforms ``u``
    and blocked gains, then Design II's diagonal-and-row-sum SINR. This is
    the evaluation the own-link-gated kernel must reproduce bit for bit.
    """
    d_sq = pin_distances_sq(cfg, x, y, waveguide_y_offsets(cfg))
    s = power_gains(cfg, d_sq, x) * (u < unblocked_probability_sq(d_sq, cfg))
    return design2_rates_formula(np.diagonal(s, axis1=-2, axis2=-1),
                                 s.sum(axis=-1), cfg.tx_power,
                                 cfg.noise_power, cfg.num_users)


def channel_coefficients_dense(cfg: SystemConfig, dist_sq, s_eff):
    """Complex coefficients sqrt(s_eff) exp(-2 pi j r / lambda) of every
    link, blocked or not, as one dense expression over the whole array.
    This is the evaluation the line-of-sight-gated ``channel_coefficients``
    must reproduce bit for bit on every clear link.
    """
    cycles = np.sqrt(dist_sq) / cfg.wavelength
    return np.sqrt(s_eff) * np.exp(1j * (-2.0 * np.pi * cycles))


def triangular_pdf(z, d_l: float):
    """Density (d_l - |z|) / d_l^2 on [-d_l, d_l], zero outside, of the
    difference of two independent U(-d_l/2, d_l/2) draws."""
    z = np.abs(np.asarray(z, dtype=float))
    return np.where(z <= d_l, (d_l - z) / d_l ** 2, 0.0)


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
    half = cfg.d_w / 2.0
    phi, d = cfg.phi, cfg.height
    if cfg.blockage_model is BlockageModel.MODEL_A:
        los = lambda y: math.exp(-phi * math.sqrt(y * y + d * d))  # noqa: E731
    else:
        los = lambda y: math.exp(-phi * (y * y + d * d))  # noqa: E731
    blocked = _quad(lambda y: 1.0 - los(y), -half, half) / cfg.d_w
    tails = (_quad(los, -half, -p.tau3) + _quad(los, p.tau3, half)) / cfg.d_w
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


def two_user_bracket_mp(cfg: SystemConfig) -> mpmath.mpf:
    """The two-user bracket 1/2 - exp(-phi tau4) E_z[exp(-phi z^2)] / 2 in
    400-digit arithmetic, with the triangular average
    E_z[exp(-phi z^2)] = sqrt(pi / x) erf(sqrt x) - (1 - exp(-x)) / x,
    x = phi d_l^2. Its 1 - exp(-x) comes from expm1, whose quotient by x
    keeps its relative precision; the bracket's last difference then
    leaves about 100 digits down to phi = 1e-300."""
    with mpmath.workdps(400):
        beta1, beta2 = (mpmath.mpf(b) for b in waveguide_y_offsets(cfg))
        phi, d_l, h = (mpmath.mpf(v) for v in (cfg.phi, cfg.d_l, cfg.height))
        tau4 = (beta1 - beta2) ** 2 + h * h
        x = phi * d_l * d_l
        mean = (mpmath.sqrt(mpmath.pi / x) * mpmath.erf(mpmath.sqrt(x))
                + mpmath.expm1(-x) / x)
        return (1 - mpmath.exp(-phi * tau4) * mean) / 2


def two_user_rate_mp(cfg: SystemConfig) -> mpmath.mpf:
    """The two-user high-SNR rate 2 log2(1 + SNR) exp(-phi h^2) times the
    bracket, SNR = gain P / (2 sigma^2 h^2), in 400-digit arithmetic."""
    with mpmath.workdps(400):
        h = mpmath.mpf(cfg.height)
        snr = (mpmath.mpf(cfg.path_gain_factor) * cfg.tx_power
               / (2 * mpmath.mpf(cfg.noise_power) * h * h))
        return (2 * mpmath.log(1 + snr, 2) * mpmath.exp(-cfg.phi * h * h)
                * two_user_bracket_mp(cfg))


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
