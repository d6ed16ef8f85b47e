"""The channel model: distances, line-of-sight probability, power gains and
complex coefficients.

The pinching functions take n realizations at once, as (n, M) user
coordinates, and return a new (n, M, M) array indexed [trial, user,
antenna]: the squared distances (:func:`pin_distances_sq`), their LoS
probabilities (:func:`unblocked_probability_sq`), the unblocked gains
(:func:`power_gains`) and the complex coefficients
(:func:`channel_coefficients`). The Monte-Carlo estimators call them on
whole sub-batches; one realization is the n = 1 case. The distances and
gains also come as (k, M) rows, the links of k chosen users, so that only
the users whose rate needs its links get them; each user's own link comes
as (n, M) from :func:`own_distances_sq` without any x difference. The
conventional array's geometry lives here alone, and its links come only
as rows: :func:`conv_distances_sq` gives k users' (k, M) rows and
:func:`center_distances_sq` the one link whose blockage all of a user's
elements share. Every link length adds height * height.

A link of length r has free-space power gain path_gain_factor / r^2. For
CASE_II the pinching system adds a dB/m amplitude loss a(l) over the
in-waveguide run l = x + d_l/2 from the feed at the near edge to the
antenna, which :func:`power_gains` applies squared. So
h = alpha sqrt(path_gain_factor) / r a(l) exp(-2 pi j r / wavelength), with
alpha the line-of-sight indicator. The run's phase is left out: it is the
same for every link of one antenna, a unit-modulus factor per column of
H = A D. Design II and CONV read |h| only, and zero forcing's
H^-1 = D^-1 A^-1 has the column norms and 1-norm of A^-1. A blocked link's
h is an exact zero, so :func:`channel_coefficients` takes the square root
and the complex exponential of the clear links only.
"""

from __future__ import annotations

import numpy as np

from .scenario import BlockageModel, LossCase, SystemConfig


def pin_distances_sq(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                     beta: np.ndarray,
                     pinch_x: np.ndarray | None = None) -> np.ndarray:
    """Squared user-to-pinching-antenna distances.

    Antenna m sits at (pinch_x[..., m], beta[m], height); ``beta`` is
    ``waveguide_y_offsets(cfg)``. Users at ``x``, ``y`` broadcast against
    the antennas along the last axis: (k, 1) users and (k, M) antennas give
    k rows of links. Without ``pinch_x`` the antennas follow the (n, M)
    users themselves, giving every link, (n, M, M).
    """
    if pinch_x is None:
        x, y, pinch_x = x[:, :, None], y[:, :, None], x[:, None, :]
    d = x - pinch_x
    d *= d
    dy = y - beta
    dy *= dy
    d += dy
    d += cfg.height * cfg.height
    return d


def own_distances_sq(cfg: SystemConfig, y: np.ndarray,
                     beta: np.ndarray) -> np.ndarray:
    """Squared distance of each of (n, M) users to its own pinching antenna,
    (y - beta)^2 + height^2, as (n, M).

    The antenna sits at the user's x, so x - x = +0.0, and +0.0 + dy is
    dy: this is bit for bit the diagonal of :func:`pin_distances_sq`.
    """
    d = y - beta
    d *= d
    d += cfg.height * cfg.height
    return d


def _conv_element_x(cfg: SystemConfig) -> np.ndarray:
    """x coordinates of the M conventional elements, (M,): half a
    wavelength apart and centered, so their mean is exactly zero."""
    m = cfg.num_users
    return (np.arange(m) - (m - 1) / 2.0) * (cfg.wavelength / 2.0)


def conv_distances_sq(cfg: SystemConfig, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Squared distances of k users at (k,) coordinates ``x``, ``y`` to the
    conventional elements at (x_m, 0, height), as their (k, M) rows."""
    d = x[:, None] - _conv_element_x(cfg)
    d *= d
    d += (y * y + cfg.height * cfg.height)[:, None]
    return d


def center_distances_sq(cfg: SystemConfig, x: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Squared user-to-array-center distances, (n, M): the length of the one
    link whose blockage every conventional element shares."""
    return x * x + y * y + cfg.height * cfg.height


def unblocked_probability_sq(dist_sq: np.ndarray,
                             cfg: SystemConfig) -> np.ndarray:
    """Probability that a link keeps line of sight, from its squared length.

    MODEL_A uses exp(-phi * distance); MODEL_B uses exp(-phi * distance^2),
    which needs no square root. Built in place in one new array.
    """
    p = np.empty(dist_sq.shape)
    if cfg.blockage_model is BlockageModel.MODEL_A:
        np.sqrt(dist_sq, out=p)
        p *= -cfg.phi
    else:
        np.multiply(dist_sq, -cfg.phi, out=p)
    np.exp(p, out=p)
    return p


def _guided_length(cfg: SystemConfig, x: np.ndarray) -> np.ndarray:
    """In-waveguide distance from the feed at x = -d_l/2 to antennas at x."""
    return x + cfg.d_l / 2.0


def power_gains(cfg: SystemConfig, dist_sq: np.ndarray,
                pinch_x: np.ndarray | None = None,
                trials: np.ndarray | None = None) -> np.ndarray:
    """Unblocked |h|^2 of every link: (n, M, M), or (k, M) for k rows.

    ``pinch_x`` holds the (n, M) antenna x coordinates of a pinching system,
    whose in-waveguide amplitude then applies per column; None for the
    conventional array. CASE_II's amplitude is the dB/m loss
    10^(-loss l / 20) over the run l from the feed; CASE_I's is 1, so it is
    not applied. For (k, M) rows, ``trials`` gives the trial of each row,
    its row of ``pinch_x``; the amplitude is computed once per trial, not
    per row.
    """
    s = cfg.path_gain_factor / dist_sq
    if pinch_x is not None and cfg.loss_case is LossCase.CASE_II:
        # the squared amplitude, in place on the fresh length array
        amp = _guided_length(cfg, pinch_x)
        amp *= -cfg.waveguide_loss_db_per_m
        amp /= 20.0
        np.power(10.0, amp, out=amp)
        amp *= amp
        s *= amp[:, None, :] if trials is None else amp.take(trials, axis=0)
    return s


def channel_coefficients(cfg: SystemConfig, dist_sq: np.ndarray,
                         s_eff: np.ndarray) -> np.ndarray:
    """Complex h = sqrt(s_eff) exp(-2 pi j r / wavelength).

    ``s_eff`` is the blocked power gain alpha |h|^2, in the shape of
    ``dist_sq``, the squared link lengths r^2.

    Every step is taken only where ``s_eff`` is nonzero; every other entry
    is an exact +0j. A clear entry sees the same operations, in the same
    order, as in a dense evaluation, so it is bit for bit the same; a
    blocked one differs from it at most in the sign of its zeros.
    """
    clear = np.flatnonzero(s_eff != 0)
    # In place on the gathered copies, which at M = 16 and phi = 0 made a
    # chunk about 8% faster than fresh temporaries. The complex product
    # keeps the operand order of sqrt(s_eff) * exp(1j * (-2 pi r / lambda)).
    phase = dist_sq.reshape(-1).take(clear)
    np.sqrt(phase, out=phase)
    phase /= cfg.wavelength
    phase *= -2.0 * np.pi
    coef = 1j * phase
    np.exp(coef, out=coef)
    amp = s_eff.reshape(-1).take(clear)
    np.multiply(np.sqrt(amp, out=amp), coef, out=coef)
    h = np.zeros(dist_sq.shape, dtype=complex)
    h.reshape(-1)[clear] = coef
    return h
