"""The channel model: distances, line-of-sight probability, power gains and
complex coefficients.

Every function here takes n realizations at once, as (n, M) user
coordinates, and returns a new (n, M, M) array indexed [trial, user,
antenna]: the squared distances (:func:`pin_distances_sq`,
:func:`conv_distances_sq`), their LoS probabilities
(:func:`unblocked_probability_sq`), the unblocked gains
(:func:`power_gains`) and the complex coefficients
(:func:`channel_coefficients`). The Monte-Carlo estimators call them on
whole sub-batches; one realization is the n = 1 case. The distances and
gains also come as (k, M) rows, the links of k chosen users, so that only
the users whose rate needs its links get them; each user's own link comes
as (n, M) from :func:`pin_distances_sq` without any x difference, and
:func:`center_distances_sq` gives the (n, M) length of the one link whose
blockage all of a user's conventional elements share.

A link of length r has free-space power gain path_gain_factor / r^2. The
pinching system adds the in-waveguide path of length l = x + d_l/2 from the
feed at the near edge to the antenna: a phase over the guided wavelength and,
for CASE_II, a dB/m amplitude loss a(l). So
h = alpha sqrt(path_gain_factor) / r a(l) exp(-2 pi j (r / wavelength
+ l / guided_wavelength)), with alpha the line-of-sight indicator. A
blocked link's h is an exact zero, so :func:`channel_coefficients` takes
the square root and the complex exponential of the clear links only.
"""

from __future__ import annotations

import numpy as np

from .scenario import (
    BlockageModel,
    LossCase,
    SystemConfig,
    conventional_array_positions,
)


def pin_distances_sq(cfg: SystemConfig, x: np.ndarray, y: np.ndarray,
                     beta: np.ndarray,
                     pinch_x: np.ndarray | None = None) -> np.ndarray:
    """Squared user-to-pinching-antenna distances.

    Antenna m sits at (pinch_x[..., m], beta[m], height); ``beta`` is
    ``waveguide_y_offsets(cfg)``. Users at ``x``, ``y`` broadcast against
    the antennas along the last axis: (k, 1) users and (k, M) antennas give
    k rows of links, and (n, M) users and antennas give each user's own
    link. Passing ``x`` itself as ``pinch_x`` asks for those own links
    directly, (y - beta)^2 + height^2, bit for bit the same without the
    x - x = +0.0 pass. Without ``pinch_x`` the antennas follow the (n, M)
    users themselves, giving every link, (n, M, M).
    """
    if pinch_x is x:
        # each user's own link: x - x is +0.0, and +0.0 + dy is dy
        d = y - beta
        d *= d
        d += cfg.height * cfg.height
        return d
    if pinch_x is None:
        x, y, pinch_x = x[:, :, None], y[:, :, None], x[:, None, :]
    d = x - pinch_x
    d *= d
    dy = y - beta
    dy *= dy
    d += dy
    d += cfg.height * cfg.height
    return d


def conv_distances_sq(cfg: SystemConfig, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Squared user-to-element distances of the conventional array, (n, M, M)."""
    d = x[:, :, None] - conventional_array_positions(cfg)[None, None, :, 0]
    d *= d
    d += (y * y + cfg.height ** 2)[:, :, None]
    return d


def center_distances_sq(cfg: SystemConfig, x: np.ndarray,
                        y: np.ndarray) -> np.ndarray:
    """Squared user-to-array-center distances, (n, M): the length of the one
    link whose blockage every conventional element shares."""
    return x * x + y * y + cfg.height ** 2


def unblocked_probability_sq(dist_sq, cfg: SystemConfig):
    """Probability that a link keeps line of sight, from its squared length.

    MODEL_A uses exp(-phi * distance); MODEL_B uses exp(-phi * distance^2),
    which needs no square root.
    """
    dsq = np.asarray(dist_sq, dtype=float)
    # Built in place in one array; a scalar input gives a scalar.
    p = np.empty(dsq.shape)
    if cfg.blockage_model is BlockageModel.MODEL_A:
        np.sqrt(dsq, out=p)
        p *= -cfg.phi
    else:
        np.multiply(dsq, -cfg.phi, out=p)
    np.exp(p, out=p)
    return p if p.ndim else p[()]


def _guided_length(cfg: SystemConfig, x: np.ndarray) -> np.ndarray:
    """In-waveguide distance from the feed at x = -d_l/2 to antennas at x."""
    return x + cfg.d_l / 2.0


def waveguide_amplitude(cfg: SystemConfig, x: np.ndarray) -> np.ndarray:
    """In-waveguide amplitude factor of antennas at x: the dB/m loss for
    CASE_II, ones for CASE_I."""
    if cfg.loss_case is LossCase.CASE_II:
        # 10 ** (-loss * length / 20), in place on the fresh length array
        length = _guided_length(cfg, x)
        length *= -cfg.waveguide_loss_db_per_m
        length /= 20.0
        return np.power(10.0, length, out=length)
    return np.ones_like(x)


def power_gains(cfg: SystemConfig, dist_sq: np.ndarray,
                pinch_x: np.ndarray | None = None,
                trials: np.ndarray | None = None) -> np.ndarray:
    """Unblocked |h|^2 of every link: (n, M, M), or (k, M) for k rows.

    ``pinch_x`` holds the (n, M) antenna x coordinates of a pinching system,
    whose waveguide amplitude then applies per column; None for the
    conventional array. CASE_I's amplitude is 1, so it is not applied. For
    (k, M) rows, ``trials`` gives the trial of each row, its row of
    ``pinch_x``; the amplitude is computed once per trial, not per row.
    """
    s = cfg.path_gain_factor / dist_sq
    if pinch_x is not None and cfg.loss_case is LossCase.CASE_II:
        amp = waveguide_amplitude(cfg, pinch_x)
        amp *= amp
        s *= amp[:, None, :] if trials is None else amp.take(trials, axis=0)
    return s


def channel_coefficients(cfg: SystemConfig, dist_sq: np.ndarray,
                         s_eff: np.ndarray, pinch_x: np.ndarray) -> np.ndarray:
    """Complex h = sqrt(s_eff) exp(-2 pi j (r / wavelength + l / guided_wavelength)).

    ``s_eff`` is the blocked power gain alpha |h|^2, in the shape of
    ``dist_sq``, and ``pinch_x`` the (n, M) antenna x coordinates, which
    give the in-waveguide run l of each column.

    The square root and the complex exponential are taken only where
    ``s_eff`` is nonzero; every other entry is an exact +0j. A clear entry
    sees the same operations, in the same order, as in a dense evaluation,
    so it is bit for bit the same; a blocked one differs from it at most in
    the sign of its zeros.
    """
    cycles = np.sqrt(dist_sq)
    cycles /= cfg.wavelength
    cycles += _guided_length(cfg, pinch_x)[:, None, :] / cfg.guided_wavelength
    clear = np.flatnonzero(s_eff != 0)
    # In place on the gathered copies, which at M = 16 and phi = 0 made a
    # chunk about 8% faster than fresh temporaries. The complex product
    # keeps the operand order of sqrt(s_eff) * exp(1j * (-2 pi cycles)).
    phase = cycles.reshape(-1).take(clear)
    phase *= -2.0 * np.pi
    coef = 1j * phase
    np.exp(coef, out=coef)
    amp = s_eff.reshape(-1).take(clear)
    np.multiply(np.sqrt(amp, out=amp), coef, out=coef)
    h = np.zeros(cycles.shape, dtype=complex)
    h.reshape(-1)[clear] = coef
    return h

