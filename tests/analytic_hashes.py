"""Print a sha256 of every public analytic's values over a fixed grid.

Run it against two checkouts and diff the outputs to show which analytic
values a change moves, bit for bit:

    PYTHONPATH=src python tests/analytic_hashes.py > new.txt
    PYTHONPATH=../parent/src python tests/analytic_hashes.py > old.txt
    diff old.txt new.txt

``pinchsim`` is imported from PYTHONPATH, so the script itself runs
unchanged against any checkout. The grid is the corners of
``tests/test_analytics.py``'s wide range (heights WIDE_HEIGHTS, phis
WIDE_PHIS, strips and areas from 0.5 m to 1 km) plus configurations drawn
from a fixed seed. Every outage function runs at targets that place the
in-range half-width tau3 at 0, near 0, inside the strip, near its edge and
clamped to it. Each line reads ``<function> <count> <sha256>`` and
hashes the float64 bits of each value in order (a raised exception is
hashed by its type and message). The two-user functions also run on each
MODEL_B configuration at the tiny phis SMALL_PHIS, where the bracket's
closed form cancels, on lines of their own (``<function> small_phi``),
and on configs past the float range (``<function> past_float_range``).
The conventional MODEL_A floor also runs on each MODEL_A configuration at
the phis CONV_SMALL_PHIS, where its radial mass takes q(v) from a series
(``outage_conv_model_a_highsnr small_phi``), and on the areas
EXTREME_AREAS, up to aspect ratios past the float range, at the heights
WIDE_HEIGHTS and the phis EXTREME_PHIS
(``outage_conv_model_a_highsnr extreme_aspect``).
``ergodic_conv_highsnr`` runs up to M = 32 users, where its integrand is
evaluated in several batches of links. The file is not named ``test_*``,
so pytest does not collect it.
"""

import hashlib
import itertools
import math
import random
import struct
from dataclasses import replace

import numpy as np

from pinchsim import (
    BlockageModel,
    OutageParams,
    SystemConfig,
    ergodic_conv_highsnr,
    ergodic_pin_two_user_highsnr,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_gap_model_b,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
    outage_pin_model_b_highsnr,
    two_user_cross_blockage_factor,
)

SEED = 2213
N_DRAWN = 24  # drawn configurations per blockage model
# The corners of tests/test_analytics.py's wide range.
WIDE_HEIGHTS = (0.01, 3.0, 30.0)
WIDE_PHIS = (0.0, 0.1, 5.0)
WIDE_AREAS = ((0.5, 1000.0), (10.0, 40.0), (200.0, 1.0))  # (d_w, d_l)
# tau3 as a fraction of d_w / 2; 0 is the edge of certain outage.
TAU3_FRACTIONS = (0.0, 1e-9, 1e-3, 0.25, 0.5, 0.9, 1.0 - 1e-9, 1.0)
FIXED_TARGETS = (1e-300, 1e-16, 1e-3, 2.0, 7.0, 9.2, 14.0, 1030.0)
SMALL_PHIS = (1e-18, 1e-14, 1e-10)
CONV_SMALL_PHIS = SMALL_PHIS + (1e-6, 1e-3)
# (d_w, d_l) from a strip 2000 times longer than wide to one 1e600 times
EXTREME_AREAS = ((1e-3, 2.0), (400.0, 2.0), (1e-9, 1e9), (1e9, 1e-9),
                 (1e150, 1e-150), (1e-300, 1e300))
EXTREME_PHIS = (1e-299, 1e-148, 1e-3, 0.1, 5.0, 1e3)
# Two-user configs past the float range: a square of d_l or of the
# waveguide spacing, an infinite SNR against a zero LoS probability, and
# an SNR beyond the float range, each on fig4's geometry at 10 dBm.
PAST_FLOAT_RANGE = (dict(d_l=1e200), dict(d_w=1e160),
                    dict(d_w=1e-300, d_l=1e154, height=1e-8, phi=1e300,
                         tx_power=10.0 ** 300.0),
                    dict(d_w=1e8, d_l=1e8, height=1e-150, phi=1e-12,
                         tx_power=1e300))
MULTI_USER = ((2, 10.0, 40.0, False), (3, 12.0, 30.0, False),
              (5, 10.0, 10.0, False), (3, 12.0, 30.0, True),
              (16, 10.0, 40.0, False), (17, 10.0, 40.0, False),
              (32, 10.0, 40.0, False))


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, Exception):
            h.update(f"!{type(v).__name__}: {v}".encode())
        else:
            h.update(struct.pack("<d", v))
    return h.hexdigest()


def evaluate(fn, *args):
    """fn(*args) as a list of floats, or [the exception it raised]."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return [exc]
    return np.atleast_1d(np.asarray(out, dtype=np.float64)).tolist()


def target_placing_threshold(cfg: SystemConfig, s: float) -> float:
    """The target rate whose in-range half-width is s (s = 0: the edge
    of certain outage)."""
    eps = (cfg.path_gain_factor * cfg.tx_power
           / (cfg.noise_power * (s * s + cfg.height ** 2)))
    return math.log2(1.0 + eps)


def configs(model: BlockageModel, rng: random.Random) -> list[SystemConfig]:
    out = [SystemConfig(num_users=1, d_w=d_w, d_l=d_l, tx_power=0.01,
                        phi=phi, height=height, blockage_model=model)
           for (d_w, d_l), height, phi in itertools.product(
               WIDE_AREAS, WIDE_HEIGHTS, WIDE_PHIS)]
    for _ in range(N_DRAWN):
        out.append(SystemConfig(
            num_users=1, d_w=rng.uniform(0.5, 50.0),
            d_l=rng.uniform(1.0, 200.0), tx_power=10.0 ** rng.uniform(-4, 1),
            phi=rng.choice((0.0, rng.uniform(1e-3, 1.0))),
            height=rng.uniform(0.1, 10.0), blockage_model=model))
    return out


def targets(cfg: SystemConfig) -> list[float]:
    half = cfg.d_w / 2.0
    placed = [target_placing_threshold(cfg, f * half) for f in TAU3_FRACTIONS]
    edges = (placed[0], placed[-1])
    beyond = [r * k for r in edges for k in (1.0 - 1e-6, 1.0 + 1e-6)]
    return placed + beyond + list(FIXED_TARGETS)


def main() -> None:
    rng = random.Random(SEED)
    lines: dict[str, list] = {}

    def record(name: str, values) -> None:
        lines.setdefault(name, []).extend(values)

    for model in BlockageModel:
        for cfg in configs(model, rng):
            params = [OutageParams(cfg=cfg, r_target=r) for r in targets(cfg)]
            if model is BlockageModel.MODEL_A:
                for p in params:
                    record("outage_pin_model_a", evaluate(outage_pin_model_a, p))
                for fn in (outage_pin_model_a_highsnr,
                           outage_conv_model_a_highsnr):
                    record(fn.__name__, evaluate(fn, params[0]))
                for phi in CONV_SMALL_PHIS:
                    record("outage_conv_model_a_highsnr small_phi",
                           evaluate(outage_conv_model_a_highsnr, OutageParams(
                               cfg=replace(cfg, phi=phi), r_target=7.0)))
            else:
                for p in params:
                    record("outage_pin_model_b", evaluate(outage_pin_model_b, p))
                for fn in (outage_pin_model_b_highsnr,
                           outage_conv_model_b_highsnr, outage_gap_model_b):
                    record(fn.__name__, evaluate(fn, params[0]))
                two = SystemConfig(num_users=2, d_w=cfg.d_w, d_l=cfg.d_l,
                                   tx_power=cfg.tx_power, phi=cfg.phi,
                                   height=cfg.height, blockage_model=model,
                                   constrain_under_waveguide=True)
                for fn in (two_user_cross_blockage_factor,
                           ergodic_pin_two_user_highsnr):
                    record(fn.__name__, evaluate(fn, two))
                    for phi in SMALL_PHIS:
                        record(f"{fn.__name__} small_phi",
                               evaluate(fn, replace(two, phi=phi)))
    fig4 = SystemConfig(num_users=2, d_w=10.0, d_l=40.0, tx_power=0.01,
                        phi=0.1, blockage_model=BlockageModel.MODEL_B,
                        constrain_under_waveguide=True)
    for fields in PAST_FLOAT_RANGE:
        for fn in (two_user_cross_blockage_factor,
                   ergodic_pin_two_user_highsnr):
            record(f"{fn.__name__} past_float_range",
                   evaluate(fn, replace(fig4, **fields)))
    for (d_w, d_l), height, phi in itertools.product(
            EXTREME_AREAS, WIDE_HEIGHTS, EXTREME_PHIS):
        cfg = SystemConfig(num_users=1, d_w=d_w, d_l=d_l, tx_power=0.01,
                           phi=phi, height=height,
                           blockage_model=BlockageModel.MODEL_A)
        record("outage_conv_model_a_highsnr extreme_aspect",
               evaluate(outage_conv_model_a_highsnr,
                        OutageParams(cfg=cfg, r_target=7.0)))
    for m, d_w, d_l, constrained in MULTI_USER:
        cfg = SystemConfig(num_users=m, d_w=d_w, d_l=d_l, tx_power=1.0,
                           phi=0.1, blockage_model=BlockageModel.MODEL_A,
                           constrain_under_waveguide=constrained)
        record("ergodic_conv_highsnr", evaluate(ergodic_conv_highsnr, cfg))
    for name, values in lines.items():
        print(f"{name} {len(values)} {digest(values)}")


if __name__ == "__main__":
    main()
