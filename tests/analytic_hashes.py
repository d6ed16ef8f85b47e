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
hashed by its type and message). ``strip_los_integral`` has one line for
intervals on one side of 0, one for intervals across it and one for MODEL_B
configs, which it rejects. ``ergodic_conv_highsnr`` runs up to M = 32 users,
where its integrand is evaluated in several batches of links. The file is
not named ``test_*``, so pytest does not collect it.
"""

import hashlib
import itertools
import math
import random
import struct

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
    strip_los_integral,
    triangular_pdf,
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


def intervals(cfg: SystemConfig, rng: random.Random):
    """(one-sided, across-0) lists of (a, b) intervals inside the strip."""
    half = cfg.d_w / 2.0
    one_sided, across = [(0.0, half), (-half, 0.0), (0.5 * half, half),
                         ((1.0 - 1e-6) * half, half)], [(-half, half)]
    for _ in range(6):
        a, b = sorted(rng.uniform(0.0, half) for _ in range(2))
        sign = rng.choice((-1.0, 1.0))
        one_sided.append(tuple(sorted((sign * a, sign * b))))
        across.append((-rng.uniform(0.0, half), rng.uniform(0.0, half)))
    return one_sided, across


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
                one_sided, across = intervals(cfg, rng)
                for case, pairs in (("one side", one_sided),
                                    ("across 0", across)):
                    for a, b in pairs:
                        record(f"strip_los_integral[{case}]",
                               evaluate(strip_los_integral, a, b, cfg))
            else:
                for p in params:
                    record("outage_pin_model_b", evaluate(outage_pin_model_b, p))
                for fn in (outage_pin_model_b_highsnr,
                           outage_conv_model_b_highsnr, outage_gap_model_b):
                    record(fn.__name__, evaluate(fn, params[0]))
                record("strip_los_integral[model B]",
                       evaluate(strip_los_integral, 0.0, cfg.d_w / 2.0, cfg))
                two = SystemConfig(num_users=2, d_w=cfg.d_w, d_l=cfg.d_l,
                                   tx_power=cfg.tx_power, phi=cfg.phi,
                                   height=cfg.height, blockage_model=model,
                                   constrain_under_waveguide=True)
                for fn in (two_user_cross_blockage_factor,
                           ergodic_pin_two_user_highsnr):
                    record(fn.__name__, evaluate(fn, two))
                z = np.linspace(-1.25 * cfg.d_l, 1.25 * cfg.d_l, 11)
                record("triangular_pdf", evaluate(triangular_pdf, z, cfg.d_l))
    for m, d_w, d_l, constrained in MULTI_USER:
        cfg = SystemConfig(num_users=m, d_w=d_w, d_l=d_l, tx_power=1.0,
                           phi=0.1, blockage_model=BlockageModel.MODEL_A,
                           constrain_under_waveguide=constrained)
        record("ergodic_conv_highsnr", evaluate(ergodic_conv_highsnr, cfg))
    for name, values in lines.items():
        print(f"{name} {len(values)} {digest(values)}")


if __name__ == "__main__":
    main()
