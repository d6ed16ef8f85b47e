"""Print a sha256 of the Monte-Carlo chunk rates over a grid of configurations.

Run it against two checkouts and diff the outputs to show that a change
leaves every rate bit for bit as it was:

    PYTHONPATH=src python tests/chunk_hashes.py > new.txt
    PYTHONPATH=../parent/src python tests/chunk_hashes.py > old.txt
    diff old.txt new.txt

``pinchsim`` is imported from PYTHONPATH, so the script itself runs
unchanged against any checkout. Each line names one cell, M x blockage model
x loss case x constrained x phi x SUB_LINKS x ordered scheme tuple, and
hashes the int64 view of what ``montecarlo._rates_chunk`` returns for 45
trials. The ``full`` lines hash whole 8192-trial chunks of every scheme for
zero forcing (PIN_D1) at M x phi x loss case, MODEL_A, which run several
sub-batches and meet exact zero LU pivots and 1-norm rejections. Each cell's
line is followed by a ``sums`` line that hashes ``montecarlo._ergodic_sums``
of each scheme's rates, the per-user and sum-rate moments an ergodic
estimate reduces, so a change to those reductions shows as well. The
``estimates`` lines hash the values and half-widths that the public
``estimate_outage`` and ``estimate_ergodic`` return over several chunks,
the last one partial, at M = 1 and 2 and with ``workers`` 1 and 2, so a
change to how chunks are scheduled, drawn and reduced shows too: for every
scheme, for the conventional array alone (``CONV``), which draws only its
chunks' lead blockage uniforms, for Design II alone (``PIN_D2``), which
takes its uniforms from the lead and draws the rest, and for every scheme
with users constrained under their waveguides (``constrained``), which
draw no y. The file is not named ``test_*``, so pytest does not collect
it.
"""

import hashlib
import itertools

import numpy as np

from pinchsim import (
    BlockageModel,
    LossCase,
    OutageParams,
    Scheme,
    SystemConfig,
    estimate_ergodic,
    estimate_outage,
    montecarlo,
)
from pinchsim.montecarlo import _ergodic_sums, _rates_chunk, chunk_generator

N = 45  # trials per chunk; SUB_LINKS = 37 leaves short last sub-batches
USERS = (1, 2, 3, 5, 8, 9, 16, 17)
# phi = 0 keeps every link, phi = 50 blocks every link
PHIS = (0.0, 0.05, 0.1, 50.0)
SUB_LINKS = (1 << 16, 37)
SCHEME_TUPLES = [t for k in (1, 2, 3)
                 for t in itertools.permutations(Scheme, k)]
FULL_USERS = (2, 5, 16)
FULL_PHIS = (0.0, 0.1)
# whole chunks, then a partial one: 6 chunks at M = 1 and 4 at M = 2
ESTIMATE_CHUNKS = {1: 5, 2: 3}
ESTIMATE_EXTRA = 777
# (label, schemes, constrained) of the estimates lines
ESTIMATE_CASES = (("", tuple(Scheme), False),
                  (" CONV", (Scheme.CONV,), False),
                  (" PIN_D2", (Scheme.PIN_D2,), False),
                  (" constrained", tuple(Scheme), True))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64)
                 .view(np.int64).tobytes())
    return h.hexdigest()


def sums_digest(rates) -> str:
    """Digest of ``_ergodic_sums`` of each scheme's rates, in order."""
    sums = []
    for r in rates:
        per_sum, per_sq, total, total_sq = _ergodic_sums(r)
        sums.append(per_sum + per_sq + [total, total_sq])
    return digest(sums)


def report(cell: str, rates) -> None:
    print(f"{cell} {digest(rates)}")
    print(f"{cell} sums {sums_digest(rates)}")


def config(m, model, loss, constrained, phi) -> SystemConfig:
    return SystemConfig(num_users=m, d_w=10.0, d_l=40.0, tx_power=1.0,
                        phi=phi,
                        blockage_model=model, loss_case=loss,
                        constrain_under_waveguide=constrained)


def main() -> None:
    default = montecarlo.SUB_LINKS
    try:
        for sub_links, m, model, loss, constrained, phi in itertools.product(
                SUB_LINKS, USERS, BlockageModel, LossCase, (False, True), PHIS):
            montecarlo.SUB_LINKS = sub_links
            cfg = config(m, model, loss, constrained, phi)
            for schemes in SCHEME_TUPLES:
                rates = _rates_chunk(schemes, cfg, N, chunk_generator(6, 0, 3))
                names = "+".join(s.value for s in schemes)
                report(f"M={m} {model.value} {loss.value} "
                       f"constrained={constrained} phi={phi} "
                       f"sub_links={sub_links} {names}", rates)
    finally:
        montecarlo.SUB_LINKS = default
    for m, phi, loss in itertools.product(FULL_USERS, FULL_PHIS, LossCase):
        cfg = config(m, BlockageModel.MODEL_A, loss, False, phi)
        rates = _rates_chunk(tuple(Scheme), cfg, montecarlo.CHUNK_TRIALS,
                             chunk_generator(8, 0, 1))
        report(f"full M={m} {BlockageModel.MODEL_A.value} {loss.value} "
               f"phi={phi}", rates)
    for (label, schemes, constrained), (m, chunks), model, loss, workers in (
            itertools.product(ESTIMATE_CASES, ESTIMATE_CHUNKS.items(),
                              BlockageModel, LossCase, (1, 2))):
        cfg = config(m, model, loss, constrained, 0.1)
        n = chunks * montecarlo.CHUNK_TRIALS + ESTIMATE_EXTRA
        outage = estimate_outage(schemes,
                                 OutageParams(cfg=cfg, r_target=14.0), n, 21,
                                 workers=workers)
        ergodic = estimate_ergodic(schemes, cfg, n, 21, workers=workers)
        cell = (f"estimates{label} M={m} {model.value} {loss.value} "
                f"workers={workers}")
        print(f"{cell} outage "
              f"{digest([[e.value, e.ci_half_width] for e in outage])}")
        print(f"{cell} ergodic "
              f"{digest([[e.value, e.ci_half_width] for s in ergodic for e in s])}")


if __name__ == "__main__":
    main()
