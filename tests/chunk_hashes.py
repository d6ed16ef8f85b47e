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
sub-batches and meet exact zero LU pivots and 1-norm rejections; the last
line hashes ``estimate_conv_rate_bound`` results over two chunks. The file
is not named ``test_*``, so pytest does not collect it.
"""

import hashlib
import itertools

import numpy as np

from pinchsim import BlockageModel, LossCase, Scheme, SystemConfig, montecarlo
from pinchsim.montecarlo import (
    _rates_chunk,
    chunk_generator,
    estimate_conv_rate_bound,
)

N = 45  # trials per chunk; SUB_LINKS = 37 leaves short last sub-batches
USERS = (1, 2, 3, 5, 8, 9, 16, 17)
# phi = 0 keeps every link, phi = 50 blocks every link
PHIS = (0.0, 0.05, 0.1, 50.0)
SUB_LINKS = (1 << 16, 37)
SCHEME_TUPLES = [t for k in (1, 2, 3)
                 for t in itertools.permutations(Scheme, k)]
FULL_USERS = (2, 5, 16)
FULL_PHIS = (0.0, 0.1)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64)
                 .view(np.int64).tobytes())
    return h.hexdigest()


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
                print(f"M={m} {model.value} {loss.value} "
                      f"constrained={constrained} phi={phi} "
                      f"sub_links={sub_links} {names} {digest(rates)}")
    finally:
        montecarlo.SUB_LINKS = default
    for m, phi, loss in itertools.product(FULL_USERS, FULL_PHIS, LossCase):
        cfg = config(m, BlockageModel.MODEL_A, loss, False, phi)
        rates = _rates_chunk(tuple(Scheme), cfg, montecarlo.CHUNK_TRIALS,
                             chunk_generator(8, 0, 1))
        print(f"full M={m} {BlockageModel.MODEL_A.value} {loss.value} "
              f"phi={phi} {digest(rates)}")
    bounds = [(e.value, e.ci_half_width)
              for m, model in itertools.product((2, 5, 16), BlockageModel)
              for e in estimate_conv_rate_bound(
                  config(m, model, LossCase.CASE_II, False, 0.1),
                  montecarlo.CHUNK_TRIALS + N, 7)]
    print(f"estimate_conv_rate_bound {digest([np.array(bounds)])}")


if __name__ == "__main__":
    main()
