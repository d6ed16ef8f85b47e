"""One property over the whole admitted box: every route stays finite.

Each example draws a config from the box of ``SystemConfig`` (every float
field log-uniform between its edges, which hypothesis tries as well, phi
also 0) and a target rate from its own bounds. Every public outage and
two-user analytic, the conventional rate bound at M = 2 and 5, every row
of ``cli.counterparts`` and one small ``_rates_chunk`` per scheme at
M = 1, 2 and 5 must then give finite values in range, with no warning, as
this suite makes warnings errors.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import (
    BlockageModel,
    LossCase,
    MetricKind,
    OutageParams,
    Scheme,
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
from pinchsim.cli import counterparts
from pinchsim.montecarlo import _rates_chunk, chunk_generator


def log_uniform(low, high):
    """Floats log-uniform in [low, high], both edges included."""
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda e: min(max(10.0 ** e, low), high))


@st.composite
def boxed_configs(draw):
    return SystemConfig(
        num_users=1, d_w=draw(log_uniform(1e-2, 1e4)),
        d_l=draw(log_uniform(1e-2, 1e4)),
        height=draw(log_uniform(1e-2, 1e3)),
        carrier_freq=draw(log_uniform(1e8, 1e12)),
        tx_power=draw(log_uniform(1e-13, 1e7)),
        noise_power=draw(log_uniform(1e-23, 1e-3)),
        phi=draw(st.just(0.0) | log_uniform(1e-9, 1e3)),
        blockage_model=draw(st.sampled_from(BlockageModel)),
        loss_case=draw(st.sampled_from(LossCase)),
        waveguide_loss_db_per_m=draw(st.floats(0.0, 1.0)),
        constrain_under_waveguide=draw(st.booleans()))


def assert_probability(value, name):
    assert math.isfinite(value) and 0.0 <= value <= 1.0, (name, value)


# The example count was fixed before the first run: about 5 ms an example.
@settings(max_examples=150, deadline=None)
@given(cfg=boxed_configs(), r_target=log_uniform(1e-9, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_every_route_is_finite_and_in_range_across_the_box(cfg, r_target,
                                                           seed):
    p = OutageParams(cfg=cfg, r_target=r_target)
    two = replace(cfg, num_users=2)
    if cfg.blockage_model is BlockageModel.MODEL_A:
        outages = (outage_pin_model_a, outage_pin_model_a_highsnr,
                   outage_conv_model_a_highsnr)
    else:
        outages = (outage_pin_model_b, outage_pin_model_b_highsnr,
                   outage_conv_model_b_highsnr, outage_gap_model_b)
        bracket = two_user_cross_blockage_factor(two)
        assert 0.0 <= bracket <= 0.5, bracket
        rate = ergodic_pin_two_user_highsnr(two)
        assert math.isfinite(rate) and rate >= 0.0, rate
    for fn in outages:
        assert_probability(fn(p), fn.__name__)
    for m in (2, 5):
        bounds = ergodic_conv_highsnr(replace(cfg, num_users=m))
        assert all(math.isfinite(b) and b > 0.0 for b in bounds), (m, bounds)
        assert bounds[-1] == math.fsum(bounds[:-1]), (m, bounds)
    for scheme in Scheme:
        for metric in MetricKind:
            point = p if metric is MetricKind.OUTAGE else two
            for kind, value in counterparts(scheme, metric, point, {}):
                if metric is MetricKind.OUTAGE:
                    assert_probability(value, (scheme, kind))
                else:
                    assert math.isfinite(value) and value >= 0.0, value
    for m in (1, 2, 5):
        cfg_m = replace(cfg, num_users=m)
        for scheme in Scheme:
            (rates,) = _rates_chunk((scheme,), cfg_m, 4,
                                    chunk_generator(seed, 0, 0))
            assert rates.shape == (4, m)
            assert (np.isfinite(rates) & (rates >= 0.0)).all(), (scheme, m,
                                                                  rates)
