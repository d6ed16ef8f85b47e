"""Simulation and analytics toolkit for downlink pinching-antenna systems
under line-of-sight blockage.

Outage probabilities and ergodic rates are available both from Monte-Carlo
simulation of the full geometric channel model (:mod:`pinchsim.montecarlo`)
and from closed-form or quadrature analytics (:mod:`pinchsim.analytics`),
so the two routes can cross-validate each other.
"""

from .analytics import (
    OutageParams,
    ThresholdGeometry,
    ergodic_pin_two_user_highsnr,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_gap_model_b,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
    outage_pin_model_b_highsnr,
    strip_los_integral,
    threshold_geometry,
    triangular_pdf,
    two_user_cross_blockage_factor,
)
from .cli import (
    ExperimentConfig,
    OutputFormat,
    Preset,
    RunSpec,
    parse_config,
    parse_config_file,
    reproduce_figure,
    run_experiment,
)
from .montecarlo import (
    MetricEstimate,
    MetricKind,
    Provenance,
    Scheme,
    SweepAxis,
    SweepPoint,
    estimate_conv_rate_bound,
    estimate_ergodic,
    estimate_outage,
    sweep,
)
from .scenario import (
    SPEED_OF_LIGHT,
    BlockageModel,
    LossCase,
    SystemConfig,
    conventional_array_positions,
    dbm_to_watt,
    watt_to_dbm,
    waveguide_y_offsets,
)

__version__ = "0.1.0"

__all__ = [
    "OutageParams", "ThresholdGeometry", "ergodic_pin_two_user_highsnr",
    "outage_conv_model_a_highsnr", "outage_conv_model_b_highsnr",
    "outage_gap_model_b", "outage_pin_model_a", "outage_pin_model_a_highsnr",
    "outage_pin_model_b", "outage_pin_model_b_highsnr", "strip_los_integral",
    "threshold_geometry", "triangular_pdf", "two_user_cross_blockage_factor",
    "ExperimentConfig", "OutputFormat", "Preset", "RunSpec", "parse_config",
    "parse_config_file", "reproduce_figure", "run_experiment",
    "MetricEstimate", "MetricKind", "Provenance", "Scheme", "SweepAxis",
    "SweepPoint", "estimate_conv_rate_bound", "estimate_ergodic",
    "estimate_outage", "sweep", "SPEED_OF_LIGHT", "BlockageModel", "LossCase",
    "SystemConfig", "conventional_array_positions", "dbm_to_watt",
    "watt_to_dbm", "waveguide_y_offsets",
]
