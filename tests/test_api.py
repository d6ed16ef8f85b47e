"""The public API: the exported names are an explicit, reviewed list."""

import pytest

import pinchsim
from pinchsim import channel, scenario, transceiver

EXPORTED = [
    "BlockageModel", "ExperimentConfig", "LossCase", "MetricEstimate",
    "MetricKind", "OutageParams", "OutputFormat", "Preset", "Provenance",
    "RunSpec", "SPEED_OF_LIGHT", "Scheme", "SweepAxis", "SweepPoint",
    "SystemConfig", "ThresholdGeometry", "conventional_array_positions",
    "dbm_to_watt", "ergodic_pin_two_user_highsnr", "estimate_conv_rate_bound",
    "estimate_ergodic", "estimate_outage", "outage_conv_model_a_highsnr",
    "outage_conv_model_b_highsnr", "outage_gap_model_b", "outage_pin_model_a",
    "outage_pin_model_a_highsnr", "outage_pin_model_b",
    "outage_pin_model_b_highsnr", "parse_config", "parse_config_file",
    "reproduce_figure", "run_experiment", "strip_los_integral", "sweep",
    "threshold_geometry", "triangular_pdf", "two_user_cross_blockage_factor",
    "watt_to_dbm", "waveguide_y_offsets",
]

# The per-realization object layer, replaced by the batched functions of
# channel and transceiver.
REMOVED = [
    "Placement", "sample_placement", "SystemKind", "BlockageState",
    "ChannelMatrix", "sample_blockage", "build_channel_matrix", "SchemeUsed",
    "RateVector", "zero_forcing_gains", "zero_forcing_precoder",
    "design1_rates", "design2_rates", "conventional_rates",
]


def test_exports_are_the_reviewed_list():
    assert len(EXPORTED) == 40
    assert sorted(pinchsim.__all__) == EXPORTED


def test_every_export_resolves():
    for name in pinchsim.__all__:
        assert getattr(pinchsim, name) is not None, name


@pytest.mark.parametrize("module", [pinchsim, scenario, channel, transceiver],
                         ids=lambda module: module.__name__)
def test_removed_names_stay_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []
