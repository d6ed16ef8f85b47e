"""The public API: the exported names are an explicit, reviewed list."""

import ast
from pathlib import Path

import pytest

import pinchsim
from pinchsim import analytics, channel, cli, montecarlo, scenario, transceiver

EXPORTED = [
    "BlockageModel", "ExperimentConfig", "LossCase", "MetricEstimate",
    "MetricKind", "OutageParams", "OutputFormat", "Preset", "Provenance",
    "RunSpec", "SPEED_OF_LIGHT", "Scheme", "SweepAxis", "SystemConfig",
    "dbm_to_watt", "ergodic_conv_highsnr",
    "ergodic_pin_two_user_highsnr", "estimate_ergodic", "estimate_outage",
    "outage_conv_model_a_highsnr", "outage_conv_model_b_highsnr",
    "outage_gap_model_b", "outage_pin_model_a", "outage_pin_model_a_highsnr",
    "outage_pin_model_b", "outage_pin_model_b_highsnr", "parse_config",
    "reproduce_figure", "run_experiment", "sweep",
    "two_user_cross_blockage_factor", "waveguide_y_offsets",
]

# The per-realization object layer, replaced by the batched functions of
# channel and transceiver; then the names only tests used (explicit
# precoders, a threshold record whose fields OutageParams.tau3 replaces, a
# sweep point repeating the caller's axis value, a file-reading wrapper and
# the inverse dBm conversion); then the Monte-Carlo conventional rate bound,
# replaced by its quadrature ergodic_conv_highsnr; then the MODEL_A mass of
# an arbitrary y interval, as every analytic integrates from y = 0; then the
# conventional array's (M, 3) positions, whose geometry channel alone holds;
# then the triangular density, which no analytic or estimator evaluates.
REMOVED = [
    "Placement", "sample_placement", "SystemKind", "BlockageState",
    "ChannelMatrix", "sample_blockage", "build_channel_matrix", "SchemeUsed",
    "RateVector", "zero_forcing_gains", "zero_forcing_precoder",
    "design1_rates", "design2_rates", "conventional_rates",
    "zf_precoders", "ThresholdGeometry", "threshold_geometry", "SweepPoint",
    "parse_config_file", "watt_to_dbm", "estimate_conv_rate_bound",
    "strip_los_integral", "conventional_array_positions", "triangular_pdf",
]


def test_exports_are_the_reviewed_list():
    assert len(EXPORTED) == 32
    assert sorted(pinchsim.__all__) == EXPORTED


def test_every_export_resolves():
    for name in pinchsim.__all__:
        assert getattr(pinchsim, name) is not None, name


@pytest.mark.parametrize("module", [pinchsim, scenario, channel, transceiver,
                                    analytics, montecarlo, cli],
                         ids=lambda module: module.__name__)
def test_removed_names_stay_gone(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_row_provenance_lives_in_cli():
    # the CLI alone writes rows; the estimators return values and CIs only
    assert pinchsim.Provenance.__module__ == "pinchsim.cli"
    assert not hasattr(montecarlo, "Provenance")


# Each module and the package modules it imports. Both routes take their
# inputs from scenario, so montecarlo and analytics never import each other.
LAYERS = {
    "scenario": set(),
    "channel": {"scenario"},
    "transceiver": {"scenario", "channel"},
    "analytics": {"scenario", "transceiver"},
    "montecarlo": {"scenario", "channel", "transceiver"},
    "cli": {"scenario", "analytics", "montecarlo"},
}


def test_modules_import_only_their_layers_and_scenario_admits_inputs():
    src = Path(pinchsim.__file__).parent
    graph = {}
    for name in LAYERS:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = {
            imported for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for imported in ([node.module.partition(".")[0]] if node.module
                             else [alias.name for alias in node.names])}
    assert graph == LAYERS
    # every admission rule and its message is written in scenario
    for admits in (pinchsim.OutageParams, pinchsim.SweepAxis,
                   montecarlo.sweep_inputs):
        assert admits.__module__ == "pinchsim.scenario", admits
    assert analytics.OutageParams is scenario.OutageParams
