"""Config parsing, presets, output schema, CLI entry point."""

import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import analytics, cli, montecarlo
from pinchsim import (
    BlockageModel,
    LossCase,
    MetricKind,
    Preset,
    Scheme,
    SweepAxis,
    parse_config,
    reproduce_figure,
    run_experiment,
)
from pinchsim.cli import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    ConfigError,
    effective_config_text,
    main,
    preset_fields,
)

MANUAL_DOC = """
# hand-written experiment
system.num_users = 2
system.d_w = 10
system.d_l = 40
system.tx_power_dbm = 30
system.phi = 0.1
system.blockage_model = MODEL_A

run.schemes = PIN_D2, CONV
run.metric = ERGODIC_SUM
run.sweep_axis = TX_POWER_DBM
run.axis_values = 10, 20
run.n_trials = 2000
run.master_seed = 7
run.output = {out}
"""


class TestParseConfig:
    def test_minimal_preset_document(self):
        cfg = parse_config("preset = fig2b")
        assert cfg.preset_name == "FIG2B"
        assert cfg.system.num_users == 1
        assert cfg.system.d_w == 5.0
        assert cfg.system.blockage_model is BlockageModel.MODEL_B
        assert cfg.system.loss_case is LossCase.CASE_II
        assert cfg.system.height == 3.0
        assert cfg.system.carrier_freq == 28e9
        assert cfg.tx_power_dbm == 10.0
        assert cfg.noise_dbm == -90.0
        assert cfg.run.metric is MetricKind.OUTAGE
        assert cfg.run.sweep_axis is SweepAxis.D_L

    def test_dbm_conversion_happens_once_at_parse(self):
        cfg = parse_config("preset = fig2b")
        assert np.isclose(cfg.system.noise_power, 1e-12, rtol=1e-12)
        assert np.isclose(cfg.system.tx_power, 0.01, rtol=1e-12)

    def test_preset_overrides_manual_fields(self):
        cfg = parse_config("system.d_w = 99\npreset = fig2b")
        assert cfg.system.d_w == 5.0

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="foo"):
            parse_config("preset = fig1\nfoo = 1")

    def test_missing_required_key_is_named(self):
        doc = MANUAL_DOC.format(out="x.csv").replace("run.metric = ERGODIC_SUM\n", "")
        with pytest.raises(ConfigError, match="run.metric"):
            parse_config(doc)

    def test_out_of_range_value_is_named(self):
        doc = MANUAL_DOC.format(out="x.csv").replace("system.d_w = 10",
                                                     "system.d_w = -3")
        with pytest.raises(ConfigError, match="system.d_w"):
            parse_config(doc)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("preset = fig1\npreset = fig2a")

    def test_outage_without_target_rejected(self):
        doc = MANUAL_DOC.format(out="x.csv").replace(
            "run.metric = ERGODIC_SUM", "run.metric = OUTAGE")
        with pytest.raises(ConfigError, match="r_target"):
            parse_config(doc)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a key value pair")

    def test_bad_enum_token_rejected(self):
        doc = MANUAL_DOC.format(out="x.csv").replace("MODEL_A", "MODEL_X")
        with pytest.raises(ConfigError, match="system.blockage_model"):
            parse_config(doc)

    @pytest.mark.parametrize("line, message", [
        ("system.constrain_under_waveguide = yes",
         "^system.constrain_under_waveguide: expected true or false, "
         "got 'yes'$"),
        ("run.schemes = ,", "^run.schemes: expected at least one scheme$"),
        ("run.output =", "^run.output: expected a path$"),
    ], ids=["bool", "schemes", "output"])
    def test_bad_or_empty_value_is_named(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(manual_doc(line))

    def test_target_axis_needs_the_outage_metric(self):
        doc = manual_doc("run.sweep_axis = R_TARGET", "run.axis_values = 5, 6")
        with pytest.raises(ConfigError, match="^run.sweep_axis: R_TARGET"):
            parse_config(doc)


def manual_doc(*lines: str, out="x.csv") -> str:
    """MANUAL_DOC with each of ``lines`` replacing its key's line, if any."""
    keys = {line.split("=")[0].strip() for line in lines}
    kept = [line for line in MANUAL_DOC.format(out=out).splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + list(lines)) + "\n"


class TestNonFiniteValues:
    """nan and inf never get past the parser, for any float key."""

    @pytest.mark.parametrize("lines", [
        ("system.phi = nan",),
        ("system.loss_case = CASE_II", "system.waveguide_loss_db_per_m = nan"),
        ("system.tx_power_dbm = inf",),
        ("system.d_l = -inf",),
        ("run.axis_values = 10, nan",),
        ("run.metric = OUTAGE", "run.r_target = inf"),
        ("system.d_w = ten",),
    ])
    def test_rejected_naming_the_key(self, lines):
        key = lines[-1].split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
            parse_config(manual_doc(*lines))

    TX = "system.tx_power_dbm: must be in [1e-13, 1e+07] W (-100 to 100 dBm)"
    NOISE = "system.noise_dbm: must be in [1e-23, 0.001] W (-200 to 0 dBm)"

    @pytest.mark.parametrize("line, message", [
        # 10 ** 397 W overflows a float; 10 ** -403 W underflows to 0
        ("system.tx_power_dbm = 4000", TX),
        ("system.noise_dbm = -4000", NOISE),
        # just past the box's edges
        ("system.tx_power_dbm = 100.000000001", TX),
        ("system.tx_power_dbm = -100.000000001", TX),
        ("system.noise_dbm = 0.000000001", NOISE),
        ("system.noise_dbm = -200.000000001", NOISE),
    ])
    def test_dbm_beyond_the_float_range_is_named(self, line, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(manual_doc(line))


class TestPresetTables:
    """Deployment constants pinned by the bundled presets."""

    def test_common_constants(self):
        for preset in Preset:
            f = preset_fields(preset)
            assert f["system.height"] == 3.0
            assert f["system.carrier_freq_hz"] == 28e9
            assert f["system.noise_dbm"] == -90.0
            assert f["system.waveguide_loss_db_per_m"] == 0.08
            assert f["system.phi"] == 0.1

    def test_fig1(self):
        f = preset_fields(Preset.FIG1)
        assert f["system.num_users"] == 1
        assert f["system.d_w"] == 10.0 and f["system.d_l"] == 40.0
        assert f["system.blockage_model"] is BlockageModel.MODEL_A
        assert f["run.sweep_axis"] is SweepAxis.TX_POWER_DBM

    def test_fig2a(self):
        f = preset_fields(Preset.FIG2A)
        assert f["system.num_users"] == 1
        assert f["system.blockage_model"] is BlockageModel.MODEL_A
        assert f["system.loss_case"] is LossCase.CASE_II
        assert f["system.tx_power_dbm"] == 10.0
        assert f["run.sweep_axis"] is SweepAxis.D_L

    def test_fig2b(self):
        f = preset_fields(Preset.FIG2B)
        assert f["system.d_w"] == 5.0
        assert f["system.blockage_model"] is BlockageModel.MODEL_B
        assert f["system.loss_case"] is LossCase.CASE_II
        assert f["system.tx_power_dbm"] == 10.0
        # documented rule: distance threshold sits at twice the height
        cfg = parse_config("preset = fig2b")
        from pinchsim import OutageParams
        tau1 = OutageParams(cfg=cfg.system, r_target=cfg.run.r_target).tau1
        assert tau1 == pytest.approx(6.0, rel=1e-9)

    def test_fig3(self):
        fa = preset_fields(Preset.FIG3A)
        fb = preset_fields(Preset.FIG3B)
        assert fa["system.num_users"] == 2 and fb["system.num_users"] == 5
        for f in (fa, fb):
            assert f["system.d_w"] == 10.0 and f["system.d_l"] == 40.0
            assert f["system.blockage_model"] is BlockageModel.MODEL_A
            assert f["run.schemes"] == (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV)

    def test_fig4(self):
        f = preset_fields(Preset.FIG4)
        assert f["system.num_users"] == 2
        assert f["system.blockage_model"] is BlockageModel.MODEL_B
        assert f["system.constrain_under_waveguide"] is True
        assert f["run.metric"] is MetricKind.ERGODIC_PER_USER

    def test_every_field_of_every_preset(self):
        # Spelled out key by key, so that a typo in the preset table fails.
        shared = {
            "system.height": 3.0,
            "system.carrier_freq_hz": 28e9,
            "system.noise_dbm": -90.0,
            "system.waveguide_loss_db_per_m": 0.08,
            "system.phi": 0.1,
            "system.d_l": 40.0,
            "system.tx_power_dbm": 10.0,
            "run.master_seed": 12345,
            "run.analytics": True,
        }
        powers = (10.0, 20.0, 30.0, 40.0)
        lengths = (10.0, 20.0, 40.0, 80.0)
        pin_d2_conv = (Scheme.PIN_D2, Scheme.CONV)
        all_three = (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV)
        expected = {
            Preset.FIG1: {
                "system.num_users": 1, "system.d_w": 10.0,
                "system.blockage_model": BlockageModel.MODEL_A,
                "system.loss_case": LossCase.CASE_I,
                "system.constrain_under_waveguide": False,
                "run.schemes": pin_d2_conv,
                "run.metric": MetricKind.ERGODIC_SUM,
                "run.sweep_axis": SweepAxis.TX_POWER_DBM,
                "run.axis_values": powers,
                "run.n_trials": 100000, "run.output": "fig1.csv"},
            Preset.FIG2A: {
                "system.num_users": 1, "system.d_w": 10.0,
                "system.blockage_model": BlockageModel.MODEL_A,
                "system.loss_case": LossCase.CASE_II,
                "system.constrain_under_waveguide": False,
                "run.schemes": pin_d2_conv,
                "run.metric": MetricKind.OUTAGE,
                "run.sweep_axis": SweepAxis.D_L,
                "run.axis_values": lengths,
                "run.r_target": 7.662862522672084,
                "run.n_trials": 200000, "run.output": "fig2a.csv"},
            Preset.FIG2B: {
                "system.num_users": 1, "system.d_w": 5.0,
                "system.blockage_model": BlockageModel.MODEL_B,
                "system.loss_case": LossCase.CASE_II,
                "system.constrain_under_waveguide": False,
                "run.schemes": pin_d2_conv,
                "run.metric": MetricKind.OUTAGE,
                "run.sweep_axis": SweepAxis.D_L,
                "run.axis_values": lengths,
                "run.r_target": 7.662862522672084,
                "run.n_trials": 200000, "run.output": "fig2b.csv"},
            Preset.FIG3A: {
                "system.num_users": 2, "system.d_w": 10.0,
                "system.blockage_model": BlockageModel.MODEL_A,
                "system.loss_case": LossCase.CASE_I,
                "system.constrain_under_waveguide": False,
                "run.schemes": all_three,
                "run.metric": MetricKind.ERGODIC_SUM,
                "run.sweep_axis": SweepAxis.TX_POWER_DBM,
                "run.axis_values": powers,
                "run.n_trials": 100000, "run.output": "fig3a.csv"},
            Preset.FIG3B: {
                "system.num_users": 5, "system.d_w": 10.0,
                "system.blockage_model": BlockageModel.MODEL_A,
                "system.loss_case": LossCase.CASE_I,
                "system.constrain_under_waveguide": False,
                "run.schemes": all_three,
                "run.metric": MetricKind.ERGODIC_SUM,
                "run.sweep_axis": SweepAxis.TX_POWER_DBM,
                "run.axis_values": powers,
                "run.n_trials": 100000, "run.output": "fig3b.csv"},
            Preset.FIG4: {
                "system.num_users": 2, "system.d_w": 10.0,
                "system.blockage_model": BlockageModel.MODEL_B,
                "system.loss_case": LossCase.CASE_I,
                "system.constrain_under_waveguide": True,
                "run.schemes": pin_d2_conv,
                "run.metric": MetricKind.ERGODIC_PER_USER,
                "run.sweep_axis": SweepAxis.TX_POWER_DBM,
                "run.axis_values": powers,
                "run.n_trials": 100000, "run.output": "fig4.csv"},
        }
        assert list(expected) == list(Preset)
        for preset, own in expected.items():
            assert preset_fields(preset) == {**shared, **own}, preset


class TestRoundTrip:
    def test_effective_config_reparses_identically(self, tmp_path):
        doc = MANUAL_DOC.format(out=tmp_path / "r.csv")
        cfg = parse_config(doc)
        echoed = parse_config(effective_config_text(cfg))
        assert echoed == cfg

    def test_preset_echo_is_fully_expanded(self, tmp_path):
        cfg = parse_config("preset = fig2b")
        text = effective_config_text(cfg)
        assert "preset" not in [line.split("=")[0].strip()
                                for line in text.splitlines()
                                if "=" in line and not line.startswith("#")]
        echoed = parse_config(text)
        assert echoed == cfg

    def test_echo_written_next_to_results(self, tmp_path):
        doc = MANUAL_DOC.format(out=tmp_path / "r.csv")
        cfg = parse_config(doc)
        paths = run_experiment(cfg)
        assert paths[1].name == "r.csv.config"
        assert parse_config(paths[1].read_text()) == cfg


# Raw-token domain of every config key, for documents the parser must accept.
def _num(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


def _tokens(enum_cls):
    return st.sampled_from([m.value for m in enum_cls])


KEY_DOMAINS = {
    "preset": _tokens(Preset),
    "system.num_users": st.integers(1, 16).map(str),
    "system.d_w": _num(1e-2, 1e4),
    "system.d_l": _num(1e-2, 1e4),
    "system.height": _num(1e-2, 1e3),
    "system.carrier_freq_hz": _num(1e8, 1e12),
    "system.noise_dbm": _num(-200.0, 0.0),
    "system.tx_power_dbm": _num(-100.0, 100.0),
    "system.blockage_model": _tokens(BlockageModel),
    "system.phi": st.just("0.0") | _num(1e-9, 1e3),
    "system.loss_case": _tokens(LossCase),
    "system.waveguide_loss_db_per_m": _num(0.0, 1.0),
    "system.constrain_under_waveguide": st.sampled_from(["true", "false"]),
    "run.schemes": st.lists(_tokens(Scheme), min_size=1,
                            max_size=4).map(", ".join),
    "run.metric": _tokens(MetricKind),
    "run.sweep_axis": _tokens(SweepAxis),
    "run.axis_values": st.lists(st.floats(-100.0, 100.0), min_size=1,
                                max_size=5,
                                unique=True).map(
        lambda v: ", ".join(repr(x) for x in sorted(v))),
    "run.r_target": _num(1e-6, 50.0),
    "run.n_trials": st.integers(1, 10 ** 7).map(str),
    "run.master_seed": st.integers(0, 2 ** 64).map(str),
    "run.workers": st.integers(1, 64).map(str),
    "run.output": st.from_regex(r"[a-z0-9_./-]{1,20}", fullmatch=True),
    "run.format": _tokens(cli.OutputFormat),
    "run.analytics": st.sampled_from(["true", "false"]),
}


# Sweep values the D_L and R_TARGET axes admit; KEY_DOMAINS has the
# TX_POWER_DBM ones.
POSITIVE_AXIS_VALUES = st.lists(st.floats(1e-2, 1e3), min_size=1, max_size=5,
                                unique=True).map(
    lambda v: ", ".join(repr(x) for x in sorted(v)))


@st.composite
def valid_documents(draw):
    """Every required key, a random subset of the optional ones."""
    values = {}
    for k in cli._KEYS:
        if k.default is cli._REQUIRED or draw(st.booleans()):
            values[k.key] = draw(KEY_DOMAINS[k.key])
    if values["run.sweep_axis"] != "TX_POWER_DBM":
        values["run.axis_values"] = draw(POSITIVE_AXIS_VALUES)
    if values["run.sweep_axis"] == "R_TARGET":
        values["run.metric"] = "OUTAGE"
    if values["run.metric"] == "OUTAGE" and values["run.sweep_axis"] != "R_TARGET":
        values.setdefault("run.r_target", draw(KEY_DOMAINS["run.r_target"]))
    lines = draw(st.permutations([f"{k} = {v}" for k, v in values.items()]))
    return "\n".join(lines)


class TestRoundTripProperty:
    def test_domains_cover_exactly_the_schema(self):
        assert list(KEY_DOMAINS) == [k.key for k in cli._KEYS]

    @settings(max_examples=200, deadline=None)
    @given(doc=valid_documents())
    def test_echo_of_any_valid_document_reparses_equal(self, doc):
        cfg = parse_config(doc)
        assert parse_config(effective_config_text(cfg)) == cfg


# Run keys set outside their domain, as raw tokens (None drops the key),
# with the keys that make the change the document's only fault.
OUT_OF_DOMAIN_RUN = st.one_of(
    st.builds(lambda axis, v: {"run.metric": "OUTAGE", "run.r_target": "5",
                               "run.sweep_axis": axis,
                               "run.axis_values": f"{v!r}, 1000.5"},
              st.sampled_from(["D_L", "R_TARGET"]), st.floats(-1e3, 0.0)),
    # past the box's longest area or largest target
    st.builds(lambda axis, v: {"run.metric": "OUTAGE", "run.r_target": "5",
                               "run.sweep_axis": axis,
                               "run.axis_values": f"1.5, {v!r}"},
              st.sampled_from(["D_L", "R_TARGET"]),
              st.floats(1e4, 1e300, exclude_min=True)),
    # past -100 or 100 dBm (from 3083 dBm on, 10 ** ((v - 30) / 10) W
    # overflows a float)
    st.builds(lambda v: {"run.r_target": "5", "run.sweep_axis": "TX_POWER_DBM",
                         "run.axis_values": f"-100.0, {v!r}"},
              st.floats(100.0, 1e300, exclude_min=True)),
    st.builds(lambda v: {"run.r_target": "5", "run.sweep_axis": "TX_POWER_DBM",
                         "run.axis_values": f"{v!r}, 100.0"},
              st.floats(-1e300, -100.0, exclude_max=True)),
    st.builds(lambda metric, r: {"run.metric": metric, "run.r_target": r},
              _tokens(MetricKind),
              st.just(None) | _num(-1e3, 0.0)
              | st.floats(0.0, 1e-9, exclude_max=True).map(repr)
              | st.floats(1e3, 1e300, exclude_min=True).map(repr)),
    st.builds(lambda metric: {"run.metric": metric, "run.sweep_axis": "R_TARGET",
                              "run.axis_values": "1.5, 2.5"},
              st.sampled_from(["ERGODIC_SUM", "ERGODIC_PER_USER"])),
    st.sampled_from([{"run.n_trials": "0"}, {"run.workers": "0"},
                     {"run.master_seed": "-1"}]),
)


class _Reached(Exception):
    """Raised by a stubbed estimator: the sweep passed its checks."""


def _reached(*args, **kwargs):
    raise _Reached


class TestLibraryAgreement:
    """parse_config rejects a document exactly when montecarlo.sweep rejects
    its values before the first estimate, and names the key."""

    @settings(max_examples=300, deadline=None)
    @given(doc=valid_documents(), change=OUT_OF_DOMAIN_RUN)
    def test_parse_config_rejects_what_sweep_rejects(self, doc, change):
        values = dict(line.split(" = ", 1) for line in doc.splitlines())
        values.pop("preset", None)  # its fields would replace the change
        system = parse_config(
            "\n".join(f"{k} = {v}" for k, v in values.items())).system
        values.update(change)
        values = {k: v for k, v in values.items() if v is not None}
        run = {k.target: k.parse(values[k.key]) if k.key in values
               else k.default for k in cli._KEYS if k.key.startswith("run.")}
        with mock.patch.object(montecarlo, "estimate_outage", _reached), \
                mock.patch.object(montecarlo, "estimate_ergodic", _reached):
            try:
                montecarlo.sweep(system, run["schemes"], run["sweep_axis"],
                                 run["axis_values"], run["metric"],
                                 run["n_trials"], run["master_seed"],
                                 r_target=run["r_target"],
                                 workers=run["workers"])
            except _Reached:
                library_error = None
            except ValueError as exc:
                library_error = exc
        try:
            parse_config("\n".join(f"{k} = {v}" for k, v in values.items()))
            cli_error = None
        except ConfigError as exc:
            cli_error = str(exc)
        assert (cli_error is None) == (library_error is None), (
            cli_error, library_error)
        if cli_error is not None:
            key, sep, _ = cli_error.partition(": ")
            assert sep and key in cli._SCHEMA, cli_error


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    """The README's config reference is the schema's, key for key."""

    def test_key_table_matches_the_schema(self):
        text = README.read_text(encoding="utf-8")
        lines = text.split("All keys, with defaults", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines)
                     if line.startswith("| key |"))
        rows = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            key, default = [c.strip() for c in line.strip("|").split("|")][:2]
            rows.append((key.strip("`"), default))
        assert [key for key, _ in rows] == [k.key for k in cli._KEYS]
        for key, cell in rows:
            entry = cli._SCHEMA[key]
            if cell == "required":
                assert entry.default is cli._REQUIRED, key
            elif cell == "none":
                assert entry.default is None, key
            else:
                assert entry.default not in (None, cli._REQUIRED), key
                assert entry.parse(cell) == entry.default, key

    def test_example_document_parses(self):
        text = README.read_text(encoding="utf-8")
        example = text.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(example)
        assert cfg.system.num_users == 2
        assert cfg.run.schemes == tuple(Scheme)


class TestRunExperiment:
    def run_small(self, tmp_path, extra="", out_name="r.csv"):
        doc = MANUAL_DOC.format(out=tmp_path / out_name) + extra
        cfg = parse_config(doc)
        return cfg, run_experiment(cfg)

    def test_csv_schema_and_columns(self, tmp_path):
        _, paths = self.run_small(tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == f"# schema: {SCHEMA_VERSION}"
        rows = list(csv.DictReader(lines[1:]))
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        # 2 schemes x 2 axis values, no closed form for this setup
        assert len(rows) == 4
        assert {r["provenance"] for r in rows} == {"SIMULATED"}
        assert {r["axis_name"] for r in rows} == {"TX_POWER_DBM"}
        assert all(int(r["n_trials"]) == 2000 for r in rows)
        assert all(int(r["seed"]) == 7 for r in rows)

    def test_rerun_is_byte_identical(self, tmp_path):
        _, first = self.run_small(tmp_path)
        data1 = first[0].read_bytes()
        _, second = self.run_small(tmp_path)
        assert second[0].read_bytes() == data1

    def test_json_format(self, tmp_path):
        _, paths = self.run_small(tmp_path, extra="run.format = json\n",
                                  out_name="r.json")
        doc = json.loads(paths[0].read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert len(doc["rows"]) == 4
        assert set(doc["rows"][0]) == set(CSV_COLUMNS)

    def test_outage_preset_emits_closed_form_overlay(self, tmp_path):
        doc = (f"preset = fig2b\nrun.output = {tmp_path / 'f.csv'}\n"
               "run.n_trials = 2000")
        # manual n_trials loses to the preset, so override via replace
        cfg = parse_config(doc)
        from dataclasses import replace
        cfg = replace(cfg, run=replace(cfg.run, n_trials=2000,
                                       output=str(tmp_path / "f.csv")))
        paths = run_experiment(cfg)
        rows = list(csv.DictReader(paths[0].read_text().splitlines()[1:]))
        sim = [r for r in rows if r["provenance"] == "SIMULATED"]
        closed = [r for r in rows if r["provenance"] == "CLOSED_FORM"]
        assert len(sim) == 8 and len(closed) == 8  # 2 schemes x 4 lengths
        assert all(int(r["n_trials"]) == 2000 for r in sim)
        assert all(int(r["n_trials"]) == 0 for r in closed)
        assert all(float(r["ci_half_width"]) == 0.0 for r in closed)
        for r in closed:
            assert 0.0 <= float(r["value"]) <= 1.0

    @pytest.mark.parametrize("model", list(BlockageModel))
    def test_pinned_single_user_outage_writes_simulated_rows_only(
            self, tmp_path, model):
        # every outage analytic spreads the user over its strip, so a user
        # pinned under its waveguide gets no CLOSED_FORM row beside it
        out = tmp_path / "pinned.csv"
        cfg = parse_config(f"preset = fig2a\nrun.output = {out}")
        cfg = replace(cfg, system=replace(cfg.system, blockage_model=model,
                                          constrain_under_waveguide=True),
                      run=replace(cfg.run, n_trials=2000,
                                  schemes=tuple(Scheme), output=str(out)))
        assert cfg.system.num_users == 1
        assert cfg.run.metric is MetricKind.OUTAGE
        paths = run_experiment(cfg)
        rows = list(csv.DictReader(paths[0].read_text().splitlines()[1:]))
        assert len(rows) == 3 * len(cfg.run.axis_values)
        assert {r["provenance"] for r in rows} == {"SIMULATED"}

    def test_per_user_metric_rows(self, tmp_path):
        doc = f"preset = fig4\nrun.output = {tmp_path / 'f4.csv'}"
        cfg = parse_config(doc)
        from dataclasses import replace
        cfg = replace(cfg, run=replace(cfg.run, n_trials=2000,
                                       axis_values=(30.0,),
                                       output=str(tmp_path / "f4.csv")))
        paths = run_experiment(cfg)
        rows = list(csv.DictReader(paths[0].read_text().splitlines()[1:]))
        pin_rows = [r for r in rows if r["scheme"] == "PIN_D2"]
        metrics = [r["metric"] for r in pin_rows]
        assert metrics == ["ERGODIC_USER_1", "ERGODIC_USER_2", "ERGODIC_USER_1"]
        assert pin_rows[2]["provenance"] == "CLOSED_FORM"
        # symmetric users: simulated per-user values straddle the analytics
        sim_mean = 0.5 * (float(pin_rows[0]["value"]) + float(pin_rows[1]["value"]))
        assert sim_mean == pytest.approx(float(pin_rows[2]["value"]), rel=0.1)

    def test_unwritable_output_raises_oserror(self, tmp_path):
        doc = MANUAL_DOC.format(out="/nonexistent-dir/r.csv")
        with pytest.raises(OSError):
            run_experiment(parse_config(doc))

    def test_failing_render_writes_nothing(self, tmp_path, monkeypatch):
        cfg = parse_config(MANUAL_DOC.format(out=tmp_path / "r.csv"))

        def fail(cfg):
            raise RuntimeError("render failed")

        monkeypatch.setattr(cli, "effective_config_text", fail)
        with pytest.raises(RuntimeError):
            run_experiment(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_failing_echo_write_keeps_the_old_result(self, tmp_path,
                                                     monkeypatch):
        out = tmp_path / "r.csv"
        out.write_text("old results\n")
        cfg = parse_config(MANUAL_DOC.format(out=out))
        write_text = Path.write_text

        def failing_write(path, *args, **kwargs):
            if ".config." in path.name:
                raise OSError("disk full")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert out.read_text() == "old results\n"


class TestCollectRows:
    """All schemes of a run come from one sweep, in the frozen row order."""

    @pytest.mark.parametrize("doc", [
        MANUAL_DOC.format(out="x.csv"),
        # M = 1 outage with closed-form rows after each simulated point
        "preset = fig2b",
    ], ids=["manual", "fig2b"])
    def test_three_schemes_equal_three_one_scheme_runs(self, doc):
        cfg = parse_config(doc)
        cfg = replace(cfg, run=replace(cfg.run, n_trials=3000,
                                       schemes=tuple(Scheme)))
        one_by_one = []
        for scheme in Scheme:
            single = replace(cfg, run=replace(cfg.run, schemes=(scheme,)))
            one_by_one += cli.collect_rows(single)
        rows = cli.collect_rows(cfg)
        assert rows == one_by_one

    def test_high_snr_floors_once_per_run_over_a_target_sweep(
            self, monkeypatch):
        # the MODEL_A floors do not depend on r_target; 8 points share them
        cfg = parse_config("""
            system.num_users = 1
            system.d_w = 10
            system.d_l = 40
            system.tx_power_dbm = 10
            system.phi = 0.1
            system.blockage_model = MODEL_A
            run.schemes = PIN_D2, CONV
            run.metric = OUTAGE
            run.sweep_axis = R_TARGET
            run.axis_values = 1, 2, 3, 4, 5, 6, 7, 8
            run.n_trials = 256
            run.master_seed = 3
            run.output = x.csv
            """)
        calls = {}

        def counting(name):
            inner = getattr(cli, name)

            def wrapper(p):
                calls[name] = calls.get(name, 0) + 1
                return inner(p)
            monkeypatch.setattr(cli, name, wrapper)

        floors = ("outage_pin_model_a_highsnr", "outage_conv_model_a_highsnr")
        for name in floors:
            counting(name)
        rows = cli.collect_rows(cfg)
        assert calls == dict.fromkeys(floors, 1)
        closed = [r for r in rows if r["provenance"] == "CLOSED_FORM"]
        assert len(closed) == 16
        point = analytics.OutageParams(cfg=cfg.system, r_target=1.0)
        for row in closed:
            floor = (analytics.outage_conv_model_a_highsnr
                     if row["scheme"] == "CONV"
                     else analytics.outage_pin_model_a_highsnr)
            assert row["value"] == floor(point)
        # nothing is kept from one run to the next
        cli.collect_rows(cfg)
        assert calls == dict.fromkeys(floors, 2)


class TestReproduceFigure:
    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="'fig9'") as info:
            reproduce_figure("fig9", tmp_path)
        message = str(info.value).lower()
        assert all(p.value.lower() in message for p in Preset)

    def test_fig2a_outputs(self, tmp_path):
        paths = reproduce_figure("fig2a", tmp_path, n_trials=2000)
        names = {p.name for p in paths}
        assert names == {"fig2a.csv", "fig2a.csv.config", "fig2a.gp"}
        rows = list(csv.DictReader(
            (tmp_path / "fig2a.csv").read_text().splitlines()[1:]))
        assert {r["provenance"] for r in rows} == {"SIMULATED", "CLOSED_FORM"}
        stub = (tmp_path / "fig2a.gp").read_text()
        assert "using 3:" in stub and "column(5)" in stub

    def test_failing_stub_writes_nothing(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("stub failed")

        monkeypatch.setattr(cli, "_plot_stub", fail)
        with pytest.raises(RuntimeError):
            reproduce_figure("fig1", tmp_path, n_trials=200)
        assert list(tmp_path.iterdir()) == []

    def test_fig1_emits_both_loss_cases(self, tmp_path):
        paths = reproduce_figure(Preset.FIG1, tmp_path, n_trials=1000)
        names = {p.name for p in paths}
        assert {"fig1_case_i.csv", "fig1_case_ii.csv", "fig1.gp"} <= names
        echo = (tmp_path / "fig1_case_ii.csv.config").read_text()
        assert "system.loss_case = CASE_II" in echo


class TestMainEntryPoint:
    def test_simulate_with_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MANUAL_DOC.format(out=tmp_path / "a.csv"))
        out_path = tmp_path / "b.csv"
        rc = main(["simulate", str(cfg_path), "--trials", "500", "--seed", "3",
                   "--out", str(out_path)])
        assert rc == 0
        rows = list(csv.DictReader(out_path.read_text().splitlines()[1:]))
        assert all(int(r["n_trials"]) == 500 for r in rows)
        assert all(int(r["seed"]) == 3 for r in rows)
        assert str(out_path) in capsys.readouterr().out

    # Each bounded key: its two edges, then a value just past each (for the
    # dBm keys, far enough past that its watts leave the box too).
    BOX_KEYS = [
        ("system.d_w", "0.01", "10000", "0.009999999999999998",
         "10000.000000000002"),
        ("system.d_l", "0.01", "10000", "0.009999999999999998",
         "10000.000000000002"),
        ("system.height", "0.01", "1000", "0.009999999999999998",
         "1000.0000000000001"),
        ("system.carrier_freq_hz", "1e8", "1e12", "99999999.99999999",
         "1000000000000.0001"),
        ("system.tx_power_dbm", "-100", "100", "-100.000000001",
         "100.000000001"),
        ("system.noise_dbm", "-200", "0", "-200.000000001", "0.000000001"),
        ("system.phi", "1e-9", "1000", "9.999999999999999e-10",
         "1000.0000000000001"),
        ("system.waveguide_loss_db_per_m", "0", "1", "-5e-324",
         "1.0000000000000002"),
        ("run.r_target", "1e-9", "1000", "9.999999999999999e-10",
         "1000.0000000000001"),
    ]

    @pytest.mark.parametrize("key, low, high, below, above", BOX_KEYS,
                             ids=[k[0] for k in BOX_KEYS])
    def test_box_edges_run_and_values_past_them_are_one_line(
            self, tmp_path, capsys, key, low, high, below, above):
        cfg_path = tmp_path / "exp.cfg"

        def doc(value, out):
            lines = {"run.metric": "OUTAGE", "run.r_target": "5",
                     "run.n_trials": "64", key: value}
            return manual_doc(*(f"{k} = {v}" for k, v in lines.items()),
                              out=out)

        for value in (low, high):
            out = tmp_path / f"edge{value}.csv"
            cfg_path.write_text(doc(value, out))
            assert main(["simulate", str(cfg_path)]) == 0
            assert capsys.readouterr().err == ""
            out.unlink()
            out.with_name(f"{out.name}.config").unlink()
        for value in (below, above):
            cfg_path.write_text(doc(value, tmp_path / "r.csv"))
            assert main(["simulate", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: must be in ["), err
            assert err.count("\n") == 1
            assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_figure_subcommand(self, tmp_path):
        rc = main(["figure", "fig3a", "--out", str(tmp_path), "--trials", "300"])
        assert rc == 0
        assert (tmp_path / "fig3a.csv").exists()
        rows = list(csv.DictReader(
            (tmp_path / "fig3a.csv").read_text().splitlines()[1:]))
        assert {r["scheme"] for r in rows} == {"PIN_D1", "PIN_D2", "CONV"}

    @pytest.mark.parametrize("command", ["simulate", "figure"])
    def test_help_documents_every_shared_override(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        for flag, key in (("--trials", "run.n_trials"),
                          ("--seed", "run.master_seed"),
                          ("--workers", "run.workers")):
            assert f"override {key}" in out and flag in out

    @pytest.mark.parametrize("flag, value, key", [
        ("--workers", "0", "run.workers"),
        ("--seed", "-1", "run.master_seed"),
        ("--trials", "many", "run.n_trials"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "figure"])
    def test_invalid_override_is_one_line_naming_the_key(
            self, tmp_path, capsys, command, flag, value, key):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MANUAL_DOC.format(out=tmp_path / "a.csv"))
        out_dir = tmp_path / "figs"
        argv = (["simulate", str(cfg_path)] if command == "simulate"
                else ["figure", "fig2b", "--out", str(out_dir)])
        assert main(argv + [flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["exp.cfg"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, out", [
        ("simulate", " r.csv"), ("simulate", "r.csv\t"),
        ("simulate", "r\n.csv"), ("simulate", "r\u2028.csv"),
        ("simulate", "r\x1c.csv"), ("figure", " figs"),
        ("figure", "figs\nx"), ("figure", "figs\rx"),
    ])
    def test_output_path_the_echo_cannot_hold_is_rejected(
            self, tmp_path, capsys, monkeypatch, command, out):
        # the echo strips each value and reads one key per line
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text(MANUAL_DOC.format(out="a.csv"))
        argv = (["simulate", "exp.cfg"] if command == "simulate"
                else ["figure", "fig2b", "--trials", "100"])
        assert main(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.output: expected a path without ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    @pytest.mark.parametrize("axis, values, message", [
        ("D_L", (10.0, 10000.000000000002),
         "at D_L = 10000.000000000002: d_l must be in [0.01, 10000] m"),
        ("R_TARGET", (9.999999999999999e-10, 5.0),
         "at R_TARGET = 9.999999999999999e-10: r_target must be in "
         "[1e-09, 1000] bits/s/Hz"),
        ("TX_POWER_DBM", (10.0, 100.000000001),
         "at TX_POWER_DBM = 100.000000001: tx_power must be in "
         "[1e-13, 1e+07] W (-100 to 100 dBm)"),
    ], ids=["D_L", "R_TARGET", "TX_POWER_DBM"])
    @pytest.mark.parametrize("command", ["simulate", "figure"])
    def test_axis_value_out_of_its_domain_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch, command, axis, values, message):
        out_dir = tmp_path / "figs"
        if command == "simulate":
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(manual_doc(
                "run.metric = OUTAGE", "run.r_target = 5",
                f"run.sweep_axis = {axis}",
                "run.axis_values = " + ", ".join(map(str, values)),
                out=tmp_path / "a.csv"))
            argv = ["simulate", str(cfg_path)]
        else:
            # figure takes no axis values, so a preset is made to carry them
            original = cli.preset_fields

            def bad_values(preset):
                return {**original(preset), "run.sweep_axis": SweepAxis(axis),
                        "run.axis_values": values}
            monkeypatch.setattr(cli, "preset_fields", bad_values)
            argv = ["figure", "fig2a", "--out", str(out_dir)]
        sweeps = []
        monkeypatch.setattr(cli, "sweep", lambda *a, **kw: sweeps.append(a))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: run.axis_values: {message}\n"
        assert sweeps == []
        assert [p.name for p in tmp_path.iterdir() if p.is_file()] == (
            ["exp.cfg"] if command == "simulate" else [])
        assert not out_dir.exists()

    # Values far past the box, which it now rejects, where the free-space
    # gain or the gain at distance height left the float range before the
    # box: 1e300 Hz and heights of 1e300 and 1e160 m raised an unnamed
    # "(34, 'Numerical result out of range')", 1e-300 Hz a division by zero,
    # and 1e-160 Hz and a height of 1e-200 m ran on NaN rates, the outage
    # reading 0.0, with RuntimeWarnings (which this suite makes errors).
    @pytest.mark.parametrize("lines, key", [
        (("system.carrier_freq_hz = 1e300",), "system.carrier_freq_hz"),
        (("system.carrier_freq_hz = 1e-300",), "system.carrier_freq_hz"),
        (("system.carrier_freq_hz = 1e-160", "run.schemes = PIN_D1, PIN_D2",
          "run.metric = OUTAGE", "run.r_target = 2"),
         "system.carrier_freq_hz"),
        (("system.height = 1e-200", "system.constrain_under_waveguide = true"),
         "system.height"),
        (("system.height = 1e300", "system.blockage_model = MODEL_B",
          "run.metric = OUTAGE", "run.r_target = 2"), "system.height"),
        (("system.height = 1e160", "system.blockage_model = MODEL_B",
          "run.metric = OUTAGE", "run.r_target = 2"), "system.height"),
    ])
    def test_gain_beyond_the_float_range_is_one_line_naming_the_key(
            self, tmp_path, capsys, lines, key):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(manual_doc(*lines, "run.n_trials = 64",
                                       out=tmp_path / "r.csv"))
        assert main(["simulate", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: must ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_removed_n_eff_key_is_one_line_naming_it(self, tmp_path, capsys):
        # the in-waveguide phase it set is not modeled, as no rate sees it
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(manual_doc("system.n_eff = 1.4",
                                       out=tmp_path / "r.csv"))
        assert main(["simulate", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'system.n_eff'" in err
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    # fig4-shaped runs at the box's longest and widest areas, where past
    # the float range the two-user analytic squared d_l or the waveguide
    # spacing and exited 1 with "(34, 'Numerical result out of range')"
    @pytest.mark.parametrize("line", ["system.d_l = 1e4",
                                      "system.d_w = 1e4"])
    def test_two_user_analytic_at_the_box_corners_runs(self, tmp_path,
                                                       line):
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfg_path.write_text(manual_doc(
            line, "system.blockage_model = MODEL_B",
            "system.constrain_under_waveguide = true", "run.schemes = PIN_D2",
            "run.metric = ERGODIC_PER_USER", "run.n_trials = 64", out=out))
        assert main(["simulate", str(cfg_path)]) == 0
        closed = [row.split(",") for row in out.read_text().splitlines()
                  if ",CLOSED_FORM," in row]
        assert len(closed) == 2  # user 1 at each power
        assert all(math.isfinite(float(row[4])) for row in closed)

    def test_bad_config_returns_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("nonsense = 1")
        assert main(["simulate", str(cfg_path)]) == 1
        assert "nonsense" in capsys.readouterr().err

    def test_unwritable_output_returns_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(MANUAL_DOC.format(out="/nonexistent-dir/x.csv"))
        assert main(["simulate", str(cfg_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_analytic_arithmetic_error_returns_nonzero(self, tmp_path, capsys,
                                                       monkeypatch):
        def out_of_range(p):
            return analytics._check_probability(1.5, "outage_pin_model_b")

        # fig2b is the MODEL_B outage preset, whose overlay calls this analytic
        monkeypatch.setattr(cli, "outage_pin_model_b", out_of_range)
        rc = main(["figure", "fig2b", "--out", str(tmp_path), "--trials", "200"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: outage_pin_model_b produced 1.5")
        assert err.count("\n") == 1
        assert not (tmp_path / "fig2b.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "figure"])
    def test_memory_error_is_one_line_and_no_file(
            self, tmp_path, capsys, monkeypatch, command):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(montecarlo, "_rates_chunk", out_of_memory)
        out_dir = tmp_path / "figs"
        if command == "simulate":
            cfg_path = tmp_path / "exp.cfg"
            cfg_path.write_text(MANUAL_DOC.format(out=tmp_path / "a.csv"))
            argv = ["simulate", str(cfg_path)]
        else:
            argv = ["figure", "fig3b", "--out", str(out_dir), "--trials", "64"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Unable to allocate 74.5 GiB "
                                "for an array\n")
        assert [p.name for p in tmp_path.iterdir()] == (
            ["exp.cfg"] if command == "simulate" else [])

    def test_target_at_the_top_of_the_box_is_certain_outage(
            self, tmp_path, capsys):
        # 1000 bits/s/Hz, the box's largest target: every rate is in outage
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfg_path.write_text(manual_doc(
            "system.num_users = 1", "system.blockage_model = MODEL_B",
            "run.metric = OUTAGE", "run.sweep_axis = R_TARGET",
            "run.axis_values = 5, 1000", "run.n_trials = 500", out=out))
        assert main(["simulate", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        at_1000 = {(r["scheme"], r["provenance"]): float(r["value"])
                   for r in rows if float(r["axis_value"]) == 1000.0}
        # CONV's closed form is a high-SNR floor, which ignores the target
        assert {k: v for k, v in at_1000.items()
                if k != ("CONV", "CLOSED_FORM")} == {
            ("PIN_D2", "SIMULATED"): 1.0, ("PIN_D2", "CLOSED_FORM"): 1.0,
            ("CONV", "SIMULATED"): 1.0}

    def test_vanishing_target_gives_the_high_snr_floor(self, tmp_path,
                                                       capsys):
        # at 1e-9, the box's least target, the threshold is far past the
        # strip, so tau3 is clamped to it
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfg_path.write_text(manual_doc(
            "system.num_users = 1", "system.blockage_model = MODEL_B",
            "run.metric = OUTAGE", "run.sweep_axis = R_TARGET",
            "run.axis_values = 1e-9, 5", "run.n_trials = 500", out=out))
        assert main(["simulate", str(cfg_path)]) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        assert len(rows) == 8
        system = parse_config(cfg_path.read_text()).system
        floor = analytics.outage_pin_model_b_highsnr(
            analytics.OutageParams(cfg=system, r_target=1e-9))
        assert [float(r["value"]) for r in rows
                if r["scheme"] == "PIN_D2"
                and r["provenance"] == "CLOSED_FORM"] == [
            pytest.approx(floor, rel=1e-12)] * 2

    @pytest.mark.parametrize("case", ["simulate", "figure",
                                      "simulate_into_missing_directory",
                                      "figure_out_is_a_file"])
    def test_directory_target_leaves_every_file_as_it_was(
            self, tmp_path, capsys, monkeypatch, case):
        # A target that is a directory, or an output location that cannot
        # take the files, fails with one line naming the path the user gave,
        # before any trial runs and before any file is written or directory
        # made, so no result is left without its echo.
        chunks = []

        def no_trials(*args):
            chunks.append(args)
            raise AssertionError("a trial ran before the targets were checked")

        monkeypatch.setattr(montecarlo, "_rates_chunk", no_trials)
        cfg_path = tmp_path / "exp.cfg"
        result = tmp_path / "r.csv"
        if case == "simulate":
            cfg_path.write_text(MANUAL_DOC.format(out=result))
            argv = ["simulate", str(cfg_path)]
            named, error = tmp_path / "r.csv.config", errno.EISDIR
        elif case == "figure":
            argv = ["figure", "fig2a", "--out", str(tmp_path)]
            result, named = tmp_path / "fig2a.csv", tmp_path / "fig2a.gp"
            error = errno.EISDIR
        elif case == "simulate_into_missing_directory":
            named, error = tmp_path / "missing" / "r.csv", errno.ENOENT
            cfg_path.write_text(MANUAL_DOC.format(out=named))
            argv = ["simulate", str(cfg_path)]
        else:
            result = named = tmp_path / "figs"
            argv = ["figure", "fig3b", "--out", str(named)]
            error = errno.ENOTDIR
        result.write_bytes(b"old results\n")
        if error == errno.EISDIR:
            named.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv + ["--trials", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = {errno.EISDIR: "Is a directory",
                  errno.ENOENT: "No such file or directory",
                  errno.ENOTDIR: "Not a directory"}[error]
        assert captured.err == f"error: [Errno {error}] {reason}: '{named}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert result.read_bytes() == b"old results\n"
        if error == errno.EISDIR:
            assert list(named.iterdir()) == []
        assert chunks == []

    def test_quadrature_out_of_panels_is_one_line_and_no_file(
            self, tmp_path, capsys, monkeypatch):
        # fig2a is the MODEL_A outage preset, whose overlays need quadrature
        monkeypatch.setattr(analytics, "_MAX_PANELS", 0)
        out_dir = tmp_path / "figs"
        rc = main(["figure", "fig2a", "--out", str(out_dir), "--trials", "200"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: outage_pin_model_a_highsnr: quadrature ")
        assert err.count("\n") == 1
        assert not out_dir.exists()


def _env_with_src() -> dict[str, str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


# Runs ``python -m pinchsim`` with the given arguments and then reports
# whether scipy was imported, on the last line of standard output.
_RUN_MAIN_THEN_REPORT_SCIPY = """
import runpy, sys
sys.argv = ["pinchsim"] + sys.argv[1:]
try:
    runpy.run_module("pinchsim", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
print("scipy" in sys.modules)
"""


class TestModuleEntryPoint:
    def test_python_dash_m_pinchsim_runs_without_warnings(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pinchsim", "figure", "fig2b",
             "--trials", "8192", "--out", str(tmp_path)],
            capture_output=True, text=True, env=_env_with_src(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "fig2b.csv").exists()

    def test_python_dash_m_pinchsim_cli_points_to_the_entry_points(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pinchsim.cli", "--help"],
            capture_output=True, text=True, env=_env_with_src(), timeout=300)
        assert proc.returncode != 0
        assert proc.stdout == ""
        # runpy's RuntimeWarning about the already imported module may
        # come first; the one error line is the last line
        *before, line = proc.stderr.splitlines()
        assert all("RuntimeWarning" in b for b in before), before
        assert line.startswith("error: "), line
        assert "python -m pinchsim`" in line and "`pinchsim` script" in line

    def test_power_past_the_box_is_an_error_before_any_trial(self, tmp_path):
        # At 3100 dBm, P |h|^2 overflowed and the pinching rates summed to
        # inf or nan; the box now rejects the point before any trial.
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(manual_doc(
            "run.schemes = PIN_D1, PIN_D2, CONV", "run.axis_values = 10, 3100",
            "run.n_trials = 64", out=tmp_path / "r.csv"))
        proc = subprocess.run(
            [sys.executable, "-m", "pinchsim", "simulate", str(cfg_path)],
            capture_output=True, text=True, env=_env_with_src(), timeout=300)
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line == ("error: run.axis_values: at TX_POWER_DBM = 3100.0: "
                        "tx_power must be in [1e-13, 1e+07] W "
                        "(-100 to 100 dBm)"), line
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_outage_at_the_largest_power_is_quiet_and_valid(self, tmp_path):
        # at 100 dBm, the box's largest power, an OUTAGE run of every
        # scheme succeeds without warnings
        cfg_path = tmp_path / "exp.cfg"
        out = tmp_path / "r.csv"
        cfg_path.write_text(manual_doc(
            "run.schemes = PIN_D1, PIN_D2, CONV", "run.axis_values = 10, 100",
            "run.metric = OUTAGE", "run.r_target = 2", "run.n_trials = 64",
            out=out))
        proc = subprocess.run(
            [sys.executable, "-m", "pinchsim", "simulate", str(cfg_path)],
            capture_output=True, text=True, env=_env_with_src(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
        values = [float(r["value"]) for r in rows
                  if r["provenance"] == "SIMULATED"]
        assert len(values) == 6
        assert all(0.0 <= v <= 1.0 for v in values), values

    def test_scipy_is_not_a_runtime_dependency(self, tmp_path):
        env = _env_with_src()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, pinchsim; print('scipy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
        # fig2a runs the Monte-Carlo kernels and both MODEL_A quadratures
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_MAIN_THEN_REPORT_SCIPY, "figure",
             "fig2a", "--trials", "8192", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"
        assert (tmp_path / "fig2a.csv").exists()
