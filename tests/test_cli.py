"""Config parsing, presets, output schema, CLI entry point."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchsim import analytics, cli
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
    ])
    def test_rejected_naming_the_key(self, lines):
        key = lines[-1].split("=")[0].strip()
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
            parse_config(manual_doc(*lines))

    @pytest.mark.parametrize("line, message", [
        # 10 ** 397 W overflows a float; 10 ** -403 W underflows to 0
        ("system.tx_power_dbm = 4000", "system.tx_power_dbm: must be finite"),
        ("system.noise_dbm = -4000", "system.noise_dbm: must be > 0"),
    ])
    def test_dbm_beyond_the_float_range_is_named(self, line, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(manual_doc(line))


class TestPresetTables:
    """Deployment constants pinned by the bundled presets."""

    def test_common_constants(self):
        for preset in Preset:
            f = preset_fields(preset)
            assert f["system.height"] == 3.0
            assert f["system.carrier_freq_hz"] == 28e9
            assert f["system.noise_dbm"] == -90.0
            assert f["system.n_eff"] == 1.4
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
    "system.d_w": _num(1e-3, 1e4),
    "system.d_l": _num(1e-3, 1e4),
    "system.height": _num(1e-3, 1e3),
    "system.carrier_freq_hz": _num(1e6, 1e12),
    "system.noise_dbm": _num(-200.0, 100.0),
    "system.tx_power_dbm": _num(-200.0, 200.0),
    "system.blockage_model": _tokens(BlockageModel),
    "system.phi": _num(0.0, 10.0),
    "system.loss_case": _tokens(LossCase),
    "system.waveguide_loss_db_per_m": _num(0.0, 10.0),
    "system.n_eff": _num(1.0, 4.0),
    "system.constrain_under_waveguide": st.sampled_from(["true", "false"]),
    "run.schemes": st.lists(_tokens(Scheme), min_size=1,
                            max_size=4).map(", ".join),
    "run.metric": _tokens(MetricKind),
    "run.sweep_axis": _tokens(SweepAxis),
    "run.axis_values": st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5,
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


# Sweep values each axis admits; KEY_DOMAINS has the TX_POWER_DBM ones.
POSITIVE_AXIS_VALUES = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5,
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
        assert all(float(r["ci_half_width"]) == 0.0 for r in closed)
        for r in closed:
            assert 0.0 <= float(r["value"]) <= 1.0

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


class TestReproduceFigure:
    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="fig9"):
            reproduce_figure("fig9", tmp_path)

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

    def test_figure_subcommand(self, tmp_path):
        rc = main(["figure", "fig3a", "--out", str(tmp_path), "--trials", "300"])
        assert rc == 0
        assert (tmp_path / "fig3a.csv").exists()
        rows = list(csv.DictReader(
            (tmp_path / "fig3a.csv").read_text().splitlines()[1:]))
        assert {r["scheme"] for r in rows} == {"PIN_D1", "PIN_D2", "CONV"}

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
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("axis, values, message", [
        ("D_L", (-5.0, 10.0), "value -5.0 for system.d_l must be > 0"),
        ("R_TARGET", (0.0, 5.0), "value 0.0 for run.r_target must be > 0"),
        ("TX_POWER_DBM", (10.0, 4000.0),
         "value 4000.0 for system.tx_power_dbm must be finite"),
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
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

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


class TestModuleEntryPoint:
    def test_python_dash_m_pinchsim_runs_without_warnings(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-m", "pinchsim", "figure", "fig2b",
             "--trials", "8192", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "fig2b.csv").exists()
