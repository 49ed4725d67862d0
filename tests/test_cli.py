"""End-to-end runs of every subcommand through the argparse entry point."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import quantarb
import quantarb.cli
import quantarb.oracle
import quantarb.reporting
from quantarb.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from quantarb.panelio import SCHEMA_VERSION, load_panels
from quantarb.reporting import load_report, report_json_schema

FIXTURE = Path(__file__).parent / "data" / "three_panels.jsonl"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What the console-script wrapper pip generates does: resolve the declared
# target, call it with no arguments and make its return value the exit code.
# Arguments: script name, entry-point value, then the script's own arguments.
CONSOLE_SCRIPT_LAUNCHER = """
import sys
from importlib.metadata import EntryPoint

name, value, *args = sys.argv[1:]
ep = EntryPoint(name=name, value=value, group="console_scripts")
sys.argv = [name, *args]
sys.exit(ep.load()())
"""


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("QUANTARB_"):
            monkeypatch.delenv(key)


@pytest.fixture(scope="module")
def suite_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("suite") / "panels.jsonl"
    code = main(
        ["synth", "--n", "6", "--out", str(path), "--experts", "3", "--seed", "5"]
    )
    assert code == EXIT_OK
    return path


class TestValidate:
    def test_valid_fixture_exits_zero(self, capsys):
        assert main(["validate", str(FIXTURE)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3 panel(s) valid" in out
        assert "fx-aa: 2 models" in out

    def test_unknown_field_fails_strict(self, tmp_path, capsys):
        record = json.loads(FIXTURE.read_text().splitlines()[0])
        record["mystery"] = 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_lenient_accepts_unknown_field(self, tmp_path, capsys):
        record = json.loads(FIXTURE.read_text().splitlines()[0])
        record["mystery"] = 1
        loose = tmp_path / "loose.jsonl"
        loose.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["validate", "--lenient", str(loose)]) == EXIT_OK
        assert "1 panel(s) valid" in capsys.readouterr().out

    def test_warns_about_each_panel_scoring_will_reject(self, tmp_path, capsys):
        # fx-aa's context [1, 2, 1, 2] is 2-periodic: its seasonal-naive MAE,
        # which every score divides by, is zero. A panel without actuals is
        # never scored, so a periodic context there draws no warning.
        records = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
        quiet = dict(records[0], series_id="no-actuals", actuals=None)
        path = tmp_path / "panels.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records + [quiet]),
                        encoding="utf-8")
        assert main(["validate", str(path)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "4 panel(s) valid" in captured.out
        assert captured.err == (
            "warning: panel 'fx-aa': context is 2-periodic; seasonal-naive MAE is zero; "
            "scoring will reject it\n"
        )

    def test_missing_path_is_validation_failure(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.jsonl")]) == EXIT_VALIDATION
        assert "does not exist" in capsys.readouterr().err


_EMPTY_SET_COMMANDS = (
    ["validate"],
    ["eval"],
    ["scale", "--order", "a,b"],
    ["winloss", "--a", "median", "--b", "mean"],
    ["oracle"],
)


@pytest.mark.parametrize("command", _EMPTY_SET_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("layout", ["empty file", "no panel files", "a directory named .jsonl"])
def test_every_command_rejects_an_empty_panel_set_before_printing(
    tmp_path, capsys, command, layout
):
    # Directory entries are skipped, so a sub.jsonl/ directory is no panel
    # file and reading it is no runtime failure.
    path = tmp_path / "panels"
    if layout == "empty file":
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
    else:
        path.mkdir()
        (path / "notes.txt").write_text("not a panel\n", encoding="utf-8")
        if layout == "a directory named .jsonl":
            (path / "sub.jsonl").mkdir()
    assert main([command[0], str(path), *command[1:]]) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", "error: at least one panel is required\n")


class TestSynth:
    def test_writes_requested_panel_count(self, suite_path, capsys):
        tagged = load_panels(suite_path)
        assert len(tagged) == 6
        assert all(t.panel.n_models == 3 for t in tagged)

    def test_seed_env_var_mirrors_flag(self, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.jsonl"
        assert main(["synth", "--n", "2", "--out", str(by_flag), "--seed", "9"]) == EXIT_OK
        monkeypatch.setenv("QUANTARB_SEED", "9")
        by_env = tmp_path / "env.jsonl"
        assert main(["synth", "--n", "2", "--out", str(by_env)]) == EXIT_OK
        assert by_flag.read_bytes() == by_env.read_bytes()

    def test_unwritable_target_is_runtime_failure(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "panels.jsonl"
        assert main(["synth", "--n", "1", "--out", str(target)]) == EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "-1"], "n_panels must be >= 0, got -1"),
            (["--n", "2", "--experts", "0"], "n_experts must be >= 1, got 0"),
        ],
    )
    def test_bad_suite_size_is_validation_failure(self, tmp_path, capsys, flags, message):
        target = tmp_path / "panels.jsonl"
        assert main(["synth", *flags, "--out", str(target)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not target.exists()


class TestEval:
    def test_periodic_context_is_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "periodic.jsonl"
        record = {
            "schema_version": SCHEMA_VERSION,
            "series_id": "periodic",
            "seasonality": 2,
            "levels": [0.25, 0.5, 0.75],
            "context": [1.0, 2.0, 1.0, 2.0],
            "actuals": [1.5],
            "models": {"a": [[1.0, 2.0, 3.0]], "b": [[1.5, 2.5, 3.5]]},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["eval", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: panel 'periodic': context is 2-periodic; seasonal-naive MAE is zero\n"

    def test_periodic_fixture_validates_but_scoring_names_the_panel(self, capsys):
        # validate only warns about a zero MASE scale, which only scoring
        # reads; fx-aa's context [1, 2, 1, 2] is 2-periodic.
        assert main(["validate", str(FIXTURE)]) == EXIT_OK
        assert "3 panel(s) valid" in capsys.readouterr().out
        for methods in ("median", "synapse"):
            assert main(["eval", str(FIXTURE), "--methods", methods]) == EXIT_VALIDATION
            assert capsys.readouterr().err == (
                "error: panel 'fx-aa': context is 2-periodic; seasonal-naive MAE is zero\n"
            )

    def test_mase_overflowing_a_tiny_scale_names_the_panel(self, tmp_path, capsys):
        # Seasonal-naive scale about 1.1e-309: any MAE near 1 overflows over it.
        path = tmp_path / "tiny.jsonl"
        record = {
            "schema_version": SCHEMA_VERSION,
            "series_id": "tiny-scale",
            "seasonality": 1,
            "levels": [0.25, 0.5, 0.75],
            "context": [0.0, 0.0, 2.225073858507203e-309],
            "actuals": [0.0],
            "models": {"a": [[0.5, 1.0, 1.5]], "b": [[0.75, 1.25, 1.75]]},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["eval", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: panel 'tiny-scale': MASE overflows")

    @pytest.mark.parametrize("method", ["median", "synapse", "oracle"])
    def test_forecast_minus_actual_overflow_names_the_panel(
        self, tmp_path, capsys, recwarn, method
    ):
        path = tmp_path / "big.jsonl"
        record = {
            "schema_version": SCHEMA_VERSION,
            "series_id": "big",
            "seasonality": 1,
            "levels": [0.5],
            "context": [0.0, 1.0, 2.5, 1.0],
            "actuals": [-1e308],
            "models": {"a": [[1e308]]},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["eval", str(path), "--methods", method]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == (f"error: {path}:1: panel 'big', model 'a' at timestep 0: forecast values "
                       "contains out-of-range value 1e+308 (|value| > 1e+270) at index 0\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_overflowing_seasonal_naive_scale_names_the_panel(self, tmp_path, capsys, recwarn):
        # The context is finite but its differences would overflow float64
        # (an infinite scale prints every MASE as 0), so loading rejects it.
        path = tmp_path / "wild.jsonl"
        record = {
            "schema_version": SCHEMA_VERSION,
            "series_id": "wild",
            "seasonality": 1,
            "levels": [0.5],
            "context": [1e308, -1e308, 1e308, 0.0],
            "actuals": [1.0],
            "models": {"a": [[5.0]]},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["eval", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}:1: panel 'wild': context contains out-of-range value "
                       "1e+308 (|value| > 1e+270) at index 0\n")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_table_output_to_stdout(self, suite_path, capsys):
        code = main(["eval", str(suite_path), "--methods", "synapse,median"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("method")
        assert "synapse" in out and "median" in out and "overall" in out

    def test_csv_out_file_keeps_stdout_quiet(self, suite_path, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main(
            [
                "eval",
                str(suite_path),
                "--methods",
                "median,oracle",
                "--format",
                "csv",
                "--out",
                str(target),
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        rows = load_report(target)
        assert {r.method for r in rows} == {"median", "oracle"}

    def test_json_output_validates_against_schema(self, suite_path, capsys):
        code = main(
            ["eval", str(suite_path), "--methods", "median", "--format", "json"]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, report_json_schema())

    def test_unknown_method_is_validation_failure(self, suite_path, capsys):
        assert main(["eval", str(suite_path), "--methods", "typo"]) == EXIT_VALIDATION
        assert "unknown methods" in capsys.readouterr().err

    def test_repeated_runs_are_byte_identical(self, suite_path, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["eval", str(suite_path), "--methods", "synapse", "--format", "csv"]
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        assert main(argv + ["--out", str(second)]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()

    def test_sample_budget_env_var_mirrors_flag(self, suite_path, tmp_path, monkeypatch):
        by_flag = tmp_path / "flag.csv"
        argv = ["eval", str(suite_path), "--methods", "synapse", "--format", "csv"]
        code = main(argv + ["--n-total", "300", "--out", str(by_flag)])
        assert code == EXIT_OK
        monkeypatch.setenv("QUANTARB_N_TOTAL", "300")
        by_env = tmp_path / "env.csv"
        assert main(argv + ["--out", str(by_env)]) == EXIT_OK
        assert by_flag.read_bytes() == by_env.read_bytes()
        monkeypatch.delenv("QUANTARB_N_TOTAL")
        default = tmp_path / "default.csv"
        assert main(argv + ["--out", str(default)]) == EXIT_OK
        assert default.read_bytes() != by_flag.read_bytes()

    def test_invalid_env_value_is_validation_failure(self, suite_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTARB_SEED", "not-a-number")
        assert main(["eval", str(suite_path), "--methods", "median"]) == EXIT_VALIDATION
        assert "QUANTARB_SEED" in capsys.readouterr().err

    def test_bad_format_flag_raises_argparse_exit(self, suite_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", str(suite_path), "--format", "yaml"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_worker_count_below_one_is_validation_failure(
        self, suite_path, tmp_path, monkeypatch, capsys, count
    ):
        out = tmp_path / "report.csv"
        argv = ["eval", str(suite_path), "--methods", "median", "--out", str(out)]
        assert main(argv + ["--workers", count]) == EXIT_VALIDATION
        assert f"workers must be >= 1, got {count}" in capsys.readouterr().err
        monkeypatch.setenv("QUANTARB_WORKERS", count)
        assert main(argv) == EXIT_VALIDATION
        assert f"workers must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("argv", [["eval"], ["winloss", "--a", "synapse", "--b", "median"]])
    def test_mode_is_not_an_option_where_each_method_pins_its_own(
        self, suite_path, monkeypatch, capsys, argv
    ):
        # synapse and synapse-static each pin their mode, so eval and winloss
        # have no --mode and read no QUANTARB_MODE.
        with pytest.raises(SystemExit) as excinfo:
            main([argv[0], str(suite_path), *argv[1:], "--mode", "dynamic"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --mode dynamic" in capsys.readouterr().err
        monkeypatch.setenv("QUANTARB_MODE", "bogus")
        assert main([argv[0], str(suite_path), *argv[1:]]) == EXIT_OK


class TestValueBound:
    # Member a's tails are finite, but their gap is not a float64.
    WIDE = {
        "schema_version": SCHEMA_VERSION,
        "series_id": "wide",
        "seasonality": 1,
        "levels": [0.1, 0.9],
        "context": [0.0, 1.0, 2.5, 1.0],
        "actuals": [0.0, 1.0],
        "models": {"a": [[-1e308, 1e308], [0.0, 1.0]], "b": [[0.0, 1.0], [0.0, 1.0]]},
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["eval", "--methods", "synapse"],
            ["eval", "--methods", "median"],
            ["eval", "--methods", "oracle"],
            ["oracle"],
        ],
    )
    def test_a_value_beyond_the_bound_fails_at_load_naming_the_panel(
        self, tmp_path, capsys, argv
    ):
        path = tmp_path / "wide.jsonl"
        path.write_text(json.dumps(self.WIDE) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], str(path), *argv[1:]]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}:1: panel 'wide', model 'a' at timestep 0: forecast "
                       "values contains out-of-range value -1e+308 (|value| > 1e+270) "
                       "at index 0\n")


class TestScale:
    def test_sweep_over_prefixes(self, suite_path, capsys):
        code = main(
            [
                "scale",
                str(suite_path),
                "--order",
                "expert_00,expert_01,expert_02",
                "--format",
                "csv",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pool_size,")
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]

    def test_unknown_model_name_is_validation_failure(self, suite_path, capsys):
        code = main(["scale", str(suite_path), "--order", "expert_00,ghost"])
        assert code == EXIT_VALIDATION
        assert "ghost" in capsys.readouterr().err

    def test_repeated_model_name_is_validation_failure(self, suite_path, capsys):
        code = main(["scale", str(suite_path), "--order", "expert_00,expert_00"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "error: model order repeats 'expert_00'\n"

    def test_single_model_order_is_validation_failure(self, suite_path, capsys):
        code = main(["scale", str(suite_path), "--order", "expert_00"])
        assert code == EXIT_VALIDATION
        assert "at least 2" in capsys.readouterr().err

    def test_mode_flag_changes_the_sweep(self, suite_path, tmp_path):
        argv = [
            "scale",
            str(suite_path),
            "--order",
            "expert_00,expert_01",
            "--format",
            "csv",
        ]
        dynamic = tmp_path / "dynamic.csv"
        static = tmp_path / "static.csv"
        assert main(argv + ["--out", str(dynamic)]) == EXIT_OK
        assert main(argv + ["--mode", "static-uniform", "--out", str(static)]) == EXIT_OK
        assert dynamic.read_bytes() != static.read_bytes()


class TestWinLoss:
    def test_model_against_itself_all_ties(self, suite_path, capsys):
        code = main(
            ["winloss", str(suite_path), "--a", "model:expert_00", "--b", "model:expert_00"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "crps: model:expert_00 vs model:expert_00 -> wins 0, losses 0, ties 6" in out
        assert "mase:" in out

    def test_oracle_never_loses_to_median_on_crps(self, suite_path, capsys):
        code = main(["winloss", str(suite_path), "--a", "oracle", "--b", "median"])
        assert code == EXIT_OK
        crps_line = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("crps")
        )
        assert "losses 0" in crps_line

    def test_unknown_model_method_is_validation_failure(self, suite_path, capsys):
        code = main(["winloss", str(suite_path), "--a", "model:ghost", "--b", "median"])
        assert code == EXIT_VALIDATION
        assert "ghost" in capsys.readouterr().err

    def test_per_model_is_validation_failure(self, suite_path, capsys):
        code = main(["winloss", str(suite_path), "--a", "per-model", "--b", "median"])
        assert code == EXIT_VALIDATION
        assert "model:<name>" in capsys.readouterr().err


class TestOracle:
    def test_switching_summary_without_topk(self, suite_path, capsys):
        code = main(["oracle", str(suite_path), "--no-topk"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "switch percentage" in out
        assert "%" in out
        assert "top-k" not in out

    def test_topk_agreement_table(self, suite_path, capsys):
        code = main(["oracle", str(suite_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "top-k oracle agreement" in out
        assert "synapse" in out and "median" in out

    def test_output_is_pinned(self, suite_path, capsys):
        # sha256 of the full output, recorded while the top-k table still
        # scored every pool a second time.
        assert main(["oracle", str(suite_path)]) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "a9c8be00970117e13ec894c8bbbf7ff3a6da44b7a0e4afd92dfc71203a59d650"

    def test_overflowing_crps_names_the_panel(self, tmp_path, capsys, recwarn):
        # Member a's 1e308 - (-1e308) is not a float64; loading rejects the
        # panel before the oracle scores it.
        path = tmp_path / "big.jsonl"
        record = {
            "schema_version": SCHEMA_VERSION,
            "series_id": "big",
            "seasonality": 1,
            "levels": [0.5],
            "context": [0.0, 1.0, 2.5, 1.0],
            "actuals": [-1e308],
            "models": {"a": [[1e308]], "b": [[1.0]]},
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["oracle", str(path)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}:1: panel 'big', model 'a' at timestep 0: ")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_an_empty_panel_file_fails_before_printing(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["oracle", str(path)]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: at least one panel is required\n")

    def test_each_pool_is_scored_once(self, suite_path, monkeypatch, capsys):
        shapes = []
        real = quantarb.oracle.crps_batch

        def counting(levels, values, observations):
            shapes.append(np.shape(values))
            return real(levels, values, observations)

        monkeypatch.setattr(quantarb.oracle, "crps_batch", counting)
        monkeypatch.setattr(quantarb.reporting, "crps_batch", counting)
        assert main(["oracle", str(suite_path)]) == EXIT_OK
        assert shapes == [t.panel.values.shape for t in load_panels(suite_path)]


class TestEnvironmentChoices:
    """Environment values of flags with fixed choices are checked before any
    panel is scored, and fail as every bad environment value does: exit 2
    with the variable named."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def record(name):
            def never(*args, **kwargs):
                seen.append(name)
                raise AssertionError(f"{name} ran")

            return never

        for name in ("load_panels", "run_evaluation", "run_pool_scaling"):
            monkeypatch.setattr(quantarb.cli, name, record(name))
        return seen

    @pytest.mark.parametrize("flag", [True, False])
    def test_unknown_method_fails_before_the_panels_load(
        self, tmp_path, monkeypatch, capsys, calls, flag
    ):
        argv = ["eval", str(tmp_path / "missing.jsonl")]
        if flag:
            argv += ["--methods", "typo"]
        else:
            monkeypatch.setenv("QUANTARB_METHODS", "typo")
        assert main(argv) == EXIT_VALIDATION
        assert calls == []
        assert "'typo'" in capsys.readouterr().err

    def test_format_the_subcommand_lacks_fails_before_the_sweep(
        self, suite_path, monkeypatch, capsys, calls
    ):
        monkeypatch.setenv("QUANTARB_FORMAT", "csv-long")  # an eval format only
        code = main(["scale", str(suite_path), "--order", "expert_00,expert_01"])
        assert code == EXIT_VALIDATION
        assert calls == []
        assert capsys.readouterr().err == (
            "error: environment variable QUANTARB_FORMAT='csv-long' "
            "is not one of table, csv, json\n"
        )

    def test_unknown_format_fails_before_the_evaluation(
        self, suite_path, monkeypatch, capsys, calls
    ):
        monkeypatch.setenv("QUANTARB_FORMAT", "yaml")
        assert main(["eval", str(suite_path), "--methods", "median"]) == EXIT_VALIDATION
        assert calls == []
        assert "QUANTARB_FORMAT" in capsys.readouterr().err

    def test_unknown_mode_is_not_ignored_without_topk(self, suite_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTARB_MODE", "bogus")
        assert main(["oracle", str(suite_path), "--no-topk"]) == EXIT_VALIDATION
        assert "QUANTARB_MODE='bogus'" in capsys.readouterr().err

    def test_a_flag_overrides_a_bad_environment_value(self, suite_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTARB_FORMAT", "csv-long")
        monkeypatch.setenv("QUANTARB_MODE", "bogus")
        argv = ["scale", str(suite_path), "--order", "expert_00,expert_01"]
        assert main(argv + ["--format", "csv", "--mode", "dynamic"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("pool_size,")

    @pytest.mark.parametrize("value", ["yaml", "x"])
    def test_a_bad_flag_value_is_blamed_on_the_flag(
        self, suite_path, monkeypatch, capsys, calls, value
    ):
        monkeypatch.setenv("QUANTARB_FORMAT", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", str(suite_path), "--methods", "median", "--format", value])
        assert excinfo.value.code == 2
        assert calls == []
        err = capsys.readouterr().err
        assert f"argument --format: invalid choice: '{value}'" in err
        assert "QUANTARB_FORMAT" not in err

    def test_valid_environment_values_apply(self, suite_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTARB_FORMAT", "csv-long")
        assert main(["eval", str(suite_path), "--methods", "median"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("method,scope,metric,value")


class TestEnvironmentScope:
    """A numeric ``QUANTARB_`` value is read only by a subcommand that has
    its flag, after the arguments are parsed."""

    def test_a_bad_value_is_ignored_by_a_subcommand_without_the_flag(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("QUANTARB_WINDOW", "abc")
        monkeypatch.setenv("QUANTARB_WORKERS", "x")
        assert main(["validate", str(FIXTURE)]) == EXIT_OK
        assert "3 panel(s) valid" in capsys.readouterr().out

    def test_help_ignores_bad_environment_values(self, monkeypatch, capsys):
        monkeypatch.setenv("QUANTARB_WORKERS", "x")
        monkeypatch.setenv("QUANTARB_SEED", "not-a-number")
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "usage: quantarb" in capsys.readouterr().out

    def test_a_flag_overrides_a_bad_numeric_environment_value(
        self, suite_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("QUANTARB_SEED", "not-a-number")
        argv = ["eval", str(suite_path), "--methods", "median", "--seed", "0"]
        assert main(argv) == EXIT_OK


def _child_env():
    """Environment whose ``PYTHONPATH`` puts this test's ``quantarb`` first."""
    env = dict(os.environ)
    entries = [str(Path(quantarb.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        entries.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def _declared_console_script(name):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def test_installed_console_script_smoke():
    target = _declared_console_script("quantarb")
    result = subprocess.run(
        [sys.executable, "-c", CONSOLE_SCRIPT_LAUNCHER,
         "quantarb", target, "validate", str(FIXTURE)],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert "3 panel(s) valid" in result.stdout


def test_module_invocation_shows_usage():
    result = subprocess.run(
        [sys.executable, "-m", "quantarb.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert "usage: quantarb" in result.stdout
    for name in ("validate", "eval", "scale", "winloss", "synth", "oracle"):
        assert name in result.stdout


def test_cli_and_suite_build_load_neither_scipy_nor_jsonschema():
    # Both serve only the tests: SciPy as a reference, jsonschema for reports.
    probe = (
        "import sys, quantarb.cli, quantarb.synthetic; "
        "quantarb.synthetic.build_benchmark_suite(1, seed=0); "
        "print(sorted(m for m in ('scipy', 'jsonschema') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_neither_the_thread_pool_nor_logging():
    # `quantarb eval --workers N` imports the pool when it runs, so every
    # other command starts without concurrent.futures and the logging it pulls in.
    probe = (
        "import sys, quantarb.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
