"""Round-trip and failure-mode coverage for line-delimited panel files."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from quantarb.errors import NonFinite, NonMonotoneQuantiles, ParseError, SchemaVersionMismatch
from quantarb.panelio import (
    SCHEMA_VERSION,
    PanelMetadata,
    TaggedPanel,
    load_panels,
    save_panels,
)
from quantarb.synthetic import build_benchmark_suite

FIXTURE = Path(__file__).parent / "data" / "three_panels.jsonl"


def _valid_record(**overrides) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "series_id": "unit",
        "seasonality": 1,
        "levels": [0.25, 0.5, 0.75],
        "context": [1.0, 2.0, 3.0],
        "actuals": [2.0],
        "models": {"m": [[1.0, 2.0, 3.0]]},
    }
    record.update(overrides)
    return record


def _write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestFixture:
    def test_bundled_fixture_loads_three_panels_with_two_models(self):
        tagged = load_panels(FIXTURE)
        assert len(tagged) == 3
        assert all(t.panel.n_models == 2 for t in tagged)
        assert all(t.panel.model_names == ("alpha", "beta") for t in tagged)

    def test_fixture_values_survive_parsing(self):
        first = load_panels(FIXTURE)[0]
        assert first.panel.series_id == "fx-aa"
        assert first.panel.seasonality == 2
        assert first.panel.context == (1.0, 2.0, 1.0, 2.0)
        assert first.panel.actuals == (1.5, 2.5)
        assert first.panel.levels.levels == (0.1, 0.5, 0.9)
        alpha = first.panel.values[first.panel.model_names.index("alpha")]
        assert alpha.tolist() == [[1.0, 1.5, 2.0], [2.0, 2.5, 3.0]]
        assert first.metadata == PanelMetadata(
            domain="level_shift", horizon_class="short", frequency="H"
        )

    def test_fixture_optional_actuals(self):
        tagged = load_panels(FIXTURE)
        assert tagged[1].panel.actuals is None
        assert tagged[2].panel.actuals is None


class TestRoundTrip:
    def test_save_load_preserves_synthetic_suite(self, tmp_path):
        suite = build_benchmark_suite(6, seed=11)
        target = tmp_path / "suite.jsonl"
        assert save_panels(target, suite) == 6
        back = load_panels(target)
        assert len(back) == 6
        for before, after in zip(suite, back):
            assert after.panel.series_id == before.panel.series_id
            assert after.panel.context == before.panel.context
            assert after.panel.actuals == before.panel.actuals
            assert after.panel.levels.levels == before.panel.levels.levels
            assert after.panel.model_names == before.panel.model_names
            assert after.metadata == before.metadata
            assert after.panel.values.tolist() == before.panel.values.tolist()

    def test_double_round_trip_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_panels(first, load_panels(FIXTURE))
        save_panels(second, load_panels(first))
        assert first.read_bytes() == second.read_bytes()


class TestStrictness:
    def test_strict_rejects_unknown_fields(self, tmp_path):
        record = _valid_record(extra_field="surprise")
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="extra_field"):
            load_panels(path, strict=True)

    def test_lenient_ignores_unknown_fields(self, tmp_path):
        record = _valid_record(extra_field="surprise")
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        tagged = load_panels(path, strict=False)
        assert len(tagged) == 1
        assert tagged[0].panel.series_id == "unit"

    def test_missing_required_field_raises(self, tmp_path):
        record = _valid_record()
        del record["context"]
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="context"):
            load_panels(path)


class TestFailureModes:
    def test_schema_version_mismatch(self, tmp_path):
        record = _valid_record(schema_version=99)
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(SchemaVersionMismatch, match="99"):
            load_panels(path)

    def test_corrupt_json_names_file_and_line(self, tmp_path):
        path = _write_lines(
            tmp_path / "broken.jsonl",
            [json.dumps(_valid_record()), "{not valid json"],
        )
        with pytest.raises(ParseError) as excinfo:
            load_panels(path)
        assert excinfo.value.path == str(path)
        assert excinfo.value.line == 2
        assert "broken.jsonl" in excinfo.value.path

    def test_non_object_record_rejected(self, tmp_path):
        path = _write_lines(tmp_path / "p.jsonl", ["[1, 2, 3]"])
        with pytest.raises(ParseError, match="not an object"):
            load_panels(path)

    def test_empty_models_rejected(self, tmp_path):
        record = _valid_record(models={})
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="models"):
            load_panels(path)

    def test_malformed_numeric_content_becomes_parse_error(self, tmp_path):
        record = _valid_record(context=["not", "numbers", "here"])
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="malformed"):
            load_panels(path)

    def test_levels_that_count_as_the_same_level_are_rejected(self, tmp_path):
        record = _valid_record(levels=[5e-324, 1e-300, 0.5], models={"m": [[0.0, 1.2, 6.4]]})
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="5e-324 and 1e-300") as excinfo:
            load_panels(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 1)

    def test_parse_error_names_file_and_line(self, tmp_path):
        record = _valid_record(series_id="b")
        del record["seasonality"]
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record()), json.dumps(record)])
        with pytest.raises(ParseError) as excinfo:
            load_panels(path)
        assert str(excinfo.value) == f"{path}:2: missing fields ['seasonality']"

    def test_validation_error_names_file_line_and_series(self, tmp_path):
        record = _valid_record(series_id="b", models={"m": [[3.0, 2.0, 1.0]]})
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record()), json.dumps(record)])
        with pytest.raises(NonMonotoneQuantiles) as excinfo:
            load_panels(path)
        assert str(excinfo.value) == (f"{path}:2: panel 'b', model 'm' at timestep 0: "
                                      "quantile values decrease at level indices [0, 1]")
        error = excinfo.value
        assert (error.model, error.timestep, error.indices) == ("m", 0, (0, 1))

    def test_non_finite_context_names_file_line_and_series(self, tmp_path):
        record = _valid_record(context=[1.0, float("nan"), 3.0])
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(NonFinite) as excinfo:
            load_panels(path)
        assert str(excinfo.value) == (f"{path}:1: panel 'unit': context contains "
                                      "non-finite value nan at index 1")

    def test_panel_validation_errors_propagate(self, tmp_path):
        record = _valid_record(models={"m": [[3.0, 2.0, 1.0]]})
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(NonMonotoneQuantiles):
            load_panels(path)

    def test_null_quantile_value_rejected_with_model_and_step(self, tmp_path):
        record = _valid_record(
            actuals=[2.0, 3.0], models={"m": [[1.0, 2.0, 3.0], [1.0, None, 3.0]]}
        )
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError, match="model 'm' at timestep 1") as excinfo:
            load_panels(path)
        assert "null" in str(excinfo.value)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 1)

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("models", {"m": [[1.0, "2.0", 3.0], [1.0, 2.0, 3.0]]},
             "model 'm' at timestep 0: value at level index 1 is a string"),
            ("models", {"m": [[1.0, 2.0, 3.0], [True, 2.0, 3.0]]},
             "model 'm' at timestep 1: value at level index 0 is a boolean"),
            ("context", [1.0, "2.0", 3.0], "panel 'unit': context value at index 1 is a string"),
            ("context", [1.0, 2.0, True], "panel 'unit': context value at index 2 is a boolean"),
            ("context", [1.0, None, 3.0], "panel 'unit': context value at index 1 is null"),
            ("actuals", [False, 1.0], "panel 'unit': actuals value at index 0 is a boolean"),
            ("actuals", [2.0, "1.0"], "panel 'unit': actuals value at index 1 is a string"),
            ("actuals", [2.0, None], "panel 'unit': actuals value at index 1 is null"),
            ("levels", [0.25, "0.5", 0.75], "levels value at index 1 is a string"),
            ("levels", [0.25, None, 0.75], "levels value at index 1 is null"),
        ],
        ids=["forecast-string", "forecast-true", "context-string", "context-true",
             "context-null", "actuals-false", "actuals-string", "actuals-null",
             "levels-string", "levels-null"],
    )
    def test_strings_booleans_and_nulls_are_not_numbers(self, tmp_path, field, value, where):
        # float() reads "2.0" as 2.0, true as 1.0 and false as 0.0, and
        # rejects None without naming the field.
        record = _valid_record(actuals=[2.0, 3.0],
                               models={"m": [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]})
        record[field] = value
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(ParseError) as excinfo:
            load_panels(path)
        assert str(excinfo.value).startswith(f"{path}:1: ")
        assert f"{where}, not a number" in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, value, where",
        [
            ("models", {"m": [[1.0, 2.0, 3.0], [1.0, 2.0, 10**400]]},
             "model 'm' at timestep 1: forecast values contains out-of-range value"),
            ("context", [1.0, -(10**400), 3.0],
             "panel 'unit': context contains out-of-range value"),
            ("levels", [0.25, 10**400, 0.75], "levels contains out-of-range value"),
            ("actuals", [2.0, 10**400], "panel 'unit': actuals contains out-of-range value"),
        ],
        ids=["forecast", "context", "levels", "actuals"],
    )
    def test_integers_too_large_for_float64_are_out_of_range(self, tmp_path, field, value,
                                                              where):
        # float() and numpy raise OverflowError on these, which no loader
        # error named; they are out of range as a value beyond 1e270 is.
        record = _valid_record(actuals=[2.0, 3.0],
                               models={"m": [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]})
        record[field] = value
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        with pytest.raises(NonFinite) as excinfo:
            load_panels(path)
        message = str(excinfo.value)
        assert message.startswith(f"{path}:1: {where} ")
        index = 2 if field == "models" else 1
        assert message.endswith(f"(|value| > 1e+270) at index {index}")

    def test_integers_past_the_digit_limit_are_parse_errors(self, tmp_path):
        # The JSON scanner raises a bare ValueError past the interpreter's
        # limit on integer digits (4300 by default).
        line = json.dumps(_valid_record()).replace("[2.0]", "[" + "7" * 5000 + "]")
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record(series_id="a")), line])
        with pytest.raises(ParseError) as excinfo:
            load_panels(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)
        assert str(excinfo.value).startswith(f"{path}:2: invalid JSON: Exceeds the limit")

    def test_integers_zeros_and_ones_are_numbers(self, tmp_path):
        # A boolean would read as 0 or 1; JSON integers and floats equal to
        # those are numbers.
        record = _valid_record(actuals=[0, 1], context=[0, 1, 2],
                               models={"m": [[0, 1, 2], [0.0, 1.0, 2.5]]})
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(record)])
        panel = load_panels(path)[0].panel
        assert panel.values.dtype == np.float64
        assert panel.values.tolist() == [[[0.0, 1.0, 2.0], [0.0, 1.0, 2.5]]]
        assert panel.context == (0.0, 1.0, 2.0) and panel.actuals == (0.0, 1.0)

    def test_repeated_model_key_rejected(self, tmp_path):
        # json.loads alone keeps the last "m" and drops the first silently.
        line = (
            '{"schema_version": 1, "series_id": "unit", "seasonality": 1, '
            '"levels": [0.25, 0.5, 0.75], "context": [1.0, 2.0, 3.0], '
            '"models": {"m": [[1.0, 2.0, 3.0]], "m": [[4.0, 5.0, 6.0]]}}'
        )
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record()), line])
        with pytest.raises(ParseError, match="repeated object keys") as excinfo:
            load_panels(path)
        assert "'m'" in str(excinfo.value)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 2)

    def test_repeated_top_level_key_rejected(self, tmp_path):
        line = json.dumps(_valid_record())[:-1] + ', "series_id": "other"}'
        path = _write_lines(tmp_path / "p.jsonl", [line])
        with pytest.raises(ParseError, match="series_id"):
            load_panels(path)

    def test_duplicate_series_id_in_one_file_rejected(self, tmp_path):
        path = _write_lines(
            tmp_path / "p.jsonl",
            [json.dumps(_valid_record(series_id=s)) for s in ("a", "b", "a")],
        )
        with pytest.raises(ParseError, match="duplicate series_id 'a'") as excinfo:
            load_panels(path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 3)
        assert f"{path}:1" in str(excinfo.value)

    def test_duplicate_series_id_across_directory_files_rejected(self, tmp_path):
        _write_lines(tmp_path / "a.jsonl", [json.dumps(_valid_record(series_id="x"))])
        second = _write_lines(
            tmp_path / "b.jsonl", [json.dumps(_valid_record(series_id="x"))]
        )
        with pytest.raises(ParseError, match="duplicate series_id") as excinfo:
            load_panels(tmp_path)
        assert (excinfo.value.path, excinfo.value.line) == (str(second), 1)

    @pytest.mark.parametrize("bad", [2.7, True, "12", 2.0, None])
    def test_seasonality_must_be_a_json_integer(self, tmp_path, bad):
        # int() would turn 2.7 into 2, true into 1 and "12" into 12.
        path = _write_lines(
            tmp_path / "p.jsonl", [json.dumps(_valid_record(seasonality=bad))]
        )
        with pytest.raises(ParseError, match="seasonality") as excinfo:
            load_panels(path)
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("field", ["series_id", "domain", "horizon_class", "frequency"])
    @pytest.mark.parametrize("bad", [None, True, 5, [1], {"a": "b"}])
    def test_ids_and_tags_must_be_json_strings(self, tmp_path, field, bad):
        # str() would read null as "None" and 5 as "5".
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record(**{field: bad}))])
        with pytest.raises(ParseError) as excinfo:
            load_panels(path)
        assert str(excinfo.value) == (f"{path}:1: {field!r} must be a JSON string, "
                                      f"got {bad!r}")

    def test_a_numeric_series_id_is_not_a_duplicate_of_its_string(self, tmp_path):
        path = _write_lines(tmp_path / "p.jsonl", [json.dumps(_valid_record(series_id="5")),
                                                   json.dumps(_valid_record(series_id=5))])
        with pytest.raises(ParseError, match="'series_id' must be a JSON string, got 5"):
            load_panels(path)

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ParseError, match="does not exist"):
            load_panels(tmp_path / "nope.jsonl")


class TestDirectoryLoading:
    def test_directory_concatenates_sorted_files(self, tmp_path):
        _write_lines(
            tmp_path / "b_second.jsonl",
            [json.dumps(_valid_record(series_id="later"))],
        )
        _write_lines(
            tmp_path / "a_first.jsonl",
            [json.dumps(_valid_record(series_id="earlier"))],
        )
        (tmp_path / "ignored.txt").write_text("not a panel\n", encoding="utf-8")
        tagged = load_panels(tmp_path)
        assert [t.panel.series_id for t in tagged] == ["earlier", "later"]

    def test_empty_directory_gives_empty_list(self, tmp_path):
        assert load_panels(tmp_path) == []

    def test_directory_entries_named_like_panel_files_are_skipped(self, tmp_path):
        (tmp_path / "a_sub.jsonl").mkdir()
        _write_lines(tmp_path / "b.jsonl", [json.dumps(_valid_record(series_id="one"))])
        assert [t.panel.series_id for t in load_panels(tmp_path)] == ["one"]

    def test_blank_lines_skipped(self, tmp_path):
        path = _write_lines(
            tmp_path / "p.jsonl",
            [json.dumps(_valid_record(series_id="one")), "", "   "],
        )
        tagged = load_panels(path)
        assert len(tagged) == 1


def test_save_reports_record_count(tmp_path):
    suite = build_benchmark_suite(3, seed=4)
    assert save_panels(tmp_path / "s.jsonl", suite) == 3


def test_save_accepts_generator(tmp_path):
    suite = build_benchmark_suite(2, seed=4)
    count = save_panels(tmp_path / "s.jsonl", (t for t in suite))
    assert count == 2
    assert len(load_panels(tmp_path / "s.jsonl")) == 2


def test_tagged_panel_default_metadata():
    tagged = load_panels(FIXTURE)[0]
    bare = TaggedPanel(panel=tagged.panel)
    assert bare.metadata == PanelMetadata()
    assert bare.metadata.domain == "unknown"
