"""Round-trip and failure-mode coverage for line-delimited panel files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from quantarb.errors import NonMonotoneQuantiles, ParseError, SchemaVersionMismatch
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
