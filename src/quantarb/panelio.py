"""Line-delimited panel files: one JSON record per series, schema-versioned.

Each record bundles the per-series inputs (context, actuals, per-model
quantile matrices) with grouping metadata (domain, horizon class, frequency)
used by report aggregation. Strict loading rejects unknown fields so schema
drift fails loudly instead of silently dropping data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .core import ForecastPanel, QuantileLevels, build_panel, require_type
from .errors import ArbitrationError, ParseError, SchemaVersionMismatch

SCHEMA_VERSION = 1

_REQUIRED_FIELDS = (
    "schema_version",
    "series_id",
    "seasonality",
    "levels",
    "context",
    "models",
)
_TAGS = ("domain", "horizon_class", "frequency")
_OPTIONAL_FIELDS = ("actuals", *_TAGS)
_KNOWN_FIELDS = frozenset(_REQUIRED_FIELDS) | frozenset(_OPTIONAL_FIELDS)


@dataclass(frozen=True)
class PanelMetadata:
    """Grouping tags carried alongside a panel; free-form strings."""

    domain: str = "unknown"
    horizon_class: str = "unknown"
    frequency: str = "unknown"

    def __post_init__(self) -> None:
        for tag in _TAGS:
            object.__setattr__(self, tag, require_type(getattr(self, tag), str, tag))


@dataclass(frozen=True)
class TaggedPanel:
    """A validated panel plus its grouping metadata."""

    panel: ForecastPanel
    metadata: PanelMetadata = PanelMetadata()

    def __post_init__(self) -> None:
        require_type(self.panel, ForecastPanel, "panel")
        require_type(self.metadata, PanelMetadata, "metadata")


def _panel_to_record(tagged: TaggedPanel) -> dict:
    panel = tagged.panel
    return {
        "schema_version": SCHEMA_VERSION,
        "series_id": panel.series_id,
        **vars(tagged.metadata),  # the tags, in field order
        "seasonality": panel.seasonality,
        "levels": list(panel.levels.levels),
        "context": list(panel.context),
        "actuals": None if panel.actuals is None else list(panel.actuals),
        "models": {name: panel.values[i].tolist() for i, name in enumerate(panel.model_names)},
    }


def _record_to_panel(record: dict, where: str, line: int, strict: bool) -> TaggedPanel:
    if not isinstance(record, dict):
        raise ParseError("panel record is not an object", path=where, line=line)
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{where}:{line}: schema_version {version!r}, this reader handles {SCHEMA_VERSION}"
        )
    missing = [f for f in _REQUIRED_FIELDS if f not in record]
    if missing:
        raise ParseError(f"missing fields {missing}", path=where, line=line)
    if strict:
        unknown = sorted(set(record) - _KNOWN_FIELDS)
        if unknown:
            raise ParseError(f"unknown fields {unknown}", path=where, line=line)
    models = record["models"]
    if not isinstance(models, dict) or not models:
        raise ParseError("'models' must be a non-empty object", path=where, line=line)
    try:  # the tags first: a bad tag is reported before any panel fault
        meta = PanelMetadata(**{tag: record[tag] for tag in _TAGS if tag in record})
        panel = build_panel(
            series_id=record["series_id"],
            context=record["context"],
            actuals=record.get("actuals"),
            seasonality=record["seasonality"],
            levels=QuantileLevels(record["levels"]),
            models=list(models.items()),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed panel record: {exc}", path=where, line=line) from None
    except ArbitrationError as exc:  # keeps its class and attributes
        exc.args = (f"{where}:{line}: {exc}",)
        raise
    return TaggedPanel(panel=panel, metadata=meta)


def save_panels(path: str | Path, tagged_panels: Iterable[TaggedPanel]) -> int:
    """Write panels as one JSON record per line; returns the record count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for tagged in tagged_panels:
            fh.write(json.dumps(_panel_to_record(tagged)))
            fh.write("\n")
            count += 1
    return count


def _iter_panel_files(path: Path) -> Sequence[Path]:
    if path.is_dir():
        return sorted(p for p in path.glob("*.jsonl") if p.is_file())
    return [path]


class _RepeatedKey(ValueError):
    pass


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` that refuses repeated keys, which plain
    ``json.loads`` resolves silently to the last value."""
    out = dict(pairs)
    if len(out) != len(pairs):
        keys = [k for k, _ in pairs]
        raise _RepeatedKey(sorted({k for k in keys if keys.count(k) > 1}))
    return out


def load_panels(path: str | Path, strict: bool = True) -> list[TaggedPanel]:
    """Load panels from a record file, or every ``*.jsonl`` file in a directory.

    Malformed JSON or records, repeated object keys and repeated series ids
    surface as :class:`ParseError` carrying the file and line; panel-content
    violations propagate from panel validation.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError("panel path does not exist", path=str(path))
    out: list[TaggedPanel] = []
    seen: dict[str, str] = {}
    for file in _iter_panel_files(path):
        with file.open("r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw, object_pairs_hook=_unique_keys)
                except _RepeatedKey as exc:
                    raise ParseError(
                        f"repeated object keys {exc.args[0]}", path=str(file), line=lineno
                    ) from None
                except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
                    raise ParseError(
                        f"invalid JSON: {getattr(exc, 'msg', exc)}", path=str(file), line=lineno
                    ) from None
                tagged = _record_to_panel(record, str(file), lineno, strict)
                sid = tagged.panel.series_id
                if sid in seen:
                    # Series ids key random streams and report scopes.
                    raise ParseError(
                        f"duplicate series_id {sid!r} (first at {seen[sid]})",
                        path=str(file),
                        line=lineno,
                    )
                seen[sid] = f"{file}:{lineno}"
                out.append(tagged)
    return out
