"""Numeric exposure scores: point mapping, model means, ensembles, experts.

Categories map to points (E0 = 0, E1 = 1, E2 = E3 = 0.5); a model's score
for an occupation is the mean over its repeated samples, and the ensemble
score is the unweighted mean over models. Expert scores arrive as
already-collected numeric panels and are averaged the same way. Scores are
kept at full float precision internally; the 4-decimal presentation happens
only when writing the score table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .annotate import AnnotationRun, ExposureCategory
from .errors import ComputationError, InputFormatError, open_text, parse_finite
from .taxonomy import OccupationCode

POINT_VALUES: dict[ExposureCategory, float] = {
    ExposureCategory.E0: 0.0,
    ExposureCategory.E1: 1.0,
    ExposureCategory.E2: 0.5,
    ExposureCategory.E3: 0.5,
}

# Column order of the canonical score table file.
SCORE_TABLE_HEADER = ("code", "title", "expert", "glm", "gpt4", "internlm", "ensemble")
MODEL_COLUMNS = ("glm", "gpt4", "internlm")


def category_points(category: ExposureCategory) -> float:
    """Point value of one rubric category."""
    return POINT_VALUES[category]


def model_score(samples: Sequence[ExposureCategory]) -> float:
    """Mean point value over one model's samples for one occupation."""
    if not samples:
        raise ComputationError("cannot score an empty sample list")
    return sum(category_points(s) for s in samples) / len(samples)


def ensemble(per_model_score: Mapping[str, float]) -> float:
    """Unweighted mean over the per-model scores, no rounding."""
    if not per_model_score:
        raise ComputationError("cannot ensemble an empty model-score map")
    return sum(per_model_score.values()) / len(per_model_score)


@dataclass
class ExpertPanel:
    """Individual expert scores per occupation code."""

    scores: dict[str, list[float]]
    panel_size: int

    def __post_init__(self) -> None:
        for code, values in self.scores.items():
            for v in values:
                if not 0.0 <= v <= 1.0:
                    raise ComputationError(
                        f"expert score {v} for {code!r} is outside [0, 1]"
                    )


def expert_mean(panel: ExpertPanel, code: str) -> float:
    """Average expert score for one occupation."""
    if code not in panel.scores or not panel.scores[code]:
        raise ComputationError(f"no expert scores for occupation {code!r}")
    values = panel.scores[code]
    return sum(values) / len(values)


def read_expert_panel(source: str | Path) -> ExpertPanel:
    """Read a long-format expert score file with header ``code,score``."""
    path = str(source)
    scores: dict[str, list[float]] = {}
    with open_text(source, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"code", "score"}.issubset(reader.fieldnames):
            raise InputFormatError(
                f"expert panel header must contain ['code', 'score'], got {reader.fieldnames}",
                path=path,
                line=1,
            )
        for row in reader:
            code = OccupationCode.parse(row["code"]).raw
            value = parse_finite(row["score"], "expert score", path, reader.line_num)
            scores.setdefault(code, []).append(value)
    panel_size = max((len(v) for v in scores.values()), default=0)
    return ExpertPanel(scores=scores, panel_size=panel_size)


@dataclass
class ExposureRecord:
    """Canonical per-occupation score record."""

    code: OccupationCode
    per_model_score: dict[str, float] = field(default_factory=dict)
    ensemble_score: float = 0.0
    expert_score: float | None = None
    title: str = ""

    @classmethod
    def from_samples(
        cls,
        code: OccupationCode,
        per_model_samples: Mapping[str, Sequence[ExposureCategory]],
        expert_score: float | None = None,
        title: str = "",
    ) -> "ExposureRecord":
        per_model = {m: model_score(s) for m, s in per_model_samples.items()}
        return cls(
            code=code,
            per_model_score=per_model,
            ensemble_score=ensemble(per_model),
            expert_score=expert_score,
            title=title,
        )


def records_from_runs(runs: Iterable[AnnotationRun]) -> list[ExposureRecord]:
    """Group annotation runs by occupation and score them.

    Runs for the same (model, occupation) pair are pooled into one sample
    list in record order.
    """
    samples: dict[str, dict[str, list[ExposureCategory]]] = {}
    codes: dict[str, OccupationCode] = {}
    for run in runs:
        codes[run.occupation_code.raw] = run.occupation_code
        per_model = samples.setdefault(run.occupation_code.raw, {})
        per_model.setdefault(run.model_id, []).extend(run.samples)

    def _key(raw: str) -> tuple[int, ...]:
        return tuple(int(seg) for seg in raw.split("-"))

    return [
        ExposureRecord.from_samples(codes[raw], samples[raw])
        for raw in sorted(samples, key=_key)
    ]


# --- score table file --------------------------------------------------------


@dataclass
class ScoreRow:
    """One row of the canonical score table."""

    code: str
    title: str
    expert: float | None
    per_model: dict[str, float]
    ensemble: float | None


@dataclass
class ScoreTable:
    """Ordered score table matching the canonical file layout."""

    rows: list[ScoreRow]

    def column(self, name: str) -> dict[str, float]:
        """Non-missing values of one column, keyed by occupation code."""
        out: dict[str, float] = {}
        for row in self.rows:
            value: float | None
            if name == "expert":
                value = row.expert
            elif name == "ensemble":
                value = row.ensemble
            elif name in MODEL_COLUMNS:
                value = row.per_model.get(name)
            else:
                raise KeyError(f"unknown score column {name!r}")
            if value is not None:
                out[row.code] = value
        return out

    def titles(self) -> dict[str, str]:
        return {row.code: row.title for row in self.rows}


def _parse_score(cell: str, column: str, path: str, line: int) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    value = parse_finite(cell, f"{column} value", path, line)
    if not 0.0 <= value <= 1.0:
        raise InputFormatError(
            f"{column} value {value} is outside [0, 1]", path=path, line=line
        )
    return value


def read_score_table(source: str | Path | io.TextIOBase) -> ScoreTable:
    """Read a score table file with the canonical header."""
    if isinstance(source, (str, Path)):
        with open_text(source, newline="") as handle:
            return _read_table(handle, str(source))
    return _read_table(source, getattr(source, "name", "<stream>"))


def _read_table(handle, path: str) -> ScoreTable:
    reader = csv.DictReader(handle)
    if reader.fieldnames is None or tuple(reader.fieldnames) != SCORE_TABLE_HEADER:
        raise InputFormatError(
            f"score table header must be {','.join(SCORE_TABLE_HEADER)}, got {reader.fieldnames}",
            path=path,
            line=1,
        )
    rows: list[ScoreRow] = []
    seen: set[str] = set()
    for row in reader:
        line = reader.line_num
        code = OccupationCode.parse(row["code"]).raw
        if code in seen:
            raise InputFormatError(f"duplicate code {code!r}", path=path, line=line)
        seen.add(code)
        per_model = {}
        for model in MODEL_COLUMNS:
            value = _parse_score(row[model] or "", model, path, line)
            if value is not None:
                per_model[model] = value
        rows.append(
            ScoreRow(
                code=code,
                title=row["title"] or "",
                expert=_parse_score(row["expert"] or "", "expert", path, line),
                per_model=per_model,
                ensemble=_parse_score(row["ensemble"] or "", "ensemble", path, line),
            )
        )
    return ScoreTable(rows=rows)


def format_score(value: float | None, full_precision: bool = False) -> str:
    if value is None:
        return ""
    return repr(value) if full_precision else f"{value:.4f}"


def render_score_table(table: ScoreTable, full_precision: bool = False) -> str:
    """Serialize a score table to CSV text (4-decimal unless full precision)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCORE_TABLE_HEADER)
    for row in table.rows:
        writer.writerow(
            [
                row.code,
                row.title,
                format_score(row.expert, full_precision),
                *(
                    format_score(row.per_model.get(m), full_precision)
                    for m in MODEL_COLUMNS
                ),
                format_score(row.ensemble, full_precision),
            ]
        )
    return buffer.getvalue()


def table_from_records(
    records: Iterable[ExposureRecord], titles: Mapping[str, str] | None = None
) -> ScoreTable:
    """Build a writable score table from exposure records.

    The file layout has fixed per-model columns; records carrying model ids
    outside that set cannot be serialized and raise ``InputFormatError``.
    """
    titles = dict(titles or {})
    rows = []
    for record in records:
        unknown = set(record.per_model_score) - set(MODEL_COLUMNS)
        if unknown:
            raise InputFormatError(
                f"score table columns support models {list(MODEL_COLUMNS)}, "
                f"got {sorted(unknown)}"
            )
        rows.append(
            ScoreRow(
                code=record.code.raw,
                title=record.title or titles.get(record.code.raw, ""),
                expert=record.expert_score,
                per_model=dict(record.per_model_score),
                ensemble=record.ensemble_score,
            )
        )
    return ScoreTable(rows=rows)


def recompute_ensemble(table: ScoreTable) -> ScoreTable:
    """Return a copy of the table with the ensemble column recomputed."""
    rows = []
    for row in table.rows:
        rows.append(
            ScoreRow(
                code=row.code,
                title=row.title,
                expert=row.expert,
                per_model=dict(row.per_model),
                ensemble=ensemble(row.per_model) if row.per_model else None,
            )
        )
    return ScoreTable(rows=rows)
