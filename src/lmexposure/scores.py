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
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ComputationError, InputFormatError, located, open_text, parse_finite
from .taxonomy import OccupationCode

if TYPE_CHECKING:  # hints only: importing scores must not load annotate
    from .annotate import AnnotationRun, ExposureCategory

# Keyed by the category token, ``ExposureCategory.value``.
POINT_VALUES: dict[str, float] = {"E0": 0.0, "E1": 1.0, "E2": 0.5, "E3": 0.5}

# Column order of the canonical score table file.
MODEL_COLUMNS = ("glm", "gpt4", "internlm")
SCORE_COLUMNS = ("expert", *MODEL_COLUMNS, "ensemble")
SCORE_TABLE_HEADER = ("code", "title", *SCORE_COLUMNS)


def category_points(category: ExposureCategory) -> float:
    """Point value of one rubric category."""
    return POINT_VALUES[category.value]


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


class ExpertPanel:
    """Individual expert scores per occupation code."""

    def __init__(self, scores: dict[str, list[float]]) -> None:
        self.scores = scores
        for code, values in scores.items():
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


def _parse_score(cell: str | None, what: str) -> float:
    """One score in [0, 1], or an InputFormatError."""
    value = parse_finite(cell, what)
    if not 0.0 <= value <= 1.0:
        raise InputFormatError(f"{what} {value} is outside [0, 1]")
    return value


def read_expert_panel(source: str | Path) -> ExpertPanel:
    """Read a long-format expert score file with header ``code,score``."""
    scores: dict[str, list[float]] = {}
    with open_text(source, newline="") as handle:
        reader = csv.DictReader(handle)
        with located(source, reader):
            if reader.fieldnames is None or not {"code", "score"}.issubset(reader.fieldnames):
                raise InputFormatError(
                    f"expert panel header must contain ['code', 'score'], got {reader.fieldnames}",
                    line=1,
                )
            for row in reader:
                code = OccupationCode.parse(row["code"]).raw
                scores.setdefault(code, []).append(_parse_score(row["score"], "expert score"))
    return ExpertPanel(scores=scores)


# --- score table file --------------------------------------------------------


class ScoreRow:
    """One row of the canonical score table; an empty cell has no key."""

    def __init__(self, code: str, title: str, scores: dict[str, float]) -> None:
        self.code = code
        self.title = title
        self.scores = scores


class ScoreTable:
    """Ordered score table matching the canonical file layout."""

    def __init__(self, rows: list[ScoreRow]) -> None:
        self.rows = rows

    def column(self, name: str) -> dict[str, float]:
        """Non-missing values of one column, keyed by occupation code."""
        if name not in SCORE_COLUMNS:
            raise KeyError(f"unknown score column {name!r}")
        return {row.code: row.scores[name] for row in self.rows if name in row.scores}

    def titles(self) -> dict[str, str]:
        return {row.code: row.title for row in self.rows}


def records_from_runs(
    runs: Iterable[AnnotationRun], titles: Mapping[str, str] | None = None
) -> list[ScoreRow]:
    """Score annotation runs: one row per occupation, in code order.

    Runs for the same (model, occupation) pair are pooled into one sample
    list in record order. The ensemble sums the models in the order they
    first appear. A model id outside ``MODEL_COLUMNS`` has no column in the
    score table and raises ``InputFormatError``.
    """
    samples: dict[str, dict[str, list[ExposureCategory]]] = {}
    for run in runs:
        if run.model_id not in MODEL_COLUMNS:
            raise InputFormatError(
                f"score table columns support models {list(MODEL_COLUMNS)}, "
                f"got {run.model_id!r}"
            )
        per_model = samples.setdefault(run.occupation_code.raw, {})
        per_model.setdefault(run.model_id, []).extend(run.samples)

    def _key(raw: str) -> tuple[int, ...]:
        return tuple(int(seg) for seg in raw.split("-"))

    rows = []
    for raw in sorted(samples, key=_key):
        scores = {m: model_score(s) for m, s in samples[raw].items()}
        scores["ensemble"] = ensemble(scores)
        rows.append(ScoreRow(code=raw, title=(titles or {}).get(raw, ""), scores=scores))
    return rows


def read_score_table(source: str | Path | io.TextIOBase) -> ScoreTable:
    """Read a score table file with the canonical header."""
    if isinstance(source, (str, Path)):
        with open_text(source, newline="") as handle:
            return _read_table(handle, str(source))
    return _read_table(source, getattr(source, "name", "<stream>"))


def _read_table(handle, path: str) -> ScoreTable:
    reader = csv.DictReader(handle)
    rows: list[ScoreRow] = []
    seen: set[str] = set()
    with located(path, reader):
        if reader.fieldnames is None or tuple(reader.fieldnames) != SCORE_TABLE_HEADER:
            raise InputFormatError(
                f"score table header must be {','.join(SCORE_TABLE_HEADER)}, "
                f"got {reader.fieldnames}",
                line=1,
            )
        for row in reader:
            code = OccupationCode.parse(row["code"]).raw
            if code in seen:
                raise InputFormatError(f"duplicate code {code!r}")
            seen.add(code)
            scores = {
                name: _parse_score(cell, f"{name} value")
                for name in SCORE_COLUMNS
                if (cell := (row[name] or "").strip())
            }
            rows.append(ScoreRow(code=code, title=row["title"] or "", scores=scores))
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
        cells = (format_score(row.scores.get(name), full_precision) for name in SCORE_COLUMNS)
        writer.writerow([row.code, row.title, *cells])
    return buffer.getvalue()


def recompute_ensemble(table: ScoreTable) -> ScoreTable:
    """Return a copy of the table with the ensemble column recomputed."""
    rows = []
    for row in table.rows:
        scores = {name: v for name, v in row.scores.items() if name != "ensemble"}
        models = {name: v for name, v in scores.items() if name in MODEL_COLUMNS}
        if models:
            scores["ensemble"] = ensemble(models)
        rows.append(ScoreRow(code=row.code, title=row.title, scores=scores))
    return ScoreTable(rows=rows)
