"""Numeric exposure scores: point mapping, model means, ensembles, experts.

Categories map to points (E0 = 0, E1 = 1, E2 = E3 = 0.5); a model's score
for an occupation is the mean over its repeated samples, and the ensemble
score is the unweighted mean over models. Expert scores arrive as
already-collected numeric panels and are averaged the same way. Scores are
kept at full float precision internally; the 4-decimal presentation happens
only when writing the score table.
"""

from __future__ import annotations

import io
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from . import MODEL_COLUMNS, SCORE_COLUMNS, runio
from .errors import (
    ComputationError,
    InputFormatError,
    cells_at,
    code_cell,
    csv_input,
    parse_score,
)

if TYPE_CHECKING:  # hints only: importing scores must not load annotate
    from .annotate import AnnotationRun, ExposureCategory

# Keyed by the category token, ``ExposureCategory.value``.
POINT_VALUES: dict[str, float] = {"E0": 0.0, "E1": 1.0, "E2": 0.5, "E3": 0.5}

# The canonical score table file's header; the column names are the package's.
SCORE_TABLE_HEADER = ("code", "title", *SCORE_COLUMNS)


def model_score(samples: Sequence[ExposureCategory]) -> float:
    """Mean point value over one model's samples for one occupation."""
    if not samples:
        raise ComputationError("cannot score an empty sample list")
    return sum(POINT_VALUES[s.value] for s in samples) / len(samples)


def ensemble(per_model_score: Mapping[str, float]) -> float:
    """Unweighted mean over the per-model scores, no rounding."""
    if not per_model_score:
        raise ComputationError("cannot ensemble an empty model-score map")
    return sum(per_model_score.values()) / len(per_model_score)


def read_expert_panel(source: str | Path) -> dict[str, float]:
    """Each code's mean score in a long-format expert file with header ``code,score``."""
    scores: dict[str, list[float]] = {}
    with csv_input(source) as (header, rows, _):
        at_code, at_score = cells_at(header, ("code", "score"), "expert panel")
        for row in rows:
            code = code_cell(row[at_code])
            scores.setdefault(code, []).append(parse_score(row[at_score], "expert score"))
    return {code: sum(values) / len(values) for code, values in scores.items()}


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
    rows: list[ScoreRow] = []
    seen: set[str] = set()
    with csv_input(source) as (header, lines, _):
        if header is None or tuple(header) != SCORE_TABLE_HEADER:
            raise InputFormatError(
                f"score table header must be {','.join(SCORE_TABLE_HEADER)}, got {header}",
                line=1,
            )
        for row in lines:
            code = code_cell(row[0])
            if code in seen:
                raise InputFormatError(f"duplicate code {code!r}")
            seen.add(code)
            scores = {}
            for name, cell in zip(SCORE_COLUMNS, row[2:]):
                try:
                    value = float(cell)
                except ValueError:
                    if not cell.strip():  # an empty cell is a missing score
                        continue
                    value = math.nan
                if not 0.0 <= value <= 1.0:  # NaN too
                    parse_score(cell.strip(), f"{name} value")  # raises with the cell's message
                scores[name] = value
            rows.append(ScoreRow(code, row[1], scores))
    return ScoreTable(rows)


# A title holding one of these is written as one quoted cell.
_QUOTED_TITLE = re.compile('[",\r\n]')


def render_score_table(table: ScoreTable, full_precision: bool = False) -> str:
    """Serialize a score table to CSV text (4-decimal unless full precision);
    a missing score is an empty cell."""
    rows = [
        (row.code, runio.quoted(row.title) if _QUOTED_TITLE.search(row.title) else row.title,
         *[row.scores.get(name) for name in SCORE_COLUMNS])
        for row in table.rows
    ]
    return runio.csv_text([SCORE_TABLE_HEADER, *rows], full_precision)


def recompute_ensemble(table: ScoreTable) -> ScoreTable:
    """Return a copy of the table with the ensemble column recomputed."""
    rows = []
    for row in table.rows:
        scores = row.scores.copy()
        scores.pop("ensemble", None)
        models = {name: v for name, v in scores.items() if name in MODEL_COLUMNS}
        if models:
            scores["ensemble"] = ensemble(models)
        rows.append(ScoreRow(code=row.code, title=row.title, scores=scores))
    return ScoreTable(rows=rows)
