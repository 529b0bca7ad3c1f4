"""Projection of occupational exposure onto industries and demographics.

Both projections are weighted averages with stochastic weight rows: an
industry's exposure is the employment-share-weighted mean of its
occupations' scores, and an age group's exposure is the industry-share
weighted mean of industry scores. Rows that do not sum to one are hard
errors, never silently renormalized.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import (
    ComputationError,
    InputFormatError,
    cells_at,
    check_sum_to_one,
    code_cell,
    csv_input,
    located,
    parse_score,
)


class RowSumError(InputFormatError):
    """A weight row does not sum to one within tolerance."""


class MissingExposureError(ComputationError):
    """A weight column has no matching exposure score."""


def _check_rows(
    matrix: Sequence[Sequence[float]], labels: list[str], columns: list[str], what: str
) -> None:
    """Check one row per label and one cell per column, each row stochastic."""
    if len(matrix) != len(labels) or any(len(row) != len(columns) for row in matrix):
        raise InputFormatError(
            f"{what} matrix is not {len(labels)} x {len(columns)}, one row and column per label"
        )
    # Written so that NaN fails both checks: comparisons with NaN are false.
    for label, row in zip(labels, matrix):
        total = sum(row)
        if not (min(row, default=0.0) >= 0 and total == total):  # a NaN makes the total NaN
            for v in row:  # name the first cell at fault
                if not v >= 0:
                    raise InputFormatError(
                        f"share {v:.12g} in {what} row {label!r} is not a non-negative number"
                    )
        check_sum_to_one(total, f"{what} row {label!r} sums", RowSumError)


def _project(
    matrix: Sequence[Sequence[float]],
    labels: list[str],
    columns: list[str],
    scores: Mapping[str, float],
    what: str,
) -> dict[str, float]:
    """Each row's score-weighted sum, one ``math.fsum`` per row.

    Every column must have a score; a missing one raises
    ``MissingExposureError`` naming the first few ``what``.
    """
    missing = [c for c in columns if c not in scores]
    if missing:
        raise MissingExposureError(
            f"no exposure score for {what} {missing[:5]}" + ("..." if len(missing) > 5 else "")
        )
    weights = [scores[c] for c in columns]
    return {k: math.fsum(map(operator.mul, row, weights)) for k, row in zip(labels, matrix)}


class IntensityMatrix:
    """Industry-by-occupation employment shares; each row is stochastic."""

    def __init__(
        self, industries: list[str], occupations: list[str], beta: Sequence[Sequence[float]]
    ) -> None:
        # A code's level is its segment count; code_cell checks each column's code.
        segments = {code_cell(c).count("-") for c in occupations}
        if len(segments) > 1:
            from .taxonomy import Level

            levels = sorted(Level(n + 1).name for n in segments)
            raise InputFormatError(f"occupation columns mix taxonomy levels {levels}")
        _check_rows(beta, industries, occupations, "intensity")
        self.industries = industries
        self.occupations = occupations
        self.beta = beta

    @classmethod
    def from_csv(cls, source: str | Path) -> "IntensityMatrix":
        with located(source):
            return cls(*_read_share_file(source, "industry_id"))


class DemographicShares:
    """Age-group-by-industry employment shares; each row is stochastic."""

    def __init__(
        self, age_groups: list[str], industries: list[str], w: Sequence[Sequence[float]]
    ) -> None:
        _check_rows(w, age_groups, industries, "demographic")
        self.age_groups = age_groups
        self.industries = industries
        self.w = w

    @classmethod
    def from_csv(cls, source: str | Path) -> "DemographicShares":
        with located(source):
            return cls(*_read_share_file(source, "age_group"))


def _read_share_file(source: str | Path, key_column: str):
    """(row labels, columns, float rows of the header's width) for a constructor to check.

    Intensity columns are read as codes here, in ``code_cell`` form, so a bad one is
    named at line 1; a label or column padded with spaces repeats or matches its id.
    """
    rows: dict[str, list[float]] = {}
    with csv_input(source) as (header, lines, _):
        if not header or header[0] != key_column:
            got = header[0] if header else "nothing"
            raise InputFormatError(f"first column must be {key_column!r}, got {got}", line=1)
        columns = header[1:]
        if not columns:
            raise InputFormatError("share file has no weight columns")
        # Intensity columns are occupation codes; demographics columns are industry ids.
        clean = code_cell if key_column == "industry_id" else str.strip
        columns = [clean(column) for column in columns]
        if len(set(columns)) < len(columns):  # weights meet scores by column name
            repeated = next(c for i, c in enumerate(columns) if c in columns[:i])
            raise InputFormatError(f"header names column {repeated!r} twice", line=1)
        for row in lines:
            label = row[0].strip()
            if label in rows:  # results are keyed by label: a repeat would replace
                raise InputFormatError(f"duplicate {key_column} {label!r}")
            try:
                rows[label] = list(map(float, row[1:]))
            except ValueError as exc:
                raise InputFormatError(f"non-numeric share: {exc}") from None
    return list(rows), columns, list(rows.values())


def _read_industry_column(
    source: str | Path, column: str, parse: Callable[[str], object], what: str
) -> dict:
    """Stripped ``industry_id`` -> ``parse(row[column])``; a repeated id is an input error."""
    values = {}
    with csv_input(source) as (header, rows, _):
        at_id, at_value = cells_at(header, ("industry_id", column), what)
        for row in rows:
            industry = row[at_id].strip()
            if industry in values:
                raise InputFormatError(f"duplicate industry_id {industry!r}")
            values[industry] = parse(row[at_value])
    return values


def read_industry_names(source: str | Path) -> dict[str, str]:
    """Read an industry list with header ``industry_id,name``."""
    return _read_industry_column(source, "name", str, "industry list")


def read_industry_scores(source: str | Path) -> dict[str, float]:
    """Read an industry exposure file with header ``industry_id,score``; each
    score is in [0, 1]."""
    return _read_industry_column(
        source, "score", lambda cell: parse_score(cell, "score"), "industry scores"
    )


def industry_exposure(
    matrix: IntensityMatrix, r_occ: Mapping[str, float]
) -> dict[str, float]:
    """Project occupational scores to industries: r_i = sum_j beta_ij * r_j.

    Every occupation column must have a score; each result is a convex
    combination, bounded by the occupational extremes.
    """
    return _project(
        matrix.beta, matrix.industries, matrix.occupations, r_occ, "occupation columns"
    )


def demographic_exposure(
    shares: DemographicShares, r_ind: Mapping[str, float]
) -> dict[str, float]:
    """Project industry scores to age groups: d_a = sum_i w_ai * r_i."""
    return _project(shares.w, shares.age_groups, shares.industries, r_ind, "industries")
