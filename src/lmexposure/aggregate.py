"""Projection of occupational exposure onto industries and demographics.

Both projections are weighted averages with stochastic weight rows: an
industry's exposure is the employment-share-weighted mean of its
occupations' scores, and an age group's exposure is the industry-share
weighted mean of industry scores. Rows that do not sum to one are hard
errors, never silently renormalized.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .errors import (
    SHARE_SUM_TOL,
    ComputationError,
    InputFormatError,
    located,
    open_text,
    parse_finite,
)
from .taxonomy import OccupationCode


class RowSumError(InputFormatError):
    """A weight row does not sum to one within tolerance."""


class MissingExposureError(ComputationError):
    """A weight column has no matching exposure score."""


def _to_rows(
    matrix: Sequence[Sequence[float]], n_rows: int, n_cols: int, what: str
) -> list[list[float]]:
    """Copy a matrix to float rows, checking its shape against its labels."""
    rows = [[float(v) for v in row] for row in matrix]
    if len(rows) != n_rows or any(len(row) != n_cols for row in rows):
        raise InputFormatError(
            f"{what} matrix is not {n_rows} x {n_cols}, one row and column per label"
        )
    return rows


def _check_rows(matrix: list[list[float]], labels: list[str], what: str) -> None:
    # Written so that NaN fails both checks: comparisons with NaN are false.
    for label, row in zip(labels, matrix):
        for v in row:
            if not v >= 0:
                raise InputFormatError(
                    f"share {v:.12g} in {what} row {label!r} is not a non-negative number"
                )
        total = sum(row)
        if not abs(total - 1.0) <= SHARE_SUM_TOL:
            raise RowSumError(
                f"{what} row {label!r} sums to {total:.12g}, expected 1 within {SHARE_SUM_TOL}"
            )


def _project(
    matrix: list[list[float]], labels: list[str], scores: list[float]
) -> dict[str, float]:
    """Each row's score-weighted sum, one ``math.fsum`` per row."""
    return {k: math.fsum(w * x for w, x in zip(row, scores)) for k, row in zip(labels, matrix)}


class IntensityMatrix:
    """Industry-by-occupation employment shares; each row is stochastic."""

    def __init__(
        self, industries: list[str], occupations: list[str], beta: Sequence[Sequence[float]]
    ) -> None:
        self.industries = industries
        self.occupations = occupations
        self.beta = _to_rows(beta, len(industries), len(occupations), "intensity")
        levels = {OccupationCode.parse(code).level for code in occupations}
        if len(levels) > 1:
            raise InputFormatError(
                f"occupation columns mix taxonomy levels {sorted(l.name for l in levels)}"
            )
        _check_rows(self.beta, self.industries, "intensity")

    @classmethod
    def from_csv(cls, source: str | Path) -> "IntensityMatrix":
        with located(source):
            return cls(*_read_share_file(source, "industry_id"))


class DemographicShares:
    """Age-group-by-industry employment shares; each row is stochastic."""

    def __init__(
        self, age_groups: list[str], industries: list[str], w: Sequence[Sequence[float]]
    ) -> None:
        self.age_groups = age_groups
        self.industries = industries
        self.w = _to_rows(w, len(age_groups), len(industries), "demographic")
        _check_rows(self.w, age_groups, "demographic")

    @classmethod
    def from_csv(cls, source: str | Path) -> "DemographicShares":
        with located(source):
            return cls(*_read_share_file(source, "age_group"))


def _read_share_file(source: str | Path, key_column: str):
    rows: dict[str, list[float]] = {}
    with open_text(source, newline="") as handle:
        reader = csv.reader(handle)
        with located(source, reader):
            header = next(reader, None)
            if not header or header[0] != key_column:
                got = header[0] if header else "nothing"
                raise InputFormatError(f"first column must be {key_column!r}, got {got}", line=1)
            columns = header[1:]
            if not columns:
                raise InputFormatError("share file has no weight columns")
            if key_column == "industry_id":  # intensity columns are occupation codes
                for code in columns:
                    OccupationCode.parse(code)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputFormatError(f"expected {len(header)} cells, got {len(row)}")
                if row[0] in rows:  # results are keyed by label: a repeat would replace
                    raise InputFormatError(f"duplicate {key_column} {row[0]!r}")
                try:
                    rows[row[0]] = [float(cell) for cell in row[1:]]
                except ValueError as exc:
                    raise InputFormatError(f"non-numeric share: {exc}") from None
    return list(rows), columns, list(rows.values())


def _read_industry_column(source: str | Path, column: str, parse: Callable[[str], object]) -> dict:
    """``industry_id`` -> ``parse(row[column])``; a repeated id is an input error."""
    values = {}
    with open_text(source, newline="") as handle:
        reader = csv.DictReader(handle)
        with located(source, reader):
            if not {"industry_id", column}.issubset(reader.fieldnames or ()):
                raise InputFormatError(f"header must contain industry_id,{column}", line=1)
            for row in reader:
                if row["industry_id"] in values:
                    raise InputFormatError(f"duplicate industry_id {row['industry_id']!r}")
                if row[column] is None:
                    raise InputFormatError(f"row has no {column} cell")
                values[row["industry_id"]] = parse(row[column])
    return values


def read_industry_names(source: str | Path) -> dict[str, str]:
    """Read an industry list with header ``industry_id,name``."""
    return _read_industry_column(source, "name", str)


def read_industry_scores(source: str | Path) -> dict[str, float]:
    """Read an industry exposure file with header ``industry_id,score``."""
    return _read_industry_column(source, "score", lambda cell: parse_finite(cell, "score"))


def industry_exposure(
    matrix: IntensityMatrix, r_occ: Mapping[str, float]
) -> dict[str, float]:
    """Project occupational scores to industries: r_i = sum_j beta_ij * r_j.

    Every occupation column must have a score; each result is a convex
    combination, bounded by the occupational extremes.
    """
    missing = [code for code in matrix.occupations if code not in r_occ]
    if missing:
        raise MissingExposureError(
            f"no exposure score for occupation columns {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    return _project(matrix.beta, matrix.industries, [r_occ[code] for code in matrix.occupations])


def demographic_exposure(
    shares: DemographicShares, r_ind: Mapping[str, float]
) -> dict[str, float]:
    """Project industry scores to age groups: d_a = sum_i w_ai * r_i."""
    missing = [ind for ind in shares.industries if ind not in r_ind]
    if missing:
        raise MissingExposureError(
            f"no exposure score for industries {missing[:5]}"
            + ("..." if len(missing) > 5 else "")
        )
    return _project(shares.w, shares.age_groups, [r_ind[ind] for ind in shares.industries])
