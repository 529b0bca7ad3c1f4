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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ComputationError, InputFormatError
from .taxonomy import OccupationCode

ROW_SUM_TOL = 1e-9


class RowSumError(InputFormatError):
    """A weight row does not sum to one within tolerance."""


class MissingExposureError(ComputationError):
    """A weight column has no matching exposure score."""


def _check_rows(matrix: np.ndarray, labels: list[str], what: str, path: str | None) -> None:
    if np.any(matrix < 0):
        row, col = map(int, np.argwhere(matrix < 0)[0])
        raise InputFormatError(
            f"negative share {float(matrix[row, col]):.12g} in {what} row {labels[row]!r}",
            path=path,
        )
    sums = matrix.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        row = int(np.argmax(bad))
        raise RowSumError(
            f"{what} row {labels[row]!r} sums to {float(sums[row]):.12g}, "
            f"expected 1 within {ROW_SUM_TOL}",
            path=path,
        )


@dataclass
class IntensityMatrix:
    """Industry-by-occupation employment shares; each row is stochastic."""

    industries: list[str]
    occupations: list[str]
    beta: np.ndarray

    def __post_init__(self) -> None:
        self.beta = np.asarray(self.beta, dtype=float)
        if self.beta.shape != (len(self.industries), len(self.occupations)):
            raise InputFormatError(
                f"intensity matrix shape {self.beta.shape} does not match "
                f"{len(self.industries)} industries x {len(self.occupations)} occupations"
            )
        levels = {OccupationCode.parse(code).level for code in self.occupations}
        if len(levels) > 1:
            raise InputFormatError(
                f"occupation columns mix taxonomy levels {sorted(l.name for l in levels)}"
            )
        _check_rows(self.beta, self.industries, "intensity", None)

    @classmethod
    def from_csv(cls, source: str | Path) -> "IntensityMatrix":
        industries, occupations, matrix = _read_share_file(source, "industry_id")
        return cls(industries=industries, occupations=occupations, beta=matrix)


@dataclass
class DemographicShares:
    """Age-group-by-industry employment shares; each row is stochastic."""

    age_groups: list[str]
    industries: list[str]
    w: np.ndarray

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (len(self.age_groups), len(self.industries)):
            raise InputFormatError(
                f"demographic share shape {self.w.shape} does not match "
                f"{len(self.age_groups)} age groups x {len(self.industries)} industries"
            )
        _check_rows(self.w, self.age_groups, "demographic", None)

    @classmethod
    def from_csv(cls, source: str | Path) -> "DemographicShares":
        age_groups, industries, matrix = _read_share_file(source, "age_group")
        return cls(age_groups=age_groups, industries=industries, w=matrix)


def _read_share_file(source: str | Path, key_column: str):
    path = str(source)
    with open(source, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InputFormatError("empty share file", path=path, line=1) from None
        if not header or header[0] != key_column:
            raise InputFormatError(
                f"first column must be {key_column!r}, got {header[0] if header else 'nothing'}",
                path=path,
                line=1,
            )
        columns = header[1:]
        if not columns:
            raise InputFormatError("share file has no weight columns", path=path, line=1)
        labels: list[str] = []
        values: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputFormatError(
                    f"expected {len(header)} cells, got {len(row)}", path=path, line=line_no
                )
            labels.append(row[0])
            try:
                values.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise InputFormatError(f"non-numeric share: {exc}", path=path, line=line_no)
    matrix = np.array(values, dtype=float)
    return labels, columns, matrix


def read_industry_names(source: str | Path) -> dict[str, str]:
    """Read an industry list with header ``industry_id,name``."""
    with open(source, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"industry_id", "name"}.issubset(reader.fieldnames):
            raise InputFormatError(
                "industry list header must contain industry_id,name", path=str(source), line=1
            )
        return {row["industry_id"]: row["name"] for row in reader}


def read_industry_scores(source: str | Path) -> dict[str, float]:
    """Read an industry exposure file with header ``industry_id,score``."""
    path = str(source)
    with open(source, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"industry_id", "score"}.issubset(reader.fieldnames):
            raise InputFormatError(
                "industry exposure header must contain industry_id,score", path=path, line=1
            )
        out = {}
        for row in reader:
            try:
                value = float(row["score"])
            except (TypeError, ValueError):
                raise InputFormatError(
                    f"non-numeric score {row['score']!r}", path=path, line=reader.line_num
                ) from None
            if not math.isfinite(value):
                raise InputFormatError(
                    f"score {row['score']!r} is not finite", path=path, line=reader.line_num
                )
            out[row["industry_id"]] = value
        return out


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
    scores = np.array([r_occ[code] for code in matrix.occupations], dtype=float)
    values = matrix.beta @ scores
    return dict(zip(matrix.industries, values.tolist()))


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
    scores = np.array([r_ind[ind] for ind in shares.industries], dtype=float)
    values = shares.w @ scores
    return dict(zip(shares.age_groups, values.tolist()))
