"""Descriptive labor-market statistics over exposure scores.

Summary panels (count / mean / sample std), Pearson correlations with
significance stars from the exact two-sided Student-t tail, vacancy-share
normalization and growth, and exposure-versus-outcome scatter reports with
a single-variable least-squares fit line. Missing outcome values drop the
pair; every report records the effective n.
"""

from __future__ import annotations

import csv
import math
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    SHARE_SUM_TOL,
    ComputationError,
    InputFormatError,
    located,
    open_text,
    parse_finite,
)
from .taxonomy import OccupationCode

# p-value cutoffs, most demanding first. Convention: * p<0.05, ** p<0.01,
# *** p<0.001, consistent with the published star assignments.
DEFAULT_STAR_THRESHOLDS: tuple[tuple[float, str], ...] = (
    (0.001, "***"),
    (0.01, "**"),
    (0.05, "*"),
)


class ConstantSeriesError(ComputationError):
    """Pearson r is undefined for a zero-variance series."""


class SummaryEntry(NamedTuple):
    """Count, mean and sample standard deviation of one series."""

    count: int
    mean: float
    std: float


def summarize(series: Sequence[float]) -> SummaryEntry:
    """Summarize one series; the std uses the n-1 denominator."""
    n = len(series)
    if n < 2:
        raise ComputationError(f"need at least 2 values to summarize, got {n}")
    mean = sum(series) / n
    var = sum((x - mean) ** 2 for x in series) / (n - 1)
    return SummaryEntry(count=n, mean=mean, std=math.sqrt(var))


def stars_for(
    p_value: float,
    thresholds: tuple[tuple[float, str], ...] = DEFAULT_STAR_THRESHOLDS,
) -> str:
    for cutoff, stars in sorted(thresholds):
        if p_value < cutoff:
            return stars
    return ""


class CorrResult(NamedTuple):
    """Pearson correlation with its two-sided significance."""

    r: float
    n: int
    p_value: float
    stars: str


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method; it
    converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h
    raise ComputationError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def _t_tail_p(t: float, df: int) -> float:
    """Two-sided p from the Student-t distribution on integer ``df``: the
    regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2);
    exact for small n, no normal approximation."""
    tt = t * t
    if math.isinf(tt):
        return 0.0
    a, b = df / 2.0, 0.5
    # y comes from t, not 1 - x, so that it keeps its digits at small t.
    x, y = df / (df + tt), tt / (df + tt)
    # 1 / B(a, 1/2) = Gamma(a + 1/2) / (Gamma(a) sqrt(pi)); the ratio is built
    # by its recurrence from a = 1 or 1/2, as lgamma loses ~1e-12 at df ~ 1,600.
    root_pi = math.sqrt(math.pi)
    k, ratio = (1.0, root_pi / 2.0) if df % 2 == 0 else (0.5, 1.0 / root_pi)
    while k < a:
        ratio *= (k + 0.5) / k
        k += 1.0
    # x^a y^b / B(a, b), with x^a through log1p to keep its digits at large a.
    front = math.exp(-a * math.log1p(tt / df)) * math.sqrt(y) * ratio / root_pi
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def pearson(
    x: Sequence[float],
    y: Sequence[float],
    thresholds: tuple[tuple[float, str], ...] = DEFAULT_STAR_THRESHOLDS,
) -> CorrResult:
    """Pearson r with the exact two-sided t-test on n-2 degrees of freedom."""
    if len(x) != len(y):
        raise ComputationError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ComputationError(f"need at least 3 pairs for a correlation, got {n}")
    mx = sum(x) / n
    my = sum(y) / n
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSeriesError("correlation undefined for a constant series")
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    # The product of two tiny sums can underflow to 0 where their roots do not.
    r = sxy / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r)
        p = _t_tail_p(t, n - 2)
    return CorrResult(r=r, n=n, p_value=p, stars=stars_for(p, thresholds))


class OutcomeKind(Enum):
    SALARY = "salary"
    WAGE_GROWTH = "wage_growth"
    VACANCY_SHARE = "vacancy_share"
    VACANCY_SHARE_GROWTH = "vacancy_share_growth"


class OutcomeSeries:
    """Per-occupation outcome values of one kind."""

    def __init__(self, kind: OutcomeKind, values: dict[str, float]) -> None:
        self.kind = kind
        self.values = values
        if kind is OutcomeKind.VACANCY_SHARE and values:
            total = sum(values.values())
            if not abs(total - 1.0) <= SHARE_SUM_TOL:  # NaN fails too
                raise ComputationError(
                    f"vacancy shares sum to {total:.12g}, expected 1 within {SHARE_SUM_TOL}"
                )


def vacancy_shares(counts: Mapping[str, float]) -> OutcomeSeries:
    """Normalize vacancy counts to shares summing to one."""
    if any(c < 0 for c in counts.values()):
        raise ComputationError("vacancy counts must be non-negative")
    total = sum(counts.values())
    if total <= 0:
        raise ComputationError("vacancy counts are all zero, shares undefined")
    return OutcomeSeries(
        kind=OutcomeKind.VACANCY_SHARE,
        values={code: c / total for code, c in counts.items()},
    )


def share_growth(shares_t0: OutcomeSeries, shares_t1: OutcomeSeries) -> OutcomeSeries:
    """Relative change of each share between two periods."""
    if set(shares_t0.values) != set(shares_t1.values):
        raise ComputationError("share growth needs identical code sets in both periods")
    growth = {}
    for code, s0 in shares_t0.values.items():
        if s0 <= 0:
            raise ComputationError(f"zero baseline share for {code!r}, growth undefined")
        growth[code] = (shares_t1.values[code] - s0) / s0
    return OutcomeSeries(kind=OutcomeKind.VACANCY_SHARE_GROWTH, values=growth)


class ScatterReport:
    """Paired exposure/outcome rows with correlation and OLS fit line."""

    def __init__(
        self,
        rows: list[tuple[str, str, float, float]],  # (code, title, exposure, outcome)
        corr: CorrResult,
        slope: float,
        intercept: float,
    ) -> None:
        self.rows = rows
        self.corr = corr
        self.slope = slope
        self.intercept = intercept

    @property
    def n(self) -> int:
        return self.corr.n


def scatter_report(
    exposure: Mapping[str, float],
    outcome: OutcomeSeries,
    titles: Mapping[str, str] | None = None,
) -> ScatterReport:
    """Pair exposure with an outcome series on the common codes.

    Complete-case analysis: only codes present in both series enter; the
    OLS line is outcome on exposure.
    """
    titles = titles or {}
    codes = [c for c in exposure if c in outcome.values]
    if not codes:
        raise ComputationError("exposure and outcome series share no occupation codes")
    if len(codes) < 2:
        raise ComputationError("need at least 2 paired points for a scatter report")
    rows = [
        (code, titles.get(code, ""), float(exposure[code]), float(outcome.values[code]))
        for code in codes
    ]
    xs = [r[2] for r in rows]
    ys = [r[3] for r in rows]
    if len(xs) == 2:
        # Two distinct points always lie on an exact line; there is no
        # significance to test (zero residual degrees of freedom).
        if xs[0] == xs[1] or ys[0] == ys[1]:
            raise ConstantSeriesError("correlation undefined for a constant series")
        r = 1.0 if (xs[1] - xs[0]) * (ys[1] - ys[0]) > 0 else -1.0
        corr = CorrResult(r=r, n=2, p_value=1.0, stars="")
    else:
        corr = pearson(xs, ys)
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((a - mx) ** 2 for a in xs)
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    return ScatterReport(rows=rows, corr=corr, slope=slope, intercept=intercept)


def read_outcome_csv(source: str | Path) -> OutcomeSeries:
    """Read an outcome file: header ``code,<kind>``, one value per code."""
    kinds = {k.value for k in OutcomeKind}
    values: dict[str, float] = {}
    with open_text(source, newline="") as handle:
        reader = csv.reader(handle)
        with located(source, reader):
            header = next(reader, None)
            if not header or len(header) != 2 or header[0] != "code" or header[1] not in kinds:
                raise InputFormatError(
                    f"outcome header must be code,<kind> with kind in {sorted(kinds)}, "
                    f"got {header}",
                    line=1,
                )
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise InputFormatError(f"expected 2 cells, got {len(row)}")
                code = OccupationCode.parse(row[0]).raw
                if code in values:
                    raise InputFormatError(f"duplicate code {code!r}")
                values[code] = parse_finite(row[1], "outcome value")
    with located(source):  # the whole file, as vacancy shares must sum to one
        return OutcomeSeries(kind=OutcomeKind(header[1]), values=values)


def correlation_panel(
    columns: Mapping[str, Mapping[str, float]],
    thresholds: tuple[tuple[float, str], ...] = DEFAULT_STAR_THRESHOLDS,
) -> dict[tuple[str, str], CorrResult]:
    """All pairwise correlations between named code-keyed columns.

    Pairs are restricted to the codes common to both columns; the panel is
    symmetric with a unit diagonal.
    """
    names = list(columns)
    panel: dict[tuple[str, str], CorrResult] = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            common = sorted(set(columns[a]) & set(columns[b]))
            xs = [columns[a][c] for c in common]
            ys = [columns[b][c] for c in common]
            result = pearson(xs, ys, thresholds)
            panel[(a, b)] = result
            panel[(b, a)] = result
    return panel
