"""Summary panels, correlations with stars, outcome series, scatter fits."""

from __future__ import annotations

import random
import re
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.labor_stats import (
    ConstantSeriesError,
    OutcomeKind,
    OutcomeSeries,
    _t_tail_p,
    correlation_panel,
    pearson,
    read_outcome_csv,
    scatter_report,
    stars_for,
    summarize,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --- summarize -------------------------------------------------------------------


def test_fixture_glm_panel(score_table):
    entry = summarize(list(score_table.column("glm").values()))
    assert entry.count == 63
    assert entry.mean == pytest.approx(0.40, abs=0.01)
    assert entry.std == pytest.approx(0.15, abs=0.01)


def test_constant_series_summary():
    entry = summarize([0.5, 0.5])
    assert (entry.count, entry.mean, entry.std) == (2, 0.5, 0.0)


def test_summary_matches_two_pass_oracle():
    rng = random.Random(63)
    values = [rng.uniform(0, 1) for _ in range(63)]
    entry = summarize(values)
    assert entry.mean == pytest.approx(statistics.fmean(values), abs=1e-12)
    assert entry.std == pytest.approx(statistics.stdev(values), abs=1e-12)


def test_summary_needs_two_values():
    with pytest.raises(ComputationError):
        summarize([0.5])


@given(st.lists(finite_floats, min_size=2, max_size=40), finite_floats)
@settings(max_examples=60)
def test_mean_shift_preserves_std(values, shift):
    base = summarize(values)
    shifted = summarize([v + shift for v in values])
    assert shifted.mean == pytest.approx(base.mean + shift, abs=1e-6 * (1 + abs(shift)))
    assert shifted.std == pytest.approx(base.std, abs=1e-6)


# --- pearson ---------------------------------------------------------------------


def test_fixture_correlations(score_table):
    glm = score_table.column("glm")
    gpt4 = score_table.column("gpt4")
    internlm = score_table.column("internlm")
    codes = sorted(glm)

    def series(col):
        return [col[c] for c in codes]

    r_gi = pearson(series(glm), series(internlm))
    assert r_gi.r == pytest.approx(0.5938, abs=0.01)
    assert r_gi.stars == "***"

    r_ig = pearson(series(internlm), series(gpt4))
    assert r_ig.r == pytest.approx(0.4807, abs=0.01)
    assert r_ig.stars == "***"

    r_gg = pearson(series(glm), series(gpt4))
    assert r_gg.r == pytest.approx(0.306, abs=0.01)
    assert r_gg.stars == "*"


def test_ensemble_vs_expert_correlation(score_table):
    ens = score_table.column("ensemble")
    expert = score_table.column("expert")
    codes = sorted(ens)
    result = pearson([ens[c] for c in codes], [expert[c] for c in codes])
    assert result.r == pytest.approx(0.65, abs=0.01)


def test_self_correlation_is_one(score_table):
    values = list(score_table.column("glm").values())
    result = pearson(values, values)
    assert result.r == 1.0
    assert result.p_value == 0.0


def test_p_value_matches_scipy_oracle():
    rng = np.random.default_rng(17)
    for n in (5, 12, 63, 200):
        x = rng.uniform(0, 1, n)
        y = 0.4 * x + rng.uniform(0, 1, n)
        ours = pearson(x.tolist(), y.tolist())
        r_ref, p_ref = scipy_stats.pearsonr(x, y)
        assert ours.r == pytest.approx(r_ref, abs=1e-12)
        assert ours.p_value == pytest.approx(p_ref, abs=1e-12)


def test_t_tail_matches_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    dfs = [1, 2, 3, 4, 5, 7, 10, 13, 30, 61, 100, 500, 1000, 1600, 1604, 1634, 3000]
    ts = [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 1.96, 2.5, 3.3, 5.0, 10.0, 40.0, 1e3, 1e5]
    worst = 0.0
    with mpmath.workdps(40):
        for df in dfs:
            for t in ts:
                x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
                ref = mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, x, regularized=True)
                ours = _t_tail_p(t, df)
                if float(ref) == 0.0:  # below the double range
                    assert ours == 0.0
                    continue
                worst = max(worst, float(abs(ours - ref) / ref))
    assert worst <= 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(ComputationError):
        pearson([1, 2, 3], [1, 2])


def test_constant_series_rejected():
    with pytest.raises(ConstantSeriesError):
        pearson([1.0, 1.0, 1.0], [1, 2, 3])


def test_too_few_pairs_rejected():
    with pytest.raises(ComputationError):
        pearson([1, 2], [2, 1])


@given(
    st.lists(
        st.tuples(finite_floats, finite_floats), min_size=3, max_size=40
    ).filter(
        lambda pairs: len({a for a, _ in pairs}) > 1 and len({b for _, b in pairs}) > 1
    ),
)
@example(pairs=[(0.0, 0.0), (0.0, 1.966492569076255e-117), (1.6795685095415578e-86, 0.0)])
@settings(max_examples=60)
def test_pearson_symmetry(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    try:
        forward = pearson(x, y)
    except ConstantSeriesError:
        return
    backward = pearson(y, x)
    assert forward.r == pytest.approx(backward.r, abs=1e-12)
    assert forward.p_value == pytest.approx(backward.p_value, abs=1e-12)


def test_affine_invariance():
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 1, 40).tolist()
    y = rng.uniform(0, 1, 40).tolist()
    base = pearson(x, y)
    transformed = pearson([3.5 * v + 2.0 for v in x], y)
    assert transformed.r == pytest.approx(base.r, abs=1e-9)
    assert transformed.p_value == pytest.approx(base.p_value, rel=1e-6)


def test_star_assignment_is_monotone():
    grid = [1e-6, 5e-4, 1e-3, 5e-3, 1e-2, 3e-2, 5e-2, 0.2, 0.9]
    stars = [stars_for(p) for p in grid]
    lengths = [len(s) for s in stars]
    assert lengths == sorted(lengths, reverse=True)
    assert stars_for(0.0499) == "*" and stars_for(0.05) == ""
    assert stars_for(0.0099) == "**" and stars_for(0.0009) == "***"


def test_correlation_panel_symmetric_unit_diagonal(score_table):
    columns = {name: score_table.column(name) for name in ("glm", "gpt4", "internlm")}
    panel = correlation_panel(columns)
    for a in columns:
        assert panel[(a, a)].r == 1.0
        for b in columns:
            assert panel[(a, b)].r == panel[(b, a)].r


# --- vacancy shares ----------------------------------------------------------------


def test_nan_count_rejected():
    # Every comparison with NaN is false: `abs(t - 1) > tol` would let a NaN sum through.
    with pytest.raises(ComputationError, match="vacancy shares sum to nan"):
        OutcomeSeries(OutcomeKind.VACANCY_SHARE, {"a": float("nan"), "b": 1.0})


def test_share_invariant_enforced_on_series():
    with pytest.raises(ComputationError):
        OutcomeSeries(kind=OutcomeKind.VACANCY_SHARE, values={"a": 0.5, "b": 0.4})


# --- scatter reports -----------------------------------------------------------------


def test_two_point_exact_line():
    outcome = OutcomeSeries(OutcomeKind.SALARY, {"a": 0.0, "b": 1.0})
    report = scatter_report({"a": 0.0, "b": 1.0, "c": 0.5}, outcome)
    assert report.n == 2
    assert report.slope == pytest.approx(1.0)
    assert report.intercept == pytest.approx(0.0)
    assert abs(report.corr.r) == pytest.approx(1.0)


def test_collinear_points():
    outcome = OutcomeSeries(OutcomeKind.SALARY, {"a": 5.0, "b": 3.0, "c": 1.0})
    report = scatter_report({"a": 0.0, "b": 1.0, "c": 2.0}, outcome)
    assert abs(report.corr.r) == 1.0
    assert report.slope == pytest.approx(-2.0)


def test_ols_matches_normal_equations_oracle():
    rng = np.random.default_rng(31)
    codes = [f"2-{i + 1:02d}" for i in range(63)]
    x = rng.uniform(0, 1, 63)
    y = 2.0 * x + rng.normal(0, 0.3, 63)
    exposure = dict(zip(codes, x.tolist()))
    outcome = OutcomeSeries(OutcomeKind.SALARY, dict(zip(codes, y.tolist())))
    report = scatter_report(exposure, outcome)
    design = np.column_stack([np.ones(63), x])
    intercept_ref, slope_ref = np.linalg.solve(design.T @ design, design.T @ y)
    assert report.slope == pytest.approx(slope_ref, abs=1e-9)
    assert report.intercept == pytest.approx(intercept_ref, abs=1e-9)


def test_complete_case_drops_missing_and_records_n():
    exposure = {f"c{i}": i / 10 for i in range(10)}
    outcome = OutcomeSeries(
        OutcomeKind.SALARY, {f"c{i}": 2.0 * i + (i % 3) for i in range(7)}
    )
    report = scatter_report(exposure, outcome)
    assert report.n == 7
    assert len(report.rows) == 7


def test_empty_intersection_rejected():
    outcome = OutcomeSeries(OutcomeKind.SALARY, {"x": 1.0})
    with pytest.raises(ComputationError):
        scatter_report({"a": 0.5}, outcome)


# --- outcome files --------------------------------------------------------------------


def test_read_outcome_csv(tmp_path):
    path = tmp_path / "salary.csv"
    path.write_text("code,salary\n2-01,5200\n2-02,4100\n")
    series = read_outcome_csv(path)
    assert series.kind is OutcomeKind.SALARY
    assert series.values == {"2-01": 5200.0, "2-02": 4100.0}


def test_read_outcome_rejects_unknown_kind(tmp_path):
    path = tmp_path / "o.csv"
    path.write_text("code,happiness\n2-01,1\n")
    with pytest.raises(InputFormatError):
        read_outcome_csv(path)


def test_read_outcome_vacancy_share_checks_sum(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("code,vacancy_share\n2-01,0.4\n2-02,0.4\n")
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}: vacancy shares sum")):
        read_outcome_csv(path)
