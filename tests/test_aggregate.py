"""Industry and demographic exposure projections."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexposure.aggregate import (
    DemographicShares,
    IntensityMatrix,
    MissingExposureError,
    RowSumError,
    demographic_exposure,
    industry_exposure,
    read_industry_names,
    read_industry_scores,
)
from lmexposure.errors import InputFormatError
from lmexposure.fixtures import fixture_path


def _matrix(industries, occupations, beta):
    return IntensityMatrix(industries=industries, occupations=occupations, beta=np.array(beta))


# --- construction ---------------------------------------------------------------


def test_row_sum_violation_rejected():
    with pytest.raises(RowSumError) as err:
        _matrix(["i1"], ["2-01", "2-02"], [[0.5, 0.48]])
    assert "i1" in str(err.value)


def test_negative_share_rejected():
    with pytest.raises(InputFormatError):
        _matrix(["i1"], ["2-01", "2-02"], [[1.2, -0.2]])


def test_mixed_levels_rejected():
    with pytest.raises(InputFormatError):
        _matrix(["i1"], ["2-01", "2"], [[0.5, 0.5]])


def test_shape_mismatch_rejected():
    with pytest.raises(InputFormatError):
        _matrix(["i1", "i2"], ["2-01"], [[1.0]])


# --- industry exposure -----------------------------------------------------------


def test_degenerate_weights():
    m = _matrix(["i1"], ["2-01"], [[1.0]])
    assert industry_exposure(m, {"2-01": 0.3}) == {"i1": 0.3}


def test_symmetric_mean():
    m = _matrix(["i1"], ["2-01", "2-02"], [[0.5, 0.5]])
    assert industry_exposure(m, {"2-01": 0.2, "2-02": 0.4})["i1"] == pytest.approx(0.3)


def test_missing_score_rejected():
    m = _matrix(["i1"], ["2-01", "2-02"], [[0.5, 0.5]])
    with pytest.raises(MissingExposureError):
        industry_exposure(m, {"2-01": 0.2})


def test_random_matrix_matches_dot_product_oracle(score_table):
    rng = np.random.default_rng(42)
    scores = score_table.column("ensemble")
    codes = list(scores)
    raw = rng.uniform(0.0, 1.0, size=(15, len(codes)))
    beta = raw / raw.sum(axis=1, keepdims=True)
    m = _matrix([f"i{k}" for k in range(15)], codes, beta)
    result = industry_exposure(m, scores)
    for i, ind in enumerate(m.industries):
        oracle = 0.0
        for j, code in enumerate(codes):
            oracle += beta[i][j] * scores[code]
        assert result[ind] == pytest.approx(oracle, abs=1e-12)


# --- demographic exposure ----------------------------------------------------------


def test_unit_mass_age_group():
    shares = DemographicShares(age_groups=["a"], industries=["i1"], w=np.array([[1.0]]))
    assert demographic_exposure(shares, {"i1": 0.45}) == {"a": 0.45}


def test_two_industry_symmetric_mean():
    shares = DemographicShares(
        age_groups=["a"], industries=["i1", "i2"], w=np.array([[0.5, 0.5]])
    )
    assert demographic_exposure(shares, {"i1": 0.1, "i2": 0.5})["a"] == pytest.approx(0.3)


def test_youth_concentration_matches_dot_product_oracle():
    # 42.5% of the youngest group in one industry, remainder spread uniformly.
    industries = [str(k) for k in range(1, 16)]
    w = [0.425] + [0.575 / 14] * 14
    shares = DemographicShares(age_groups=["16-19"], industries=industries, w=np.array([w]))
    rng = np.random.default_rng(3)
    r_ind = {ind: float(v) for ind, v in zip(industries, rng.uniform(0, 1, 15))}
    oracle = 0.0
    for ind, weight in zip(industries, w):
        oracle += weight * r_ind[ind]
    assert demographic_exposure(shares, r_ind)["16-19"] == pytest.approx(oracle, abs=1e-12)


def test_missing_industry_rejected():
    shares = DemographicShares(
        age_groups=["a"], industries=["i1", "i2"], w=np.array([[0.5, 0.5]])
    )
    with pytest.raises(MissingExposureError):
        demographic_exposure(shares, {"i1": 0.2})


# --- shared properties --------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_projection_is_convex_combination(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, size=(n_rows, n_cols))
    beta = raw / raw.sum(axis=1, keepdims=True)
    codes = [f"2-{j + 1:02d}" for j in range(n_cols)]
    scores = {c: float(v) for c, v in zip(codes, rng.uniform(0, 1, n_cols))}
    m = _matrix([f"i{k}" for k in range(n_rows)], codes, beta)
    result = industry_exposure(m, scores)
    lo, hi = min(scores.values()), max(scores.values())
    for value in result.values():
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_constant_scores_propagate_exactly():
    # Dyadic shares summing to exactly 1.0 keep the arithmetic exact.
    rng = np.random.default_rng(11)
    denom = 1 << 10
    for _ in range(50):
        cuts = np.sort(rng.integers(0, denom + 1, size=7))
        parts = np.diff(np.concatenate([[0], cuts, [denom]]))
        beta = parts / denom
        codes = [f"2-{j + 1:02d}" for j in range(len(beta))]
        m = _matrix(["i1"], codes, beta.reshape(1, -1))
        c = 0.375  # dyadic constant
        result = industry_exposure(m, {code: c for code in codes})
        assert result["i1"] == c


def test_scaling_scores_scales_output():
    rng = np.random.default_rng(5)
    raw = rng.uniform(0.01, 1.0, size=(4, 9))
    beta = raw / raw.sum(axis=1, keepdims=True)
    codes = [f"2-{j + 1:02d}" for j in range(9)]
    scores = {c: float(v) for c, v in zip(codes, rng.uniform(0, 1, 9))}
    m = _matrix([f"i{k}" for k in range(4)], codes, beta)
    base = industry_exposure(m, scores)
    lam = 0.5
    scaled = industry_exposure(m, {c: lam * v for c, v in scores.items()})
    for ind in base:
        assert scaled[ind] == pytest.approx(lam * base[ind], rel=1e-12)


# --- file formats ---------------------------------------------------------------


def test_demo_fixture_files_load():
    m = IntensityMatrix.from_csv(fixture_path("demo_intensity15x63.csv"))
    assert len(m.industries) == 15 and len(m.occupations) == 63
    d = DemographicShares.from_csv(fixture_path("demo_demographics.csv"))
    assert len(d.age_groups) == 7 and len(d.industries) == 15


def test_demo_chain_end_to_end(score_table):
    m = IntensityMatrix.from_csv(fixture_path("demo_intensity15x63.csv"))
    r_ind = industry_exposure(m, score_table.column("ensemble"))
    d = DemographicShares.from_csv(fixture_path("demo_demographics.csv"))
    result = demographic_exposure(d, r_ind)
    assert set(result) == set(d.age_groups)
    lo = min(score_table.column("ensemble").values())
    hi = max(score_table.column("ensemble").values())
    assert all(lo <= v <= hi for v in result.values())


def test_share_file_bad_key_column(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("industry,2-01\ni1,1.0\n")
    with pytest.raises(InputFormatError):
        IntensityMatrix.from_csv(path)


def test_share_file_ragged_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("industry_id,2-01,2-02\ni1,0.5\n")
    with pytest.raises(InputFormatError) as err:
        IntensityMatrix.from_csv(path)
    assert err.value.line == 2


@pytest.mark.parametrize(
    "reader, text",
    [
        (IntensityMatrix.from_csv, "industry_id,2-01,2-02\ni1,0.5,0.5\ni1,1.0,0.0\n"),
        (DemographicShares.from_csv, "age_group,i1,i2\na1,0.5,0.5\na1,1.0,0.0\n"),
        (read_industry_scores, "industry_id,score\n1,0.2\n1,0.9\n"),
        (read_industry_names, "industry_id,name\n1,Mining\n1,Energy\n"),
    ],
    ids=["intensity", "demographic", "industry_scores", "industry_names"],
)
def test_repeated_row_label_is_rejected_at_its_line(tmp_path, reader, text):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="duplicate") as err:
        reader(path)
    assert (err.value.path, err.value.line) == (str(path), 3)


@pytest.mark.parametrize(
    "reader, text",
    [
        (IntensityMatrix.from_csv, "industry_id,2-01,2-01\ni1,0.5,0.5\n"),
        (DemographicShares.from_csv, "age_group,1,1\na1,0.5,0.5\n"),
    ],
    ids=["intensity", "demographic"],
)
def test_repeated_column_is_rejected_at_the_header(tmp_path, reader, text):
    # Weights are matched to scores by column name: a repeat would count twice.
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="header names column '(2-01|1)' twice") as err:
        reader(path)
    assert (err.value.path, err.value.line) == (str(path), 1)


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_industry_names, "industry_id,name\n2,Mining\n1,Farming,extra\n"),
        (read_industry_scores, "industry_id,score\n2,0.5\n1,0.2,0.9\n"),
        (read_industry_names, "industry_id,name\n2,Mining\n1\n"),
    ],
    ids=["names_extra", "scores_extra", "names_short"],
)
def test_industry_row_of_other_width_is_rejected_at_its_line(tmp_path, reader, text):
    # An extra cell used to be dropped without a word: {'1': 'Farming'}.
    path = tmp_path / "f.csv"
    path.write_text(text)
    cells = len(text.splitlines()[2].split(","))
    with pytest.raises(InputFormatError, match=f"expected 2 cells, got {cells}$") as err:
        reader(path)
    assert (err.value.path, err.value.line) == (str(path), 3)
