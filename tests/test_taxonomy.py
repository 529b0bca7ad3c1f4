"""Taxonomy loading, validation errors, and hierarchy score roll-up."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexposure.cli import main
from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.taxonomy import (
    DuplicateCodeError,
    Level,
    MalformedCodeError,
    MissingScoreError,
    OccupationCode,
    OrphanCodeError,
    aggregate_up,
    load_taxonomy,
)

HEADER = "code,title,description,excluded\n"


def _tax(rows: str):
    return load_taxonomy(io.StringIO(HEADER + rows))


# --- codes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,level",
    [
        ("2", Level.LARGE),
        ("2-06", Level.MEDIUM),
        ("2-06-01", Level.SMALL),
        ("2-06-01-03", Level.FINE),
    ],
)
def test_code_levels(raw, level):
    assert OccupationCode.parse(raw).level == level


@pytest.mark.parametrize("raw", ["", "2-", "-2", "a-1", "2.06", "2-06-01-03-01", "2--6"])
def test_malformed_codes(raw):
    with pytest.raises(MalformedCodeError):
        OccupationCode.parse(raw)


def test_parents():
    assert OccupationCode.parse("2-06-01").parent_raw() == "2-06"
    assert OccupationCode.parse("4").parent_raw() is None


def test_parsed_code_is_immutable():
    code = OccupationCode.parse(" 2-06 ")
    assert code == OccupationCode.parse("2-06") == ("2-06", Level.MEDIUM)
    with pytest.raises(AttributeError):
        code.raw = "3"
    assert code.raw == "2-06"


# --- loading -----------------------------------------------------------------


def test_minimal_two_row_file():
    tx = _tax('2,Pros,desc,false\n2-06,Econ,"desc, too",false\n')
    assert [r.code.raw for r in tx.roots] == ["2"]
    (child,) = tx.node("2").children
    assert child.code.raw == "2-06"
    assert child.code.level == Level.MEDIUM


def test_orphan_code_reports_line():
    with pytest.raises(OrphanCodeError) as err:
        _tax("2-06,Econ,desc,false\n")
    assert "2-06" in str(err.value)
    assert err.value.line == 2


def test_duplicate_code_reports_line():
    with pytest.raises(DuplicateCodeError) as err:
        _tax("2,A,d,false\n2,B,d,false\n")
    assert err.value.line == 3


def test_malformed_code_reports_line():
    with pytest.raises(MalformedCodeError) as err:
        _tax("2,A,d,false\nx-y,B,d,false\n")
    assert err.value.line == 3


def test_parent_rows_may_follow_children():
    tx = _tax("2-06,Econ,d,false\n2,Pros,d,false\n")
    assert tx.node("2").children[0].code.raw == "2-06"


def test_bad_header_rejected():
    with pytest.raises(InputFormatError):
        load_taxonomy(io.StringIO("code,name\n2,Pros\n"))


def test_bad_excluded_flag_rejected():
    with pytest.raises(InputFormatError):
        _tax("2,Pros,d,maybe\n")


def test_exclusion_propagates_to_descendants():
    tx = _tax("7,Military,d,true\n7-01,Unit,d,false\n7-01-01,Sub,d,false\n")
    assert tx.node("7-01").excluded
    assert tx.node("7-01-01").excluded


# --- fixture counts ----------------------------------------------------------


def test_medium_fixture_counts(medium_taxonomy):
    assert len(medium_taxonomy.roots) == 8
    assert len(medium_taxonomy.nodes_at_level(Level.MEDIUM)) == 63
    excluded_roots = [r.code.raw for r in medium_taxonomy.roots if r.excluded]
    assert excluded_roots == ["1", "7", "8"]


def test_full_fixture_counts(full_taxonomy):
    assert len(full_taxonomy.roots) == 8
    assert len(full_taxonomy.nodes_at_level(Level.MEDIUM, include_excluded=True)) == 79
    assert len(full_taxonomy.nodes_at_level(Level.SMALL, include_excluded=True)) == 449
    assert len(full_taxonomy.nodes_at_level(Level.FINE, include_excluded=True)) == 1636
    assert len(full_taxonomy.nodes_at_level(Level.FINE)) == 1606


# --- aggregation -------------------------------------------------------------


def test_two_point_mean():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n2-01-01,S,d,false\n2-01-02,S2,d,false\n")
    scores = aggregate_up(tx, {"2-01-01": 0.5, "2-01-02": 0.3})
    assert scores["2-01"] == pytest.approx(0.4)


def test_single_child_identity():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n")
    scores = aggregate_up(tx, {"2-01": 0.77})
    assert scores["2"] == 0.77


def test_constant_propagation():
    rows = ["2,L,d,false"]
    leaf_scores = {}
    for i in range(1, 4):
        rows.append(f"2-{i:02d},M,d,false")
        for j in range(1, 4):
            rows.append(f"2-{i:02d}-{j:02d},S,d,false")
            leaf_scores[f"2-{i:02d}-{j:02d}"] = 0.25
    tx = _tax("\n".join(rows) + "\n")
    scores = aggregate_up(tx, leaf_scores)
    assert all(v == 0.25 for v in scores.values())


def test_missing_leaf_score():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n")
    with pytest.raises(MissingScoreError):
        aggregate_up(tx, {})


def test_out_of_range_score_rejected():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n")
    with pytest.raises(ComputationError):
        aggregate_up(tx, {"2-01": 1.5})


def test_excluded_subtree_receives_no_score():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n7,Mil,d,true\n7-01,U,d,false\n")
    scores = aggregate_up(tx, {"2-01": 0.5})
    assert set(scores) == {"2", "2-01"}


def test_idempotent_on_same_inputs():
    tx = _tax("2,L,d,false\n2-01,M,d,false\n2-02,M2,d,false\n")
    inputs = {"2-01": 0.2, "2-02": 0.9}
    assert aggregate_up(tx, inputs) == aggregate_up(tx, inputs)


# --- property tests ----------------------------------------------------------


@st.composite
def balanced_tree(draw):
    """Taxonomy text with uniform fanout per level, plus its leaf scores."""
    depth = draw(st.integers(min_value=1, max_value=3))
    fanouts = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=depth, max_size=depth)
    )
    rows = []
    leaf_scores = {}

    def grow(prefix: str, level: int) -> None:
        rows.append(f"{prefix},n,d,false")
        if level == depth:
            leaf_scores[prefix] = draw(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
            )
            return
        for i in range(fanouts[level]):
            grow(f"{prefix}-{i + 1:02d}", level + 1)

    grow("1", 0)
    return HEADER + "\n".join(rows) + "\n", leaf_scores


@given(balanced_tree())
@settings(max_examples=60, deadline=None)
def test_bounded_by_leaf_extremes(tree):
    text, leaf_scores = tree
    tx = load_taxonomy(io.StringIO(text))
    scores = aggregate_up(tx, leaf_scores)
    lo, hi = min(leaf_scores.values()), max(leaf_scores.values())
    eps = 1e-12
    assert all(lo - eps <= v <= hi + eps for v in scores.values())


@given(balanced_tree())
@settings(max_examples=60, deadline=None)
def test_balanced_tree_matches_descendant_mean_oracle(tree):
    """On balanced trees, level-by-level means equal descendant means."""
    text, leaf_scores = tree
    tx = load_taxonomy(io.StringIO(text))
    scores = aggregate_up(tx, leaf_scores)
    for node in tx.walk():
        descendants = [
            code for code in leaf_scores if code == node.code.raw or code.startswith(node.code.raw + "-")
        ]
        oracle = sum(leaf_scores[c] for c in descendants) / len(descendants)
        assert scores[node.code.raw] == pytest.approx(oracle, abs=1e-12)


@given(balanced_tree(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_child_order_never_matters(tree, rng):
    text, leaf_scores = tree
    header, *rows = text.strip().split("\n")
    baseline = aggregate_up(load_taxonomy(io.StringIO(text)), leaf_scores)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    permuted = aggregate_up(
        load_taxonomy(io.StringIO(header + "\n" + "\n".join(shuffled) + "\n")),
        leaf_scores,
    )
    assert set(baseline) == set(permuted)
    for code, value in baseline.items():
        assert permuted[code] == pytest.approx(value, abs=1e-12)


# --- reader contract -----------------------------------------------------------


def _validate(tmp_path, rows: str, capsys) -> tuple[int, str, str]:
    """Run ``validate --taxonomy`` on a taxonomy of ``rows``: exit code, report, path."""
    path = tmp_path / "taxonomy.csv"
    path.write_text(HEADER + rows, encoding="utf-8")
    code = main(["validate", "--taxonomy", str(path)])
    return code, capsys.readouterr().out, str(path)


@pytest.mark.parametrize("row,cells", [("2-01,B\n", 2), ("2-01,B,d,false,extra\n", 5)])
def test_row_of_other_width_rejected(tmp_path, capsys, row, cells):
    code, out, path = _validate(tmp_path, "2,A,d,false\n" + row, capsys)
    assert code == 3
    assert out == f"taxonomy: {path}:3: expected 4 cells, got {cells}\n"


@pytest.mark.parametrize(
    "rows,excluded",
    [
        (" 2 ,A,d, TRUE \n", True),  # padded code and flag
        ("2,A,d,\n", False),  # an empty flag is false
        ("2,A,d,Yes\n", True),
        ("\n2,A,d,0\n\n", False),  # blank lines are skipped
    ],
)
def test_code_and_flag_cells(rows, excluded):
    tx = _tax(rows)
    assert tx.node("2").excluded is excluded


def test_quoted_title_with_comma_kept():
    tx = _tax('2,"Doctors, nurses","d, too",false\n')
    assert (tx.node("2").title, tx.node("2").description) == ("Doctors, nurses", "d, too")


@pytest.mark.parametrize(
    "row,message",
    [
        ("2-x,B,d,false", "malformed occupation code '2-x'"),
        ("nan,B,d,false", "malformed occupation code 'nan'"),
        ("inf,B,d,false", "malformed occupation code 'inf'"),
        ("1.5,B,d,false", "malformed occupation code '1.5'"),
        ("abc,B,d,false", "malformed occupation code 'abc'"),
        ("3,B,d,maybe", "unrecognized excluded flag 'maybe'"),
        ("3,B,d, nan ", "unrecognized excluded flag ' nan '"),
    ],
)
def test_bad_cell_exits_three_at_its_line(tmp_path, capsys, row, message):
    code, out, path = _validate(tmp_path, f"2,A,d,false\n{row}\n", capsys)
    assert code == 3
    assert out == f"taxonomy: {path}:3: {message}\n"
