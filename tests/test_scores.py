"""Point mapping, model/ensemble means, expert panels, score table IO."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexposure.annotate import AnnotationRun, ExposureCategory
from lmexposure.cli import main
from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.scores import (
    MODEL_COLUMNS,
    ensemble,
    model_score,
    read_expert_panel,
    read_score_table,
    records_from_runs,
    recompute_ensemble,
    render_score_table,
)
from lmexposure.taxonomy import OccupationCode

E0, E1, E2, E3 = ExposureCategory

CATEGORIES = st.sampled_from(list(ExposureCategory))


# --- point mapping --------------------------------------------------------------


@pytest.mark.parametrize(
    "category,points", [(E0, 0.0), (E1, 1.0), (E2, 0.5), (E3, 0.5)]
)
def test_category_points(category, points):
    assert model_score([category]) == points


def test_model_score_examples():
    assert model_score([E1] * 8) == 1.0
    assert model_score([E1] * 4 + [E0] * 4) == 0.5
    assert model_score([E2, E3, E0, E1]) == 0.5  # (0.5 + 0.5 + 0 + 1) / 4


def test_model_score_empty_rejected():
    with pytest.raises(ComputationError):
        model_score([])


@given(st.lists(CATEGORIES, min_size=1, max_size=32), st.randoms())
@settings(max_examples=80)
def test_model_score_permutation_invariant(samples, rng):
    shuffled = samples[:]
    rng.shuffle(shuffled)
    assert model_score(shuffled) == pytest.approx(model_score(samples), abs=1e-15)


@given(st.lists(CATEGORIES, min_size=1, max_size=32))
def test_model_score_in_unit_interval(samples):
    assert 0.0 <= model_score(samples) <= 1.0


# --- ensemble -------------------------------------------------------------------


def test_ensemble_matches_published_rows():
    assert ensemble({"glm": 0.6673, "gpt4": 0.4467, "internlm": 0.3248}) == pytest.approx(
        0.4796, abs=5e-4
    )
    assert ensemble({"glm": 0.8164, "gpt4": 0.5313, "internlm": 0.0938}) == pytest.approx(
        0.4805, abs=5e-4
    )


def test_ensemble_single_model_identity():
    assert ensemble({"m": 0.0}) == 0.0


def test_ensemble_empty_rejected():
    with pytest.raises(ComputationError):
        ensemble({})


def test_all_63_rows_reproduce_published_ensemble(score_table):
    assert len(score_table.rows) == 63
    for row in score_table.rows:
        per_model = {m: row.scores[m] for m in MODEL_COLUMNS}
        assert ensemble(per_model) == pytest.approx(row.scores["ensemble"], abs=5e-4), row.code


@given(
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_ensemble_model_relabeling_invariant(per_model):
    relabeled = {f"model_{i}": v for i, v in enumerate(per_model.values())}
    assert ensemble(relabeled) == pytest.approx(ensemble(per_model), abs=1e-15)
    assert 0.0 <= ensemble(per_model) <= 1.0


# --- experts --------------------------------------------------------------------


def _panel(tmp_path, rows: list[tuple[str, float]]):
    path = tmp_path / "panel.csv"
    path.write_text("code,score\n" + "".join(f"{code},{v!r}\n" for code, v in rows))
    return read_expert_panel(path)


def test_expert_mean_examples(tmp_path):
    means = _panel(tmp_path, [("2-06", 0.4), ("2-06", 0.6)] + [("2-08", 0.2)] * 21)
    assert means["2-06"] == pytest.approx(0.5)
    assert means["2-08"] == pytest.approx(0.2)


def test_expert_mean_synthetic_panel_matches_sum_oracle(tmp_path):
    rng = random.Random(7)
    values = [rng.choice([0, 0.2, 0.4, 0.6, 0.8, 1.0]) for _ in range(21)]
    means = _panel(tmp_path, [("2-01", v) for v in values])
    total = 0.0
    for v in values:
        total += v
    assert means["2-01"] == pytest.approx(total / 21, abs=1e-15)


def test_expert_mean_unknown_code(tmp_path):
    # A code the panel does not name has no mean, so ``score`` leaves its cell empty.
    assert "9-99" not in _panel(tmp_path, [("2-01", 0.5)])


def test_read_expert_panel(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("code,score\n2-01,0.4\n2-01,0.6\n2-02,1.0\n")
    assert read_expert_panel(path) == {"2-01": pytest.approx(0.5), "2-02": 1.0}


@pytest.mark.parametrize("bad", ["1.5", "-0.1"])
def test_read_expert_panel_rejects_out_of_range(tmp_path, bad):
    path = tmp_path / "panel.csv"
    path.write_text(f"code,score\n2-01,0.4\n2-02,{bad}\n")
    with pytest.raises(InputFormatError, match=f"^{path}:3: expert score .* outside"):
        read_expert_panel(path)


@pytest.mark.parametrize("row, cells", [("2-01,0.4,0.9", 3), ("2-01", 1)])
def test_read_expert_panel_rejects_row_of_other_width(tmp_path, row, cells):
    # An extra cell used to be dropped without a word, and a short row read as None.
    path = tmp_path / "panel.csv"
    path.write_text(f"code,score\n2-02,0.5\n{row}\n")
    with pytest.raises(InputFormatError, match=f"^{path}:3: expected 2 cells, got {cells}$"):
        read_expert_panel(path)


def test_validate_expert_rejects_an_extra_cell(tmp_path, capsys):
    path = tmp_path / "panel.csv"
    path.write_text("code,score\n2-01,0.4,0.9\n")
    assert main(["validate", "--expert", str(path)]) == 3
    assert capsys.readouterr().out == f"expert: {path}:2: expected 2 cells, got 3\n"


# --- records --------------------------------------------------------------------


def _run(model, code, samples):
    return AnnotationRun(
        model_id=model,
        occupation_code=OccupationCode.parse(code),
        samples=samples,
        raw_responses=[s.value for s in samples],
    )


def test_record_from_samples():
    (row,) = records_from_runs(
        [_run("glm", "2-06", [E1] * 8), _run("gpt4", "2-06", [E1] * 4 + [E0] * 4)],
        {"2-06": "Title"},
    )
    per_model = {m: v for m, v in row.scores.items() if m in MODEL_COLUMNS}
    assert per_model == {"glm": 1.0, "gpt4": 0.5}
    assert row.scores["ensemble"] == pytest.approx(0.75)
    assert "expert" not in row.scores and row.title == "Title"


def test_records_from_runs_groups_and_orders():
    records = records_from_runs(
        [
            _run("glm", "2-10", [E1, E1]),
            _run("glm", "2-02", [E0, E0]),
            _run("gpt4", "2-02", [E2, E2]),
            _run("glm", "2-02", [E1, E1]),  # pooled with the earlier glm run
        ]
    )
    assert [r.code for r in records] == ["2-02", "2-10"]
    assert records[0].scores == {"glm": 0.5, "gpt4": 0.5, "ensemble": 0.5}


# --- table IO -------------------------------------------------------------------


def test_fixture_roundtrip_at_four_decimals(score_table):
    text = render_score_table(score_table)
    again = read_score_table(io.StringIO(text))
    for a, b in zip(score_table.rows, again.rows):
        assert a.code == b.code and a.title == b.title
        assert a.scores == b.scores


def test_full_precision_roundtrip(score_table):
    table = recompute_ensemble(score_table)
    text = render_score_table(table, full_precision=True)
    again = read_score_table(io.StringIO(text))
    for a, b in zip(table.rows, again.rows):
        assert a.scores["ensemble"] == b.scores["ensemble"]  # exact, not 4-decimal


def test_four_decimal_presentation(score_table):
    table = recompute_ensemble(score_table)
    line = render_score_table(table).splitlines()[1]
    assert line.split(",")[-1] == "0.4240"


def test_table_rejects_unknown_model_column():
    with pytest.raises(InputFormatError):
        records_from_runs([_run("mystery", "2-01", [E1])])


def test_read_rejects_bad_header():
    with pytest.raises(InputFormatError):
        read_score_table(io.StringIO("code,glm\n2-01,0.5\n"))


def test_read_rejects_out_of_range():
    text = "code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,,1.5,,,\n"
    with pytest.raises(InputFormatError):
        read_score_table(io.StringIO(text))


def test_read_rejects_duplicate_codes():
    text = (
        "code,title,expert,glm,gpt4,internlm,ensemble\n"
        "2-01,T,,0.5,,,\n2-01,T,,0.6,,,\n"
    )
    with pytest.raises(InputFormatError):
        read_score_table(io.StringIO(text))


def test_column_extraction(score_table):
    glm = score_table.column("glm")
    assert len(glm) == 63
    assert glm["2-08"] == pytest.approx(0.8164)
    with pytest.raises(KeyError):
        score_table.column("nonesuch")


# --- score table reader contract ----------------------------------------------

TABLE_HEADER = "code,title,expert,glm,gpt4,internlm,ensemble\n"


def _score_cli(tmp_path, rows: str, capsys) -> tuple[int, str, str]:
    """Run ``score --scores`` on a table of ``rows``: exit code, stderr, table path."""
    path = tmp_path / "table.csv"
    path.write_text(TABLE_HEADER + rows, encoding="utf-8")
    code = main(["score", "--scores", str(path), "--out", str(tmp_path / "out.csv")])
    return code, capsys.readouterr().err, str(path)


@pytest.mark.parametrize(
    "row,cells",
    [("2-01,A,0.5,0.4\n", 4), ("2-01,A,0.5,0.4,0.3,0.2,0.1,0.9\n", 8), ("2-01\n", 1)],
)
def test_read_rejects_row_of_other_width(tmp_path, capsys, row, cells):
    code, err, path = _score_cli(tmp_path, "2-02,B,,0.5,,,\n" + row, capsys)
    assert code == 3
    assert err == f"error: {path}:3: expected 7 cells, got {cells}\n"


@pytest.mark.parametrize(
    "rows,scores",
    [
        ("2-01,T, 0.5 ,0.25\t,,,\n", {"expert": 0.5, "glm": 0.25}),  # padded cells parse
        ("2-01,T,,0.5,  ,,\n", {"glm": 0.5}),  # an empty cell is absent
        ("\n2-01,T,,0.5,,,\n\n", {"glm": 0.5}),  # blank lines are skipped
    ],
)
def test_read_cells(rows, scores):
    (row,) = read_score_table(io.StringIO(TABLE_HEADER + rows)).rows
    assert row.scores == scores


def test_quoted_title_with_comma_round_trips():
    text = TABLE_HEADER + '2-01,"Doctors, nurses",,0.5000,,,\n'
    table = read_score_table(io.StringIO(text))
    assert table.rows[0].title == "Doctors, nurses"
    assert render_score_table(table) == text


@pytest.mark.parametrize(
    "row,message",
    [
        ("2-01,T,,nan,,,", "glm value 'nan' is not a finite number"),
        ("2-01,T,,inf,,,", "glm value 'inf' is not a finite number"),
        ("2-01,T,,,1.5,,", "gpt4 value 1.5 is outside [0, 1]"),
        ("2-01,T,abc,,,,", "expert value 'abc' is not a finite number"),
        ("2-01,T,,, -0.5 ,,", "gpt4 value -0.5 is outside [0, 1]"),
        ("2-x,T,,0.5,,,", "malformed occupation code '2-x'"),
    ],
)
def test_bad_cell_exits_three_at_its_line(tmp_path, capsys, row, message):
    code, err, path = _score_cli(tmp_path, f"2-02,B,,0.5,,,\n{row}\n", capsys)
    assert code == 3
    assert err == f"error: {path}:3: {message}\n"
