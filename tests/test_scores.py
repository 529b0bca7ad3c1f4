"""Point mapping, model/ensemble means, expert panels, score table IO."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmexposure.annotate import AnnotationRun, ExposureCategory
from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.scores import (
    MODEL_COLUMNS,
    ExpertPanel,
    category_points,
    ensemble,
    expert_mean,
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
    assert category_points(category) == points


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


def test_expert_mean_examples():
    panel = ExpertPanel(scores={"2-06": [0.4, 0.6], "2-08": [0.2] * 21})
    assert expert_mean(panel, "2-06") == pytest.approx(0.5)
    assert expert_mean(panel, "2-08") == pytest.approx(0.2)


def test_expert_mean_synthetic_panel_matches_sum_oracle():
    rng = random.Random(7)
    values = [rng.choice([0, 0.2, 0.4, 0.6, 0.8, 1.0]) for _ in range(21)]
    panel = ExpertPanel(scores={"2-01": values})
    total = 0.0
    for v in values:
        total += v
    assert expert_mean(panel, "2-01") == pytest.approx(total / 21, abs=1e-15)


def test_expert_mean_unknown_code():
    panel = ExpertPanel(scores={})
    with pytest.raises(ComputationError):
        expert_mean(panel, "9-99")


def test_expert_panel_range_validated():
    with pytest.raises(ComputationError):
        ExpertPanel(scores={"2-01": [1.2]})


def test_read_expert_panel(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text("code,score\n2-01,0.4\n2-01,0.6\n2-02,1.0\n")
    panel = read_expert_panel(path)
    assert panel.scores == {"2-01": [0.4, 0.6], "2-02": [1.0]}
    assert expert_mean(panel, "2-01") == pytest.approx(0.5)


@pytest.mark.parametrize("bad", ["1.5", "-0.1"])
def test_read_expert_panel_rejects_out_of_range(tmp_path, bad):
    path = tmp_path / "panel.csv"
    path.write_text(f"code,score\n2-01,0.4\n2-02,{bad}\n")
    with pytest.raises(InputFormatError, match=f"^{path}:3: expert score .* outside"):
        read_expert_panel(path)


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
