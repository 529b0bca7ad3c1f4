"""The input contract: a broken input file loads or exits 3 naming the file.

Each case mutates one bundled input (or a small seed file in the same
format) by replacing one of its tokens, then runs the matching reader,
``validate`` and the command that reads the file, all through ``cli.main``.
Every exit code must be 0, 2, 3 or 4; a reader either loads the file or
raises an ``InputFormatError`` naming it, and then ``validate`` and the
command both exit 3 naming it too. A pinned mutation in ``EXITS`` must give
its command one exit code.
"""

from __future__ import annotations

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lmexposure import aggregate, annotate, econ_model, labor_stats, scores, taxonomy
from lmexposure.cli import main
from lmexposure.errors import InputFormatError, LmExposureError
from lmexposure.fixtures import fixture_path

TAXONOMY = str(fixture_path("taxonomy_medium63.csv"))
SCORES = str(fixture_path("medium63_scores.csv"))
INTENSITY = str(fixture_path("demo_intensity15x63.csv"))
DEMOGRAPHICS = str(fixture_path("demo_demographics.csv"))

# Seeds for the formats that have no bundled file.
EXPERT = "code,score\n2-01,0.4\n2-01,0.6\n2-02,0.3\n3-01,1.0\n"
OUTCOMES = "code,vacancy_share\n" + "".join(f"2-{i:02d},0.1\n" for i in range(1, 11))
INDUSTRY_SCORES = "industry_id,score\n" + "".join(f"{i},0.5\n" for i in range(1, 16))
STORE = "".join(
    json.dumps(
        {
            "code": code,
            "model_id": model,
            "raw_responses": ["E1", "The answer is E2."],
            "samples": ["E1", "E2"],
            "timestamp": "2000-01-01T00:00:00+00:00",
        },
        sort_keys=True,
    )
    + "\n"
    for code in ("2-01", "2-02")
    for model in ("glm", "gpt4")
)
MEDIUM = taxonomy.load_taxonomy(TAXONOMY)


def _fixture(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


# case -> (seed text, reader, validate options or None, command argv). In the
# argv, FILE is the mutated file and OUT/STORE name files in the run's directory.
CASES = {
    "taxonomy": (
        _fixture("taxonomy_medium63.csv"),
        taxonomy.load_taxonomy,
        ["--taxonomy"],
        ["aggregate", "--taxonomy", "FILE", "--scores", SCORES, "--out", "OUT"],
    ),
    "scores": (
        _fixture("medium63_scores.csv"),
        scores.read_score_table,
        ["--scores"],
        ["score", "--scores", "FILE", "--out", "OUT"],
    ),
    "expert": (
        EXPERT,
        scores.read_expert_panel,
        ["--expert"],
        ["score", "--annotations", "STORE", "--expert", "FILE", "--out", "OUT"],
    ),
    "annotations": (
        STORE,
        annotate.read_annotation_store,
        ["--annotations"],
        ["score", "--annotations", "FILE", "--out", "OUT"],
    ),
    "intensity": (
        _fixture("demo_intensity15x63.csv"),
        aggregate.IntensityMatrix.from_csv,
        ["--intensity"],
        ["industry", "--intensity", "FILE", "--scores", SCORES, "--out", "OUT"],
    ),
    "industries": (
        _fixture("industries15.csv"),
        aggregate.read_industry_names,
        None,
        ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--industries", "FILE",
         "--out", "OUT"],
    ),
    "demographics": (
        _fixture("demo_demographics.csv"),
        aggregate.DemographicShares.from_csv,
        ["--demographics"],
        ["demographic", "--demographics", "FILE", "--industry-scores", "STORE", "--out", "OUT"],
    ),
    "industry_scores": (
        INDUSTRY_SCORES,
        aggregate.read_industry_scores,
        None,
        ["demographic", "--demographics", DEMOGRAPHICS, "--industry-scores", "FILE",
         "--out", "OUT"],
    ),
    "outcomes": (
        OUTCOMES,
        labor_stats.read_outcome_csv,
        ["--outcomes"],
        ["stats", "--scores", SCORES, "--outcomes", "FILE", "--out", "OUT"],
    ),
    "scenario": (
        _fixture("demo_scenario.json"),
        econ_model.load_scenario,
        ["--scenario"],
        ["simulate", "--scenario", "FILE", "--out", "OUT"],
    ),
    "mock": (
        _fixture("demo_mock.json"),
        lambda path: annotate.load_mock_client(path, MEDIUM),
        ["--taxonomy", TAXONOMY, "--mock"],
        ["annotate", "--taxonomy", TAXONOMY, "--mock", "FILE", "--models", "glm",
         "--n-samples", "1", "--out", "OUT"],
    ),
}
# The file a command reads besides the mutated one, written as STORE.
SIDE_FILES = {"demographics": INDUSTRY_SCORES}

# Written over the first store record's ``code`` key: a record with no samples before it.
NO_SAMPLES = 'code": "2-01", "model_id": "glm", "raw_responses": [], "samples": []}\n{"code'

# A token is a run of text between delimiters of CSV, JSON or JSON lines.
_SPLIT = re.compile(r'([\s,":\[\]{}]+)')
# A CSV field past the csv module's size limit, and JSON nested past the recursion limit.
DEEP = "[" * 140_000
TOKENS = ["", "2-x", "2-01", "2", "nan", "inf", "-1", "0", "1.1", "0.5", "1e400", "abc",
          "true", "null", '"', ",", "\n", "E9", "glm", "mystery", DEEP]


def _mutate(text: str, index: int, token: str) -> str:
    parts = _SPLIT.split(text)
    parts[2 * (index % ((len(parts) + 1) // 2))] = token  # even parts are tokens
    return "".join(parts)


def _at(case: str, old: str) -> int:
    """Index of the first token ``old`` of a case's seed, for pinned examples."""
    return _SPLIT.split(CASES[case][0]).index(old) // 2


# Pinned mutations -> the exit code the command must give: each once gave
# another, or named no file.
EXITS = {
    ("annotations", _at("annotations", "code"), NO_SAMPLES): 3,
    ("industry_scores", _at("industry_scores", "0.5"), "1.5"): 3,  # a score outside [0, 1]
    ("intensity", _at("intensity", "2-01"), " 2-01"): 0,  # a padded code is the code
    ("intensity", _at("intensity", "2-02"), "2-01 "): 3,  # so this column repeats 2-01
    ("demographics", _at("demographics", "1"), " 1"): 0,  # a padded industry id is the id
    ("industry_scores", _at("industry_scores", "1"), " 1"): 0,
    ("industries", _at("industries", "1"), " 1"): 0,
    ("scenario", _at("scenario", "1.0"), "true"): 3,  # rho: a boolean is no number
    ("scenario", _at("scenario", "0.4737"), "false"): 3,  # a sector's delta
}


def _run(argv: list[str]) -> tuple[int, str]:
    output = io.StringIO()
    with redirect_stdout(output), redirect_stderr(output):
        code = main(argv)
    return code, output.getvalue()


# Hypothesis's explain phase can run for minutes on a failure; generate and shrink do not.
@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)
@given(
    case=st.sampled_from(sorted(CASES)),
    index=st.integers(min_value=0, max_value=10_000),
    token=st.sampled_from(TOKENS),
)
@example(case="scores", index=_at("scores", "2-01"), token="2-x")
@example(case="expert", index=_at("expert", "2-01"), token="2-x")
@example(case="outcomes", index=_at("outcomes", "2-01"), token="2-x")
@example(case="intensity", index=_at("intensity", "2-01"), token="2-x")
@example(case="scores", index=_at("scores", "0.4240"), token=",")  # a row one cell long
@example(case="taxonomy", index=_at("taxonomy", "true"), token=",")  # a row one cell long
@example(case="scores", index=_at("scores", "0.3021"), token="\n")  # a row cut short
@example(case="outcomes", index=_at("outcomes", "0.1"), token="0.2")  # shares sum to 1.1
@example(case="expert", index=_at("expert", "0.4"), token="0.4,0.9")  # a cell too many
@example(case="industries", index=_at("industries", "1"), token="1,extra")  # a cell too many
@example(case="industries", index=_at("industries", "5"), token="mystery")  # no row for industry 5
@example(case="industry_scores", index=_at("industry_scores", "0.5"), token="0.5,0.9")
@example(case="intensity", index=_at("intensity", "2-02"), token="2-01")  # column twice
@example(case="demographics", index=_at("demographics", "2"), token="1")  # column twice
@example(case="annotations", index=_at("annotations", "code"), token=NO_SAMPLES)
@example(case="industry_scores", index=_at("industry_scores", "0.5"), token="1.5")
@example(case="intensity", index=_at("intensity", "2-01"), token=" 2-01")
@example(case="intensity", index=_at("intensity", "2-02"), token="2-01 ")
@example(case="demographics", index=_at("demographics", "1"), token=" 1")
@example(case="industry_scores", index=_at("industry_scores", "1"), token=" 1")
@example(case="industries", index=_at("industries", "1"), token=" 1")
@example(case="scenario", index=_at("scenario", "1.0"), token="true")
@example(case="scenario", index=_at("scenario", "0.4737"), token="false")
@example(  # sector shares sum to 1.1
    case="scenario", index=_at("scenario", "0.09803892433247162"), token="0.19803892433247162"
)
@example(case="taxonomy", index=_at("taxonomy", "true"), token=DEEP)
@example(case="scores", index=_at("scores", "0.4240"), token=DEEP)
@example(case="expert", index=_at("expert", "0.4"), token=DEEP)
@example(case="intensity", index=_at("intensity", "2-01"), token=DEEP)
@example(case="industries", index=_at("industries", "1"), token=DEEP)
@example(case="demographics", index=_at("demographics", "2"), token=DEEP)
@example(case="industry_scores", index=_at("industry_scores", "0.5"), token=DEEP)
@example(case="outcomes", index=_at("outcomes", "0.1"), token=DEEP)
@example(case="annotations", index=0, token=DEEP)
@example(case="scenario", index=0, token=DEEP)
@example(case="mock", index=0, token=DEEP)
def test_mutated_input_loads_or_names_the_file(case, index, token):
    seed, reader, validate_options, argv = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        path, side = Path(tmp) / "input", Path(tmp) / "store"
        path.write_text(_mutate(seed, index, token), encoding="utf-8")
        side.write_text(SIDE_FILES.get(case, STORE), encoding="utf-8")
        names = {"FILE": str(path), "OUT": str(Path(tmp) / "out"), "STORE": str(side)}
        try:
            reader(path)
            error = None
        except LmExposureError as exc:
            error = exc
        assert error is None or isinstance(error, InputFormatError), repr(error)
        assert error is None or str(path) in str(error)

        if validate_options is not None:
            code, output = _run(["validate", *validate_options, str(path)])
            assert code == (0 if error is None else 3), output
            assert error is None or str(path) in output

        code, output = _run([names.get(a, a) for a in argv])
        assert code in (0, 2, 3, 4), output
        assert code == EXITS.get((case, index, token), code), output
        if error is not None:
            assert code == 3, output
        if code == 3:
            assert str(path) in output
