"""Every optional argument of every command changes the output, or exits 2.

The options are read from ``build_parser()``, so an option added without a
row in ``CASES`` or ``EXEMPT`` fails here. Each row runs its command on the
bundled fixtures without and with the option. The run with the option must
exit 2 and write nothing, or exit 0 and write a non-manifest output that
differs from the run without it by at least one byte. ``validate`` writes no
file: its rows give a malformed file and must turn exit 0 into exit 3.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from lmexposure.cli import (
    CLIENT_ENV_VAR,
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    build_parser,
    main,
)
from lmexposure.fixtures import fixture_path
from lmexposure.scores import read_score_table


def _options() -> list[tuple[str, str]]:
    parsers = build_parser().get_default("command_parsers")
    return [
        (command, action.option_strings[-1])
        for command, parser in parsers.items()
        for action in parser._actions
        if not action.required and action.dest != "help"
    ]


OPTIONS = _options()

# Options whose effect needs a condition that the fixtures lack.
EXEMPT = {
    ("annotate", "--in-flight"): "the mock clients are serial, so requests never overlap",
    ("annotate", "--rubric"): "the mocks answer by the request's code and sample, not the prompt",
}

# Required options of each command; upper-case words name the inputs below.
BASE = {
    "annotate": ["--taxonomy", "TAXONOMY"],
    "score": [],
    "aggregate": ["--taxonomy", "TAXONOMY", "--scores", "SCORES"],
    "industry": ["--intensity", "INTENSITY", "--scores", "SCORES"],
    "demographic": ["--demographics", "DEMOGRAPHICS", "--industry-scores", "INDUSTRY_SCORES"],
    "stats": ["--scores", "SCORES"],
    "simulate": ["--scenario", "SCENARIO"],
    "contour": ["--scenario", "SCENARIO"],
    "validate": [],
    "pipeline": ["--scores", "SCORES", "--taxonomy", "TAXONOMY", "--intensity", "INTENSITY"],
}

MOCK_GLM = ["--mock", "MOCK", "--models", "glm"]
ONE = ["--n-samples", "1"]
STORE = ["--annotations", "STORE"]
OUTCOMES = ["--outcomes", "OUTCOMES"]
FULL = ["--full-precision"]

# (command, option) -> (arguments without the option, arguments with it)
CASES = {
    ("annotate", "--mock"): (["--models", "glm", *ONE], [*MOCK_GLM, *ONE]),
    ("annotate", "--models"): (["--mock", "MOCK", *ONE], [*MOCK_GLM, *ONE]),
    ("annotate", "--n-samples"): (MOCK_GLM, [*MOCK_GLM, *ONE]),
    # The scripted demo mock answers leaf codes only.
    ("annotate", "--level"): (
        ["--mock", "ONE_ANSWER_MOCK", "--models", "glm", *ONE],
        ["--mock", "ONE_ANSWER_MOCK", "--models", "glm", *ONE, "--level", "large"],
    ),
    # Three unparseable answers exhaust the default budget of two retries.
    ("annotate", "--max-retries"): (
        ["--mock", "RETRY_MOCK", "--models", "glm", *ONE],
        ["--mock", "RETRY_MOCK", "--models", "glm", *ONE, "--max-retries", "3"],
    ),
    ("score", "--annotations"): (["--scores", "SCORES"], STORE),
    ("score", "--scores"): (STORE, ["--scores", "SCORES"]),
    ("score", "--taxonomy"): (STORE, [*STORE, "--taxonomy", "TAXONOMY"]),
    ("score", "--expert"): (STORE, [*STORE, "--expert", "EXPERT"]),
    ("score", "--full-precision"): (["--scores", "SCORES"], ["--scores", "SCORES", *FULL]),
    ("aggregate", "--column"): ([], ["--column", "glm"]),
    ("aggregate", "--full-precision"): ([], FULL),
    ("industry", "--column"): ([], ["--column", "glm"]),
    ("industry", "--industries"): ([], ["--industries", "INDUSTRIES"]),
    ("industry", "--full-precision"): ([], FULL),
    ("demographic", "--full-precision"): ([], FULL),
    ("stats", "--pair"): ([], ["--pair", "glm", "gpt4"]),
    ("stats", "--outcomes"): ([], OUTCOMES),
    ("stats", "--column"): ([], ["--column", "glm"]),
    ("stats", "--plot-data"): (OUTCOMES, [*OUTCOMES, "--plot-data", "PLOT"]),
    ("stats", "--full-precision"): ([], FULL),
    # SCENARIO gives every sector its exposure, so industry scores are refused.
    ("simulate", "--industry-scores"): ([], ["--industry-scores", "INDUSTRY_SCORES"]),
    ("simulate", "--full-precision"): ([], FULL),
    ("contour", "--industry-scores"): ([], ["--industry-scores", "INDUSTRY_SCORES"]),
    ("contour", "--delta-grid"): ([], ["--delta-grid", "0:0.5:3"]),
    ("contour", "--ratio-grid"): ([], ["--ratio-grid", "0:1:3"]),
    ("contour", "--full-precision"): ([], FULL),
    **{
        ("validate", option): ([], [option, "MALFORMED"])
        for option in (
            "--taxonomy", "--scores", "--expert", "--intensity", "--demographics",
            "--outcomes", "--industry-scores", "--scenario", "--annotations", "--mock",
        )
    },
    ("pipeline", "--column"): ([], ["--column", "glm"]),
    ("pipeline", "--full-precision"): ([], FULL),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {
        name: str(fixture_path(file))
        for name, file in (
            ("TAXONOMY", "taxonomy_medium63.csv"),
            ("SCORES", "medium63_scores.csv"),
            ("INTENSITY", "demo_intensity15x63.csv"),
            ("DEMOGRAPHICS", "demo_demographics.csv"),
            ("SCENARIO", "demo_scenario.json"),
            ("MOCK", "demo_mock.json"),
            ("INDUSTRIES", "industries15.csv"),
        )
    }
    written = {
        "ONE_ANSWER_MOCK": '{"kind": "cycle", "answers": ["E1"]}\n',
        "RETRY_MOCK": '{"kind": "cycle", "answers": ["x", "x", "x", "E1"]}\n',
        "EXPERT": "code,score\n2-01,0.9\n2-01,0.7\n",
        "OUTCOMES": "code,salary\n"
        + "".join(
            f"{row.code},{3000 + 37 * i}\n"
            for i, row in enumerate(read_score_table(paths["SCORES"]).rows)
        ),
        "MALFORMED": "{\n",
    }
    for name, text in written.items():
        paths[name] = str(tmp / name.lower())
        Path(paths[name]).write_text(text)
    paths["STORE"] = str(tmp / "store.jsonl")
    paths["INDUSTRY_SCORES"] = str(tmp / "industry.csv")
    for argv in (
        ["annotate", "--taxonomy", paths["TAXONOMY"], "--mock", paths["MOCK"],
         "--models", "glm,gpt4", "--n-samples", "2", "--out", paths["STORE"]],
        ["industry", "--intensity", paths["INTENSITY"], "--scores", paths["SCORES"],
         "--out", paths["INDUSTRY_SCORES"]],
    ):
        assert main(argv) == EXIT_OK
    return paths


def _run(command: str, arguments: list[str], inputs: dict[str, str], rundir: Path):
    """Exit code and ``{file: bytes}`` of the outputs, manifests left out."""
    rundir.mkdir()
    paths = {**inputs, "PLOT": str(rundir / "plot.csv")}
    out = {"validate": [], "pipeline": ["--outdir", str(rundir / "run")]}
    out.setdefault(command, ["--out", str(rundir / "out")])
    argv = [command, *BASE[command], *arguments, *out[command]]
    try:
        code = main([paths.get(a, a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    written = {
        str(p.relative_to(rundir)): p.read_bytes()
        for p in rundir.rglob("*")
        if p.is_file() and not p.name.endswith(".manifest.json")
    }
    return code, written


def test_every_option_has_a_gate_row_or_an_exemption():
    assert not set(CASES) & set(EXEMPT)
    assert set(CASES) | set(EXEMPT) == set(OPTIONS)


GATED = [o for o in OPTIONS if o not in EXEMPT]


@pytest.mark.parametrize("command, option", GATED, ids=[" ".join(o) for o in GATED])
def test_every_accepted_option_changes_the_output(tmp_path, monkeypatch, inputs, command, option):
    monkeypatch.delenv(CLIENT_ENV_VAR, raising=False)
    without, with_ = CASES[(command, option)]
    assert option in with_ and option not in without
    code_without, files_without = _run(command, without, inputs, tmp_path / "without")
    code_with, files_with = _run(command, with_, inputs, tmp_path / "with")
    if command == "validate":
        assert (code_without, code_with) == (EXIT_OK, EXIT_INPUT)
    elif code_with == EXIT_CONFIG:
        assert files_with == {}
    else:
        # Without the option a command may refuse to run: annotate has no client,
        # or exhausts its retries.
        assert code_with == EXIT_OK and code_without in (EXIT_OK, EXIT_CONFIG, EXIT_COMPUTE)
        assert files_with != files_without
