"""End-to-end command-line runs against the bundled fixtures."""

from __future__ import annotations

import ast
import csv
import gc
import importlib
import json
import os
import subprocess
import sys
import threading
import time
import types
import zlib
from collections import Counter
from pathlib import Path

import pytest

import lmexposure
from lmexposure import annotate, runio, taxonomy
from lmexposure.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    CLIENT_ENV_VAR,
    _COMMANDS,
    build_parser,
    main,
)
from lmexposure.commands import READERS
from lmexposure.fixtures import fixture_path
from lmexposure.scores import read_score_table

TAXONOMY = str(fixture_path("taxonomy_medium63.csv"))
SCORES = str(fixture_path("medium63_scores.csv"))
INTENSITY = str(fixture_path("demo_intensity15x63.csv"))
DEMOGRAPHICS = str(fixture_path("demo_demographics.csv"))
SCENARIO = str(fixture_path("demo_scenario.json"))
SECTORS = str(fixture_path("demo_sectors.json"))  # SCENARIO without its exposures
MOCK = str(fixture_path("demo_mock.json"))


def _write_mock(tmp_path, config):
    path = tmp_path / "mock.json"
    path.write_text(json.dumps(config))
    return str(path)


# --- score -------------------------------------------------------------------


def test_score_reproduces_published_ensemble(tmp_path):
    out = tmp_path / "scores.csv"
    assert main(["score", "--scores", SCORES, "--out", str(out)]) == EXIT_OK
    table = read_score_table(out)
    published = read_score_table(SCORES)
    for ours, ref in zip(table.rows, published.rows):
        assert ours.scores["ensemble"] == pytest.approx(ref.scores["ensemble"], abs=5e-4)
    manifest = json.loads((tmp_path / "scores.csv.manifest.json").read_text())
    assert manifest["command"] == "score"
    assert "scores" in manifest["inputs"] and "scores" in manifest["outputs"]


def test_score_from_annotation_store(tmp_path):
    mock = _write_mock(tmp_path, {"kind": "cycle", "answers": ["E1"]})
    store = tmp_path / "store.jsonl"
    assert (
        main(
            [
                "annotate", "--taxonomy", TAXONOMY, "--mock", mock,
                "--models", "glm", "--n-samples", "8", "--out", str(store),
            ]
        )
        == EXIT_OK
    )
    out = tmp_path / "scores.csv"
    assert (
        main(
            [
                "score", "--annotations", str(store), "--taxonomy", TAXONOMY,
                "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    table = read_score_table(out)
    assert len(table.rows) == 63
    assert all(row.scores["glm"] == 1.0 for row in table.rows)
    assert table.rows[0].title == "Scientific Researchers"


# --- stats -------------------------------------------------------------------


def test_stats_pair_reproduces_published_r(tmp_path):
    out = tmp_path / "pair.json"
    assert (
        main(["stats", "--scores", SCORES, "--pair", "glm", "internlm", "--out", str(out)])
        == EXIT_OK
    )
    report = json.loads(out.read_text())
    assert report["r"] == pytest.approx(0.5938, abs=0.01)
    assert report["stars"] == "***"
    assert report["n"] == 63


def test_stats_summary(tmp_path):
    out = tmp_path / "summary.json"
    assert main(["stats", "--scores", SCORES, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["columns"]["glm"]["count"] == 63
    assert report["columns"]["glm"]["mean"] == pytest.approx(0.40, abs=0.01)
    pairs = {(c["a"], c["b"]): c for c in report["correlations"]}
    assert pairs[("glm", "gpt4")]["stars"] == "*"
    models = ("glm", "gpt4", "internlm")
    assert set(models) <= set(report["columns"])
    unordered = {frozenset((c["a"], c["b"])): c for c in report["correlations"]}
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            assert unordered[frozenset((a, b))]["n"] == 63


# Both columns cover the same codes, or the expert column has empty cells:
# the two branches of ``correlation_panel``.
@pytest.mark.parametrize("a, b, n", [("glm", "internlm", 63), ("expert", "gpt4", 42)])
def test_stats_pair_equals_the_summary_entry(tmp_path, a, b, n):
    lines = Path(SCORES).read_text().splitlines()
    for i in range(1, len(lines), 3):  # blank every third expert cell
        cells = lines[i].split(",")
        cells[-5] = ""
        lines[i] = ",".join(cells)
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(lines) + "\n")
    pair, summary = tmp_path / "pair.json", tmp_path / "summary.json"
    base = ["stats", "--scores", str(scores), "--full-precision"]
    assert main([*base, "--pair", a, b, "--out", str(pair)]) == EXIT_OK
    assert main([*base, "--out", str(summary)]) == EXIT_OK
    report = json.loads(pair.read_text())
    entries = json.loads(summary.read_text())["correlations"]
    entry = next(c for c in entries if (c["a"], c["b"]) == (a, b))
    assert report["n"] == n
    assert {k: report[k] for k in ("r", "n", "p_value", "stars")} == {
        k: entry[k] for k in ("r", "n", "p_value", "stars")
    }


def test_stats_pair_of_a_column_with_itself(tmp_path):
    out = tmp_path / "pair.json"
    argv = ["stats", "--scores", SCORES, "--pair", "glm", "glm", "--full-precision"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["r"], report["p_value"], report["stars"]) == (1.0, 0.0, "***")


def test_stats_scatter_with_plot_data(tmp_path):
    outcome = tmp_path / "salary.csv"
    rows = ["code,salary"]
    table = read_score_table(SCORES)
    for i, row in enumerate(table.rows):
        rows.append(f"{row.code},{3000 + 40 * i}")
    outcome.write_text("\n".join(rows) + "\n")

    out = tmp_path / "scatter.json"
    plot = tmp_path / "plot.csv"
    assert (
        main(
            [
                "stats", "--scores", SCORES, "--outcomes", str(outcome),
                "--column", "ensemble", "--plot-data", str(plot), "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    report = json.loads(out.read_text())
    assert report["kind"] == "scatter"
    assert report["n"] == 63
    assert len(report["rows"]) == 63
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0] == "x,y,label"
    assert len(plot_lines) == 64


def test_stats_manifest_is_named_after_the_report(tmp_path):
    outcome = tmp_path / "salary.csv"
    codes = [row.code for row in read_score_table(SCORES).rows]
    rows = ["code,salary"] + [f"{code},{3000 + i}" for i, code in enumerate(codes)]
    outcome.write_text("\n".join(rows) + "\n")
    out = tmp_path / "scatter.json"
    plot = tmp_path / "plot.csv"
    argv = ["stats", "--scores", SCORES, "--outcomes", str(outcome), "--plot-data", str(plot)]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert not (tmp_path / "plot.csv.manifest.json").exists()
    manifest = json.loads((tmp_path / "scatter.json.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"report", "plot_data"}


def test_stats_pair_unknown_column_exits_two(tmp_path, capsys):
    out = str(tmp_path / "pair.json")
    with pytest.raises(SystemExit) as err:
        main(["stats", "--scores", SCORES, "--pair", "glm", "nonexistent", "--out", out])
    assert err.value.code == EXIT_CONFIG
    assert "nonexistent" in capsys.readouterr().err


NO_SCORES = ["--scores", "MISSING"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", *NO_SCORES, "--expert", "/nonexistent"], "--expert applies to --annotations only"),
        (
            ["score", *NO_SCORES, "--taxonomy", "/nonexistent"],
            "--taxonomy applies to --annotations only",
        ),
        (
            ["score", *NO_SCORES, "--expert", "/x", "--taxonomy", "/y"],
            "--taxonomy applies to --annotations",
        ),
        (["stats", *NO_SCORES, "--plot-data", "PLOT"], "--plot-data needs --outcomes"),
        (["stats", *NO_SCORES, "--column", "glm"], "--column needs --outcomes"),
        (
            ["stats", *NO_SCORES, "--pair", "glm", "gpt4", "--column", "expert"],
            "--column needs --outcomes",
        ),
        (
            ["stats", *NO_SCORES, "--pair", "glm", "gpt4", "--outcomes", "MISSING"],
            "not allowed with argument --pair",
        ),
    ],
)
def test_options_that_change_nothing_exit_2_before_any_file_is_read(
    tmp_path, capsys, argv, message
):
    out, plot = tmp_path / "out", tmp_path / "plot.csv"
    missing = tmp_path / "missing.csv"  # never read: the options are checked first
    paths = {"PLOT": str(plot), "MISSING": str(missing)}
    argv = [paths.get(a, a) for a in [*argv, "--out", str(out)]]
    try:
        code = main(argv)
    except SystemExit as exc:  # modes that exclude each other are refused by argparse
        code = exc.code
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "not found" not in err
    assert not out.exists() and not plot.exists()


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_stats_rejects_non_finite_outcome(tmp_path, capsys, bad):
    outcome = tmp_path / "salary.csv"
    rows = ["code,salary"]
    for i, row in enumerate(read_score_table(SCORES).rows):
        rows.append(f"{row.code},{bad if i == 5 else 3000 + 40 * i}")
    outcome.write_text("\n".join(rows) + "\n")
    out = tmp_path / "scatter.json"
    code = main(["stats", "--scores", SCORES, "--outcomes", str(outcome), "--out", str(out)])
    assert code == EXIT_INPUT
    assert f"{outcome}:7:" in capsys.readouterr().err
    assert not out.exists()


# --- aggregate / industry / demographic ------------------------------------------


def test_aggregate_rolls_up_to_large(tmp_path):
    out = tmp_path / "agg.csv"
    assert (
        main(
            [
                "aggregate", "--taxonomy", TAXONOMY, "--scores", SCORES,
                "--column", "glm", "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    with open(out, newline="") as handle:
        rows = {r["code"]: r for r in csv.DictReader(handle)}
    table = read_score_table(SCORES)
    glm = table.column("glm")
    mediums_under_2 = [v for c, v in glm.items() if c.startswith("2-")]
    expected = sum(mediums_under_2) / len(mediums_under_2)
    assert float(rows["2"]["score"]) == pytest.approx(expected, abs=5e-5)
    assert rows["2"]["level"] == "large"
    assert len([c for c in rows if rows[c]["level"] == "medium"]) == 63


def test_industry_then_demographic(tmp_path):
    ind = tmp_path / "industry.csv"
    assert (
        main(
            [
                "industry", "--intensity", INTENSITY, "--scores", SCORES,
                "--industries", str(fixture_path("industries15.csv")), "--out", str(ind),
            ]
        )
        == EXIT_OK
    )
    with open(ind, newline="") as handle:
        industry_rows = list(csv.DictReader(handle))
    assert len(industry_rows) == 15
    assert industry_rows[0]["name"].startswith("Education")

    demo = tmp_path / "demographic.csv"
    assert (
        main(
            [
                "demographic", "--demographics", DEMOGRAPHICS,
                "--industry-scores", str(ind), "--out", str(demo),
            ]
        )
        == EXIT_OK
    )
    with open(demo, newline="") as handle:
        demo_rows = list(csv.DictReader(handle))
    assert [r["age_group"] for r in demo_rows][:2] == ["16-19", "20-24"]
    assert all(0.0 <= float(r["score"]) <= 1.0 for r in demo_rows)


@pytest.mark.parametrize("bad", ["nan", "-inf"])
def test_demographic_rejects_non_finite_industry_score(tmp_path, capsys, bad):
    ind = tmp_path / "industry.csv"
    argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--out", str(ind)]
    assert main(argv) == EXIT_OK
    lines = ind.read_text().splitlines()
    lines[3] = lines[3].split(",")[0] + "," + bad
    ind.write_text("\n".join(lines) + "\n")
    out = tmp_path / "ages.csv"
    code = main(
        [
            "demographic", "--demographics", DEMOGRAPHICS,
            "--industry-scores", str(ind), "--out", str(out),
        ]
    )
    assert code == EXIT_INPUT
    assert f"{ind}:4:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["industry", "demographic"])
def test_nan_share_is_input_error(tmp_path, capsys, command):
    industry_scores = tmp_path / "industry.csv"
    industry_scores.write_text("industry_id,score\ni1,0.3\ni2,0.5\n")
    bad = tmp_path / "shares.csv"
    out = tmp_path / "out.csv"
    if command == "industry":
        bad.write_text("industry_id,2-01,2-02\ni1,nan,1.0\n")
        argv = ["industry", "--intensity", str(bad), "--scores", SCORES]
    else:
        bad.write_text("age_group,i1,i2\na1,0.5,nan\n")
        argv = ["demographic", "--demographics", str(bad)]
        argv += ["--industry-scores", str(industry_scores)]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert f"{bad}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["industry", "demographic"])
def test_repeated_share_row_label_exits_3_in_command_and_validate(tmp_path, capsys, command):
    # Results are keyed by row label, so a repeated label would replace a row.
    industry_scores = tmp_path / "industry.csv"
    industry_scores.write_text("industry_id,score\ni1,0.3\ni2,0.5\n")
    bad = tmp_path / "shares.csv"
    out = tmp_path / "out.csv"
    if command == "industry":
        bad.write_text("industry_id,2-01,2-02\ni1,0.5,0.5\ni1,1.0,0.0\n")
        argv = ["industry", "--intensity", str(bad), "--scores", SCORES]
        validate = ["validate", "--intensity", str(bad)]
    else:
        bad.write_text("age_group,i1,i2\na1,0.5,0.5\na1,1.0,0.0\n")
        argv = ["demographic", "--demographics", str(bad)]
        argv += ["--industry-scores", str(industry_scores)]
        validate = ["validate", "--demographics", str(bad)]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert f"{bad}:3: duplicate" in capsys.readouterr().err
    assert not out.exists()
    assert main(validate) == EXIT_INPUT
    assert f"{bad}:3: duplicate" in capsys.readouterr().out


@pytest.mark.parametrize("reader", ["industry-scores", "industries"])
def test_repeated_industry_id_exits_3(tmp_path, capsys, reader):
    bad = tmp_path / "industry.csv"
    out = tmp_path / "out.csv"
    if reader == "industry-scores":
        bad.write_text("industry_id,score\n1,0.2\n1,0.9\n")
        argv = ["demographic", "--demographics", DEMOGRAPHICS, "--industry-scores", str(bad)]
    else:
        bad.write_text("industry_id,name\n1,Mining\n1,Energy\n")
        argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES]
        argv += ["--industries", str(bad)]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert f"{bad}:3: duplicate industry_id '1'" in capsys.readouterr().err
    assert not out.exists()


def test_industry_list_row_without_name_exits_3(tmp_path, capsys):
    names = tmp_path / "industries.csv"
    names.write_text("industry_id,name\n1,Mining\n2\n")
    out = tmp_path / "out.csv"
    argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--industries", str(names)]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    assert f"{names}:3: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, text, column",
    [
        ("--industry-scores", "industry_id,score,score\n1,0.2,0.9\n", "score"),
        ("--industries", "industry_id,industry_id,name\n1,2,Mining\n", "industry_id"),
        ("--expert", "code,score,score\n2-01,0.2,0.9\n", "score"),
        ("--taxonomy", "code,title,description,excluded,title\n2,A,d,false,B\n", "title"),
    ],
    ids=["industry scores", "industry list", "expert panel", "taxonomy"],
)
def test_header_that_names_a_read_column_twice_exits_3(tmp_path, capsys, option, text, column):
    # Which of the two cells is meant cannot be told, so neither is read.
    bad = _read_alone(tmp_path, option, text)
    captured = capsys.readouterr()
    assert f"{bad}:1: header names column {column!r} twice" in captured.out + captured.err


def _read_alone(tmp_path, option, text):
    """Write ``text`` as the file of ``option``, read it with ``validate`` (or
    ``industry``, for ``--industries``), check exit 3, and return the file."""
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    if option == "--industries":
        out = tmp_path / "out.csv"
        argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--out", str(out)]
    else:
        argv = ["validate"]
    assert main([*argv, option, str(bad)]) == EXIT_INPUT
    return bad


@pytest.mark.parametrize(
    "option, text",
    [
        ("--industry-scores", "industry_id,exposure\n1,0.2\n"),
        ("--industries", "industry_id,label\n1,Mining\n"),
        ("--expert", "code,value\n2-01,0.2\n"),
        ("--taxonomy", "code,title,description\n2,A,d\n"),
    ],
    ids=["industry scores", "industry list", "expert panel", "taxonomy"],
)
def test_header_that_lacks_a_read_column_exits_3(tmp_path, capsys, option, text):
    bad = _read_alone(tmp_path, option, text)
    captured = capsys.readouterr()
    assert f"{bad}:1: " in captured.out + captured.err
    assert "header must contain" in captured.out + captured.err


def test_industry_list_lacking_an_industry_of_the_matrix_exits_3(tmp_path, capsys):
    names = tmp_path / "industries.csv"
    names.write_text("industry_id,name\n1,Mining\n2,Energy\n5,Trade\n")
    out = tmp_path / "out.csv"
    argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--industries", str(names)]
    assert main([*argv, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{names}: industry list lacks industries ['3', '4', '6', '7', '8'] of the" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["abc", "nan", "1.5", "-0.1"])
def test_expert_score_must_be_a_finite_number(tmp_path, capsys, bad):
    store = tmp_path / "store.jsonl"
    mock = _write_mock(tmp_path, {"kind": "cycle", "answers": ["E1"]})
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", mock, "--models", "glm"]
    assert main([*argv, "--n-samples", "1", "--out", str(store)]) == EXIT_OK
    expert = tmp_path / "expert.csv"
    expert.write_text(f"code,score\n2-01,0.5\n2-02,{bad}\n")
    out = tmp_path / "scores.csv"
    code = main(["score", "--annotations", str(store), "--expert", str(expert), "--out", str(out)])
    assert code == EXIT_INPUT
    assert f"{expert}:3: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["share", "exposure", "delta"])
def test_scenario_value_must_be_a_finite_number(tmp_path, capsys, key):
    sector = {"id": "a", "share": 1.0, "exposure": 0.5, "delta": 0.1, key: "abc"}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"sectors": [sector]}))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert f"{scenario}: sector {key} 'abc'" in capsys.readouterr().err
    assert not out.exists()


# --- simulate / contour -----------------------------------------------------------


def test_simulate_trivial_scenario(tmp_path):
    scenario = tmp_path / "trivial.json"
    scenario.write_text(
        json.dumps(
            {
                "rho": 1.0,
                "sectors": [
                    {"id": "a", "share": 0.5, "exposure": 0.0, "delta": 0.0},
                    {"id": "b", "share": 0.5, "exposure": 0.0, "delta": 0.0},
                ],
            }
        )
    )
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["aggregate_growth"] == 1.0
    assert report["adopting_sectors"] == 0


def test_simulate_demo_scenario(tmp_path):
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", SCENARIO, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["aggregate_growth"] >= 1.0  # optimal is never worse than no adoption
    assert len(report["sectors"]) == 15
    for sector in report["sectors"]:
        assert sector["decision"] in (0, 1)
        assert "threshold" in sector


def test_simulate_tabulated_law_reports_thresholds(tmp_path):
    # g(r) = 1 + r on [0, 1], so adoption pays above delta / (1 - delta).
    scenario = tmp_path / "tabulated.json"
    scenario.write_text(
        json.dumps(
            {
                "law": {"kind": "tabulated", "points": [[0, 1], [1, 2]]},
                "sectors": [
                    {"id": "a", "share": 0.5, "exposure": 0.5, "delta": 0.1},
                    {"id": "b", "share": 0.5, "exposure": 0.1, "delta": 0.3},
                    {"id": "c", "share": 0.0, "exposure": 0.9, "delta": 0.6},
                ],
            }
        )
    )
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
    sectors = {s["id"]: s for s in json.loads(out.read_text())["sectors"]}
    assert sectors["a"]["threshold"] == 0.1111
    assert sectors["b"]["threshold"] == 0.4286
    assert sectors["c"]["threshold"] is None  # needs g > 2.5; the table tops at 2
    assert [sectors[k]["decision"] for k in "abc"] == [1, 0, 0]


def test_contour_default_grid(tmp_path):
    out = tmp_path / "contour.csv"
    assert main(["contour", "--scenario", SCENARIO, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 22  # header + 21 damage ratios
    assert all(len(line.split(",")) == 22 for line in lines)
    assert lines[0].startswith("delta\\ratio,0.0000,")
    assert lines[0].endswith(",1.0000")
    assert lines[-1].startswith("0.9500,")


def test_contour_output_shape(tmp_path):
    out = tmp_path / "contour.csv"
    assert (
        main(
            [
                "contour", "--scenario", SCENARIO, "--out", str(out),
                "--delta-grid", "0:0.9:4", "--ratio-grid", "0:1:5",
            ]
        )
        == EXIT_OK
    )
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0] == "delta\\ratio"
    assert len(lines) == 5  # header + 4 delta rows
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert float(cells[1]) == 1.0  # ratio-0 column


@pytest.mark.parametrize(
    "grid",
    [
        ("--delta-grid", "0:1"),
        ("--ratio-grid", "a:b:3"),
        ("--delta-grid", "0,x"),
        ("--delta-grid", "0,nan"),
        ("--ratio-grid", "0,inf"),
        ("--delta-grid", "0:inf:3"),
        ("--ratio-grid", "nan:1:1"),
        *[
            (option, value)
            for option in ("--delta-grid", "--ratio-grid")
            for value in ("0:1:0", "abc", "0:1", "0:1:1.5", "nan:1:3")
        ],
    ],
)
def test_contour_malformed_grid_is_input_error(tmp_path, capsys, grid):
    """A malformed grid is a bad option value, not a bad file: exit 2, naming the option."""
    out = tmp_path / "contour.csv"
    code = main(["contour", "--scenario", SCENARIO, *grid, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: {grid[0]} " in err and repr(grid[1]) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid,message",
    [
        (("--ratio-grid", "0:1.5:3"), "adoption ratio 1.5 outside [0, 1]"),
        (("--delta-grid", "0,1"), "damage ratio 1.0 outside [0, 1)"),
    ],
)
def test_contour_grid_out_of_range_is_compute_error(tmp_path, capsys, grid, message):
    out = tmp_path / "contour.csv"
    code = main(["contour", "--scenario", SCENARIO, *grid, "--out", str(out)])
    assert code == EXIT_COMPUTE
    assert message in capsys.readouterr().err
    assert not out.exists()


def _parameters(out: Path) -> dict:
    return json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--scores", SCORES],
        ["simulate", "--scenario", SCENARIO],
        ["contour", "--scenario", SCENARIO],
    ],
)
def test_manifest_records_full_precision(tmp_path, argv):
    """Reports that differ at --full-precision differ in their parameters too."""
    rounded, full = tmp_path / "rounded", tmp_path / "full"
    assert main([*argv, "--out", str(rounded)]) == EXIT_OK
    assert main([*argv, "--full-precision", "--out", str(full)]) == EXIT_OK
    assert rounded.read_bytes() != full.read_bytes()
    assert _parameters(rounded)["full_precision"] is False
    assert {**_parameters(rounded), "full_precision": True} == _parameters(full)


def test_contour_manifest_records_the_grids_as_given(tmp_path):
    recorded = []
    for delta in ("0,0.5", "0,0.6"):
        out = tmp_path / f"contour{delta}.csv"
        argv = ["contour", "--scenario", SCENARIO, "--delta-grid", delta, "--out", str(out)]
        assert main(argv) == EXIT_OK
        recorded.append(_parameters(out))
    assert [r["delta_grid"] for r in recorded] == ["0,0.5", "0,0.6"]
    assert recorded[0]["ratio_grid"] is None and recorded[0]["delta_points"] == 2


def test_annotate_has_no_full_precision_option(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
            "--n-samples", "1", "--out", str(store)]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--full-precision"])
    assert err.value.code == EXIT_CONFIG
    assert "--full-precision" in capsys.readouterr().err
    assert not store.exists()
    assert main(argv) == EXIT_OK
    assert "full_precision" not in _parameters(store)


@pytest.mark.parametrize("command", ["simulate", "contour"])
@pytest.mark.parametrize("rho", ["inf", "-inf", "nan"])
def test_non_finite_rho_is_input_error(tmp_path, capsys, command, rho):
    # The decoder reads Infinity and NaN; the scenario reader refuses them.
    sector = {"id": "a", "share": 1.0, "exposure": 0.5, "delta": 0.1}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"rho": float(rho), "sectors": [sector]}))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert f"{scenario}: rho {float(rho)!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "contour"])
def test_rho_is_not_an_option(tmp_path, capsys, command):
    # The scenario file is the one source of rho.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([command, "--scenario", SCENARIO, "--rho", "2", "--out", str(out)])
    assert err.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --rho 2" in capsys.readouterr().err
    assert not out.exists()


SECTOR = {"id": "a", "share": 1.0, "exposure": 0.5, "delta": 0.1}
TABULATED = {"kind": "tabulated", "points": [[0, 1], [1, 2]]}


@pytest.mark.parametrize("command", ["simulate", "contour", "validate"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"rh0": 3.0, "sectors": [SECTOR]}, "scenario has keys it does not read: ['rh0']"),
        (
            {"law": {"kind": "exponential", "rho": 2.0}, "sectors": [SECTOR]},
            "growth law {'kind': 'exponential', 'rho': 2.0} is not 'exponential' or tabulated",
        ),
        (
            {"rho": 2.0, "law": TABULATED, "sectors": [SECTOR]},
            "scenario with a tabulated law has keys it does not read: ['rho']",
        ),
        (
            {"sectors": [{**SECTOR, "baseline_output": 30, "dleta": 0.2}]},
            "sector 'a' has keys it does not read: ['baseline_output', 'dleta']",
        ),
        (
            {"damage_kappa": 0.5, "sectors": [{"id": "a", "share": 1.0, "exposure": 0.5,
                                               "detla": 0.3}]},
            "scenario has keys it does not read: ['damage_kappa']",
        ),
        (
            {"law": {**TABULATED, "extrapolate": True}, "sectors": [SECTOR]},
            "tabulated law has keys it does not read: ['extrapolate']",
        ),
        (
            {"sectors": [{k: v for k, v in SECTOR.items() if k != "id"}]},
            "sector 1 needs a non-empty string id, got None",
        ),
    ],
    ids=["top-level key", "exponential law object", "rho beside a tabulated law",
         "baseline output and sector key", "damage kappa", "tabulated law key", "no id"],
)
def test_scenario_keys_it_does_not_read_are_refused(tmp_path, capsys, command, config, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--scenario", str(scenario)]
    assert main(argv if command == "validate" else [*argv, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"{scenario}: {message}" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "contour", "validate"])
@pytest.mark.parametrize(
    "text, key",
    [
        ('{"rho": 2.0, "rho": 1.0, "sectors": [%s]}' % json.dumps(SECTOR), "rho"),
        ('{"sectors": [{"id": "a", "share": 1.0, "exposure": 0.5, "delta": 0.1, "delta": 0.9}]}',
         "delta"),
    ],
    ids=["top level", "sector"],
)
def test_a_scenario_that_repeats_a_key_exits_3(tmp_path, capsys, command, text, key):
    # json keeps the last of a repeated key, so these ran with rho 1 and delta 0.9.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--scenario", str(scenario)]
    assert main(argv if command == "validate" else [*argv, "--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"{scenario}: JSON object names key {key!r} twice" in captured.out + captured.err
    assert not out.exists()


@pytest.mark.parametrize("config", [{"rho": "abc", "sectors": []}, [1]])
def test_malformed_scenario_is_input_error(tmp_path, capsys, config):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(config))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert f"{scenario}: " in capsys.readouterr().err
    assert not out.exists()


# --- industry scores ---------------------------------------------------------


@pytest.fixture
def industry_scores(tmp_path) -> str:
    """``industry`` at full precision on the inputs of the bundled scenario's exposures."""
    out = tmp_path / "industry.csv"
    argv = ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--full-precision"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return str(out)


@pytest.mark.parametrize("command", ["simulate", "contour"])
def test_sectors_without_exposure_read_the_industry_scores(tmp_path, industry_scores, command):
    # The chain writes the bytes of the scenario whose exposures the generator computed.
    chained, bundled = tmp_path / "chained", tmp_path / "bundled"
    argv = [command, "--scenario", SECTORS, "--industry-scores", industry_scores]
    assert main([*argv, "--full-precision", "--out", str(chained)]) == EXIT_OK
    argv = [command, "--scenario", SCENARIO]
    assert main([*argv, "--full-precision", "--out", str(bundled)]) == EXIT_OK
    assert chained.read_bytes() == bundled.read_bytes()
    inputs = json.loads(Path(f"{chained}.manifest.json").read_text())["inputs"]
    assert inputs["industry_scores"] == runio.sha256_file(Path(industry_scores))


@pytest.mark.parametrize("command", ["simulate", "contour"])
@pytest.mark.parametrize(
    "scenario, rows, code, message",
    [
        (SCENARIO, slice(None), EXIT_CONFIG, "--industry-scores applies to sectors without an"),
        (SECTORS, slice(-1), EXIT_INPUT, "{scores}: no score for sectors ['15'] of scenario"),
        (SECTORS, ["16,0.5"], EXIT_INPUT, "{scores}: ids ['16'] are no sector without an"),
        (SECTORS, None, EXIT_INPUT, "{scenario}: sector '1' needs an exposure"),
        ("MIX", None, EXIT_INPUT,
         "{scenario}: sector 'a' has keys it does not read: ['occupation_mix']"),
    ],
    ids=["every sector has an exposure", "missing id", "extra id", "no industry scores",
         "leftover occupation mix"],
)
def test_industry_scores_that_do_not_fit_the_scenario_are_refused(
    tmp_path, capsys, industry_scores, command, scenario, rows, code, message
):
    if scenario == "MIX":
        scenario = str(tmp_path / "mix.json")
        sector = {"id": "a", "share": 1.0, "delta": 0.1, "occupation_mix": {"2-01": 1.0}}
        Path(scenario).write_text(json.dumps({"sectors": [sector]}))
    argv = [command, "--scenario", scenario]
    if rows is not None:  # the industry lines, sliced, or with lines added
        lines = Path(industry_scores).read_text().splitlines()
        lines = lines[rows] if isinstance(rows, slice) else lines + rows
        Path(industry_scores).write_text("\n".join(lines) + "\n")
        argv += ["--industry-scores", industry_scores]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert message.format(scores=industry_scores, scenario=scenario) in capsys.readouterr().err
    assert not out.exists()


# --- validate ----------------------------------------------------------------


def test_validate_clean_inputs(monkeypatch):
    loads = []
    load = taxonomy.load_taxonomy
    monkeypatch.setattr(taxonomy, "load_taxonomy", lambda path: loads.append(path) or load(path))
    assert (
        main(
            [
                "validate", "--taxonomy", TAXONOMY, "--scores", SCORES,
                "--intensity", INTENSITY, "--demographics", DEMOGRAPHICS,
                "--scenario", SCENARIO, "--mock", MOCK,
            ]
        )
        == EXIT_OK
    )
    assert loads == [TAXONOMY]  # one read serves the check and the scripted mock


def test_validate_checks_the_scenario_against_the_industry_scores(
    tmp_path, capsys, industry_scores
):
    def validate(*argv: str) -> str:
        code = main(["validate", *argv])
        out = capsys.readouterr().out
        assert code == (EXIT_INPUT if out else EXIT_OK)
        return out

    assert validate("--scenario", SECTORS, "--industry-scores", industry_scores) == ""
    # What ``simulate`` refuses, ``validate`` reports.
    assert validate("--scenario", SECTORS).startswith(
        f"scenario: {SECTORS}: sector '1' needs an exposure"
    )
    assert validate("--scenario", SCENARIO, "--industry-scores", industry_scores) == (
        "scenario: --industry-scores applies to sectors without an exposure; "
        f"scenario {SCENARIO} gives every sector one\n"
    )
    extra = tmp_path / "extra.csv"
    extra.write_text(Path(industry_scores).read_text() + "16,0.5\n")
    assert validate("--scenario", SECTORS, "--industry-scores", str(extra)).startswith(
        f"scenario: {extra}: ids ['16'] are no sector without an exposure"
    )
    # A malformed file is reported under its own option, and once.
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("industry_id,score\n1,abc\n")
    alone = validate("--industry-scores", str(malformed))
    assert alone == f"industry_scores: {malformed}:2: score 'abc' is not a finite number\n"
    assert validate("--scenario", SECTORS, "--industry-scores", str(malformed)).count(
        str(malformed)
    ) == 1


def test_validate_reports_row_sum(tmp_path, capsys):
    bad = tmp_path / "bad_intensity.csv"
    bad.write_text("industry_id,2-01,2-02\nrow9,0.5,0.48\n")
    assert main(["validate", "--intensity", str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "row9" in captured.out
    assert "0.98" in captured.out


def test_validate_reports_orphan_with_line(tmp_path, capsys):
    bad = tmp_path / "bad_tax.csv"
    bad.write_text("code,title,description,excluded\n2-06,Econ,d,false\n")
    assert main(["validate", "--taxonomy", str(bad)]) == EXIT_INPUT
    assert ":2:" in capsys.readouterr().out  # line number of the orphan row


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "fixed", "answer": "E1"},  # the old spelling of a one-answer cycle
        {"kind": "cycle", "answers": 5},
        {"kind": "scripted", "answers": {"2-01": "E1"}},
        {"kind": "scripted", "answers": {"9-99": ["E1"]}},
        ["E1"],
        {"kind": "cycle", "answers": ["E1"], "answer": "E3", "extra": 1},
        {"kind": "scripted", "answers": {"2-01": []}},
        {"kind": "cycle", "answers": []},
    ],
)
def test_malformed_mock_config_is_input_error(tmp_path, capsys, config):
    mock = _write_mock(tmp_path, config)
    assert main(["validate", "--taxonomy", TAXONOMY, "--mock", mock]) == EXIT_INPUT
    assert f"mock: {mock}: " in capsys.readouterr().out
    out = tmp_path / "store.jsonl"
    code = main(["annotate", "--taxonomy", TAXONOMY, "--mock", mock, "--out", str(out)])
    assert code == EXIT_INPUT
    assert mock in capsys.readouterr().err
    assert not out.exists()


def test_a_mock_configuration_that_repeats_a_key_exits_3(tmp_path, capsys):
    mock = tmp_path / "mock.json"
    mock.write_text('{"kind": "cycle", "answers": ["E1"], "answers": ["E3"]}')
    assert main(["validate", "--taxonomy", TAXONOMY, "--mock", str(mock)]) == EXIT_INPUT
    assert f"mock: {mock}: JSON object names key 'answers' twice" in capsys.readouterr().out
    out = tmp_path / "store.jsonl"
    code = main(["annotate", "--taxonomy", TAXONOMY, "--mock", str(mock), "--out", str(out)])
    assert code == EXIT_INPUT
    assert f"{mock}: JSON object names key 'answers' twice" in capsys.readouterr().err
    assert not out.exists()


def test_scripted_codes_that_share_a_title_get_their_own_answers(tmp_path, capsys):
    taxonomy = tmp_path / "taxonomy.csv"
    taxonomy.write_text(
        "code,title,description,excluded\n2,Pros,top,false\n"
        "2-01,Clerks,Files records.,false\n2-02,Clerks,Types letters.,false\n"
    )
    mock = _write_mock(tmp_path, {"kind": "scripted", "answers": {"2-01": ["E1"], "2-02": ["E0"]}})
    assert main(["validate", "--taxonomy", str(taxonomy), "--mock", mock]) == EXIT_OK
    assert capsys.readouterr().out == ""
    out = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", str(taxonomy), "--mock", mock, "--models", "glm"]
    assert main([*argv, "--n-samples", "2", "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["code"], r["samples"]) for r in records] == [
        ("2-01", ["E1", "E1"]), ("2-02", ["E0", "E0"])
    ]


@pytest.mark.parametrize("bad", ["1.5", "nan"])
def test_validate_reports_bad_expert_score_with_line(tmp_path, capsys, bad):
    expert = tmp_path / "expert.csv"
    expert.write_text(f"code,score\n2-01,0.5\n2-02,{bad}\n")
    assert main(["validate", "--expert", str(expert)]) == EXIT_INPUT
    assert f"expert: {expert}:3: expert score " in capsys.readouterr().out


GOOD_RECORD = {"model_id": "glm", "code": "2-01", "samples": ["E1"], "raw_responses": ["E1"]}


@pytest.mark.parametrize(
    "record,message",
    [
        ([1], "expected a JSON object, got [1]"),
        (1, "expected a JSON object, got 1"),
        ({**GOOD_RECORD, "samples": ["E1", "E0"]}, "samples and raw_responses must align"),
        ({**GOOD_RECORD, "raw_responses": [1]}, "raw_responses must be a list of strings"),
        ({**GOOD_RECORD, "code": "2-x"}, "malformed occupation code '2-x'"),
        ({**GOOD_RECORD, "code": 5}, "code must be a string, got 5"),
        ({**GOOD_RECORD, "model_id": "mystery"}, "model 'mystery' has no score column"),
    ],
)
def test_bad_annotation_record_is_input_error_with_line(tmp_path, capsys, record, message):
    store = tmp_path / "store.jsonl"
    store.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "scores.csv"
    assert main(["score", "--annotations", str(store), "--out", str(out)]) == EXIT_INPUT
    assert f"{store}:2: bad annotation record: {message}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--annotations", str(store)]) == EXIT_INPUT
    assert f"annotations: {store}:2: bad annotation record: {message}" in capsys.readouterr().out


def test_an_annotation_record_that_repeats_a_key_exits_3_at_its_line(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    repeated = json.dumps(GOOD_RECORD)[:-1] + ', "samples": ["E3"]}'
    store.write_text(json.dumps(GOOD_RECORD) + "\n" + repeated + "\n")
    assert main(["validate", "--annotations", str(store)]) == EXIT_INPUT
    assert (
        f"annotations: {store}:2: bad annotation record: JSON object names key 'samples' twice"
    ) in capsys.readouterr().out


def test_validate_reports_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["validate", "--mock", str(bad)]) == EXIT_INPUT
    assert f"mock: {bad}: " in capsys.readouterr().out
    # The taxonomy is also read once up front, to resolve scripted mock answers.
    assert main(["validate", "--taxonomy", str(bad), "--mock", MOCK]) == EXIT_INPUT
    assert f"taxonomy: {bad}: " in capsys.readouterr().out


DEEP = "[" * 140_000  # past the csv field-size limit and the JSON recursion limit


@pytest.mark.parametrize(
    "option,text,where,message",
    [
        ("scores", "code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,,0.5,,," + DEEP + "\n",
         ":2: ", "malformed CSV: field larger than field limit"),
        ("outcomes", "code,vacancy_share\n2-01,1\n2-02," + DEEP + "\n",
         ":3: ", "malformed CSV: field larger than field limit"),
        ("scenario", DEEP, ": ", "invalid scenario JSON: maximum recursion depth exceeded"),
        ("mock", DEEP, ": ", "invalid mock configuration JSON: maximum recursion depth exceeded"),
        ("mock", "[1]", ": ", "mock configuration must be a JSON object"),
        ("annotations", json.dumps(GOOD_RECORD) + "\n" + DEEP + "\n",
         ":2: ", "bad annotation record: maximum recursion depth exceeded"),
    ],
    ids=["scores", "outcomes", "scenario", "mock", "mock_array", "annotations"],
)
def test_oversized_field_or_deep_json_exits_3_at_the_file(
    tmp_path, capsys, option, text, where, message
):
    path = tmp_path / "input"
    path.write_text(text)
    assert main(["validate", f"--{option}", str(path)]) == EXIT_INPUT
    assert f"{option}: {path}{where}{message}" in capsys.readouterr().out


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xff\xfecode")
    out = tmp_path / "o.csv"
    assert main(["score", "--scores", str(bad), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "can't decode" in err
    assert f"{bad}: not UTF-8 text" in err
    assert not out.exists()


# --- exit codes and atomicity ----------------------------------------------------


def test_missing_input_is_config_error(tmp_path):
    code = main(["score", "--scores", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG


def test_malformed_input_is_input_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("code,glm\n2-01,0.5\n")
    code = main(["score", "--scores", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_INPUT
    assert not (tmp_path / "o.csv").exists()


def test_computation_error_leaves_no_partial_output(tmp_path):
    # Score table missing one leaf makes the roll-up fail mid-computation.
    table = read_score_table(SCORES)
    lines = (fixture_path("medium63_scores.csv")).read_text().splitlines()
    truncated = tmp_path / "short.csv"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    out = tmp_path / "agg.csv"
    code = main(
        ["aggregate", "--taxonomy", TAXONOMY, "--scores", str(truncated), "--out", str(out)]
    )
    assert code == EXIT_COMPUTE
    assert not out.exists()
    assert len(table.rows) == 63  # fixture untouched


@pytest.mark.parametrize(
    "argv, named",
    [
        (["score", "--scores", SCORES, "--out", "{dir}"], "dir"),
        (["score", "--scores", SCORES, "--out", "{file}/y.csv"], "file"),
        (["pipeline", "--scores", SCORES, "--taxonomy", TAXONOMY, "--intensity", INTENSITY,
          "--outdir", "{file}"], "file"),
    ],
    ids=["out-is-a-directory", "out-under-a-file", "pipeline-outdir-is-a-file"],
)
def test_an_output_path_that_cannot_be_written_is_config_error(tmp_path, capsys, argv, named):
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file"}
    paths["dir"].mkdir()
    paths["file"].write_text("kept\n")
    assert main([a.format(**paths) for a in argv]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {paths[named]}: ")
    # Nothing is left behind: no temp file, no manifest, the file untouched.
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]
    assert paths["file"].read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv, max_bytes",
    [
        (["score", "--scores", SCORES], 1_000),
        (["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--n-samples", "8"], 20_000),
    ],
    ids=["score", "annotate"],
)
def test_a_write_that_fails_names_its_output_and_leaves_no_file(tmp_path, argv, max_bytes):
    resource = pytest.importorskip("resource")
    import signal

    def limit_file_size():
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # the write fails with EFBIG instead
        resource.setrlimit(resource.RLIMIT_FSIZE, (max_bytes, max_bytes))

    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(lmexposure.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "lmexposure.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, env=env, preexec_fn=limit_file_size,
    )
    assert result.returncode == EXIT_CONFIG
    assert result.stderr.splitlines()[-1].startswith(f"error: {out}: ")
    assert list(tmp_path.iterdir()) == []  # no output, no temp file, no manifest


def test_manifest_digests_an_input_before_the_output_replaces_it(tmp_path):
    table = tmp_path / "t.csv"
    lines = Path(SCORES).read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",0.6227,", ",0.9227,")  # so the ensemble is recomputed
    table.write_text("".join(lines))
    read = runio.sha256_file(table)
    assert main(["score", "--scores", str(table), "--out", str(table)]) == EXIT_OK
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    assert runio.sha256_file(table) != read
    assert manifest["inputs"] == {"scores": read}
    assert manifest["outputs"] == {"scores": runio.sha256_file(table)}


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2


def test_every_subcommand_has_help(capsys):
    parser = build_parser()
    for command in (
        "annotate", "score", "aggregate", "industry", "demographic",
        "stats", "simulate", "contour", "validate", "pipeline",
    ):
        with pytest.raises(SystemExit) as err:
            parser.parse_args([command, "--help"])
        assert err.value.code == 0
        assert "--" in capsys.readouterr().out


def test_parser_of_a_named_command_holds_that_command_alone(capsys):
    parser = build_parser("score")
    assert parser.parse_args(["score", "--scores", "t.csv", "--out", "o.csv"]).command == "score"
    with pytest.raises(SystemExit) as err:
        parser.parse_args(["stats", "--scores", "t.csv", "--out", "o.csv"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):  # an unknown name builds every command
        build_parser("transmogrify").parse_args(["transmogrify"])
    assert "'pipeline'" in capsys.readouterr().err


def test_every_command_module_defines_its_handler():
    for command, (_, module_name, _) in _COMMANDS.items():
        module = importlib.import_module(f"lmexposure.commands.{module_name}")
        assert callable(getattr(module, f"cmd_{command}", None)), (module_name, command)


def test_handlers_read_their_input_options_through_the_readers_table():
    # ``READERS`` says how each input option's file is read; a handler that
    # calls a reader itself would state that a second time.
    readers = {name.rpartition(".")[2] for _, name in READERS.values()}
    commands = Path(lmexposure.__file__).parent / "commands"
    named = []
    for path in sorted(commands.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [name]
            named += [(path.name, n) for n in names if n in readers]
    assert named == []


def test_cli_imports_only_the_standard_library():
    package_root = Path(lmexposure.__file__).parents[1]
    code = (
        "import sys, lmexposure.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_imports_only_what_the_command_runs(tmp_path):
    package_root = Path(lmexposure.__file__).parents[1]
    code = (
        "import sys, lmexposure.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('lmexposure'))\n"
        "print(loaded(), 'concurrent.futures' in sys.modules)\n"
        f"lmexposure.cli.main(['stats', '--scores', {SCORES!r}, '--out', {str(tmp_path / 's.json')!r}])\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    at_import, after_stats = result.stdout.splitlines()
    base = ["lmexposure", "lmexposure.cli", "lmexposure.errors", "lmexposure.runio"]
    assert at_import == f"{base} False"
    assert "lmexposure.labor_stats" in after_stats
    assert "lmexposure.annotate" not in after_stats
    assert "lmexposure.econ_model" not in after_stats


@pytest.mark.parametrize(
    "argv, own",
    [
        (["stats", "--scores", SCORES], ["commands.stats", "labor_stats", "scores"]),
        (
            ["aggregate", "--taxonomy", TAXONOMY, "--scores", SCORES],
            ["commands.aggregate", "scores", "taxonomy"],
        ),
        (["score", "--scores", SCORES], ["commands.score", "scores"]),
        (
            ["industry", "--intensity", INTENSITY, "--scores", SCORES],
            ["commands.aggregate", "aggregate", "scores"],
        ),
        (["contour", "--scenario", SCENARIO], ["commands.adoption", "econ_model"]),
        (["simulate", "--scenario", SCENARIO], ["commands.adoption", "econ_model"]),
        (["simulate", "--scenario", SECTORS], ["aggregate", "commands.adoption", "econ_model"]),
        (["demographic", "--demographics", DEMOGRAPHICS], ["commands.aggregate", "aggregate"]),
        (
            ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
             "--n-samples", "1"],
            ["annotate", "commands.annotate", "taxonomy"],
        ),
    ],
    ids=["stats", "aggregate", "score", "industry", "contour", "simulate",
         "simulate --industry-scores", "demographic", "annotate"],
)
def test_a_command_loads_only_its_own_modules(tmp_path, argv, own):
    if argv[0] == "demographic" or SECTORS in argv:  # its input is an ``industry`` output
        industry = tmp_path / "industry.csv"
        assert main(["industry", "--intensity", INTENSITY, "--scores", SCORES,
                     "--out", str(industry)]) == EXIT_OK
        argv = [*argv, "--industry-scores", str(industry)]
    package_root = Path(lmexposure.__file__).parents[1]
    code = (
        "import sys, lmexposure.cli\n"
        f"assert lmexposure.cli.main({argv + ['--out', str(tmp_path / 'out')]!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('lmexposure')))\n"
        "print('_hashlib' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    # ``-S``: a .pth file in site-packages may import hashlib (OpenSSL) itself.
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    base = ["cli", "commands", "errors", "runio"]
    expected = ["lmexposure"] + [f"lmexposure.{name}" for name in base + own]
    assert result.stdout.splitlines() == [str(sorted(expected)), "False"]


def test_validate_loads_only_the_readers_of_its_options():
    package_root = Path(lmexposure.__file__).parents[1]
    argv = ["validate", "--taxonomy", TAXONOMY, "--scores", SCORES]
    code = (
        "import sys, lmexposure.cli\n"
        f"assert lmexposure.cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('lmexposure')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    base = ["cli", "commands", "commands.validate", "errors", "runio", "scores", "taxonomy"]
    assert result.stdout.strip() == str(["lmexposure"] + [f"lmexposure.{m}" for m in base])


def test_no_handler_imports_the_cli_module(tmp_path):
    # Under ``python -m lmexposure.cli`` the running module is __main__: a
    # handler importing lmexposure.cli would compile and run cli.py again.
    package_root = Path(lmexposure.__file__).parents[1]
    out = str(tmp_path / "out")
    commands = [
        ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
         "--n-samples", "1", "--out", str(tmp_path / "store.jsonl")],
        ["score", "--scores", SCORES, "--out", out],
        ["industry", "--intensity", INTENSITY, "--scores", SCORES, "--out", out],
        ["stats", "--scores", SCORES, "--out", out],
        ["simulate", "--scenario", SCENARIO, "--out", out],
        ["validate", "--scores", SCORES],
        ["pipeline", "--scores", SCORES, "--taxonomy", TAXONOMY, "--intensity", INTENSITY,
         "--outdir", str(tmp_path / "pipeline")],
    ]
    code = (
        "import runpy, sys\n"
        f"for argv in {commands!r}:\n"
        "    sys.argv = ['lmexposure', *argv]\n"
        "    try:\n"
        "        runpy.run_module('lmexposure.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, (argv, exc.code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('lmexposure.c')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    groups = ["adoption", "aggregate", "annotate", "pipeline", "score", "stats", "validate"]
    assert result.stdout.strip() == str(
        ["lmexposure.commands"] + [f"lmexposure.commands.{g}" for g in groups]
    )


# --- process entry point ---------------------------------------------------------


def _bad_scores(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("code,glm\n2-01,0.5\n")
    return ["score", "--scores", str(bad), "--out", str(tmp_path / "o.csv")]


def test_entry_point_freezes_the_heap_before_exit_handlers_run(tmp_path):
    package_root = Path(lmexposure.__file__).parents[1]
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, flush=True))\n"
        f"sys.argv = ['lmexposure', *{_bad_scores(tmp_path)!r}]\n"
        "runpy.run_module('lmexposure.cli', run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == EXIT_INPUT
    assert result.stdout == "True\n"


def test_module_run_still_reports_an_input_error(tmp_path):
    package_root = Path(lmexposure.__file__).parents[1]
    argv = _bad_scores(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-m", "lmexposure.cli", *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == EXIT_INPUT
    assert result.stderr.startswith(f"error: {argv[2]}:")
    assert not (tmp_path / "o.csv").exists()


def test_an_interrupt_ends_the_command_with_one_line_and_exit_130(tmp_path):
    (tmp_path / "interruptshim.py").write_text(
        "class Client:\n"
        "    capability = 'serial'\n"
        "    def complete(self, prompt_text, decode_config):\n"
        "        raise KeyboardInterrupt\n"
        "def make(model_id):\n"
        "    return Client()\n"
    )
    package_root = Path(lmexposure.__file__).parents[1]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(package_root), str(tmp_path)]),
        CLIENT_ENV_VAR: "interruptshim:make",
    }
    store = tmp_path / "store.jsonl"
    result = subprocess.run(
        [sys.executable, "-m", "lmexposure.cli", "annotate", "--taxonomy", TAXONOMY,
         "--models", "glm", "--out", str(store)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 130
    assert result.stderr == "error: interrupted\n"
    assert not store.exists()


def test_main_in_process_never_freezes(tmp_path):
    before = gc.get_freeze_count()
    assert main(["score", "--scores", SCORES, "--out", str(tmp_path / "good.csv")]) == EXIT_OK
    assert main(_bad_scores(tmp_path)) == EXIT_INPUT
    assert gc.get_freeze_count() == before


def test_console_script_is_the_function_the_main_block_calls():
    tomllib = pytest.importorskip("tomllib")
    root = Path(lmexposure.__file__).parents[2]
    with open(root / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["lmexposure"]
    module_name, _, function = target.partition(":")
    assert module_name == "lmexposure.cli"
    tree = ast.parse((root / "src" / "lmexposure" / "cli.py").read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    # The block does nothing but call the script's entry function.
    assert [ast.unparse(statement) for statement in block.body] == [f"{function}()"]


def test_mock_annotate_loads_no_thread_pool_or_logging(tmp_path):
    package_root = Path(lmexposure.__file__).parents[1]
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
            "--n-samples", "2", "--out", str(tmp_path / "store.jsonl")]
    code = (
        "import sys, lmexposure.cli\n"
        f"assert lmexposure.cli.main({argv!r}) == 0\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def test_no_module_or_command_loads_dataclasses_or_inspect(tmp_path):
    # dataclasses imports inspect, dis, ast and tokenize: ~17 ms of start-up
    # on every command, for what plain classes give as well.
    package_root = Path(lmexposure.__file__).parents[1]
    modules = "aggregate annotate cli econ_model errors labor_stats runio scores taxonomy"
    code = (
        "import importlib, sys\n"
        f"for name in {modules.split()!r}: importlib.import_module('lmexposure.' + name)\n"
        "from lmexposure.cli import main\n"
        f"assert main(['stats', '--scores', {SCORES!r}, '--out', {str(tmp_path / 's')!r}]) == 0\n"
        f"assert main(['contour', '--scenario', {SCENARIO!r}, '--out', {str(tmp_path / 'c')!r}])"
        " == 0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


# --- determinism ----------------------------------------------------------------


def _run_mock_pipeline(workdir):
    store = workdir / "store.jsonl"
    scores_out = workdir / "scores.csv"
    stats_out = workdir / "stats.json"
    assert (
        main(
            [
                "annotate", "--taxonomy", TAXONOMY, "--mock", MOCK,
                "--models", "glm,gpt4,internlm", "--n-samples", "8",
                "--out", str(store),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "score", "--annotations", str(store), "--taxonomy", TAXONOMY,
                "--out", str(scores_out),
            ]
        )
        == EXIT_OK
    )
    assert main(["stats", "--scores", str(scores_out), "--out", str(stats_out)]) == EXIT_OK
    return store, scores_out, stats_out


def test_fixed_seed_runs_are_byte_identical(tmp_path):
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    files_a = _run_mock_pipeline(run_a)
    files_b = _run_mock_pipeline(run_b)
    for fa, fb in zip(files_a, files_b):
        assert fa.read_bytes() == fb.read_bytes()
    # Manifests key inputs/outputs by role, so they are byte-identical too.
    for name in ("store.jsonl.manifest.json", "scores.csv.manifest.json"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()


@pytest.mark.parametrize(
    "option,value,named",
    [
        ("--n-samples", "0", "--n-samples"),
        ("--max-retries", "-1", "--max-retries"),
        ("--in-flight", "0", "--in-flight"),
        ("--in-flight", "-3", "--in-flight"),
        ("--models", ",", "--models"),
        ("--models", "glm,gpt5", "gpt5"),
        ("--models", "glm,glm", "--models repeats a model"),
    ],
)
def test_annotate_rejects_bad_options_before_building_a_client(
    tmp_path, capsys, monkeypatch, option, value, named
):
    def no_client(*args):
        raise AssertionError("a client was built")

    monkeypatch.setattr("lmexposure.annotate.load_mock_client", no_client)
    store = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm"]
    assert main([*argv, option, value, "--out", str(store)]) == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not store.exists()


def test_annotate_reads_a_rubric_file(tmp_path, capsys):
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
            "--n-samples", "1"]
    rubric = tmp_path / "rubric.txt"
    rubric.write_text("Label the occupation E0\u2013E3.\n", encoding="utf-8")
    store = tmp_path / "store.jsonl"
    assert main([*argv, "--rubric", str(rubric), "--out", str(store)]) == EXIT_OK
    assert store.read_text()
    inputs = json.loads(Path(f"{store}.manifest.json").read_text())["inputs"]
    assert inputs["rubric"] == runio.sha256_file(rubric)

    missing, out = tmp_path / "missing.txt", tmp_path / "out.jsonl"
    assert main([*argv, "--rubric", str(missing), "--out", str(out)]) == EXIT_CONFIG
    assert str(missing) in capsys.readouterr().err

    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("\u00c9tiquetez E0 \u00e0 E3.\n".encode("latin-1"))
    assert main([*argv, "--rubric", str(latin1), "--out", str(out)]) == EXIT_INPUT
    assert f"{latin1}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def test_annotate_refuses_an_existing_store(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    argv = [
        "annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "glm",
        "--n-samples", "1", "--out", str(store),
    ]
    assert main(argv) == EXIT_OK
    before = store.read_bytes()
    assert main(argv) == EXIT_CONFIG
    assert str(store) in capsys.readouterr().err
    assert store.read_bytes() == before


# --- live client via environment ---------------------------------------------------


def test_env_client_shim(tmp_path, monkeypatch):
    shim = tmp_path / "shimpkg"
    shim.mkdir()
    (shim / "__init__.py").write_text("")
    (shim / "client.py").write_text(
        "from lmexposure.annotate import MockClient\n"
        "def make(model_id):\n"
        "    return MockClient(['E2'])\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv(CLIENT_ENV_VAR, "shimpkg.client:make")
    store = tmp_path / "store.jsonl"
    assert (
        main(
            [
                "annotate", "--taxonomy", TAXONOMY, "--models", "glm",
                "--n-samples", "2", "--out", str(store),
            ]
        )
        == EXIT_OK
    )
    record = json.loads(store.read_text().splitlines()[0])
    assert record["samples"] == ["E2", "E2"]


@pytest.mark.parametrize(
    "spec, named",
    [
        ("nosuch.mod:make", "module 'nosuch.mod', which is not found"),
        ("json.nosuch:make", "module 'json.nosuch', which is not found"),
        ("json:nosuchfactory", "factory 'nosuchfactory', which module 'json' lacks"),
        (".rel:make", "module '.rel', which is relative"),
        ("json:dumps", "factory 'dumps', which returned a 'str' with no callable 'complete'"),
    ],
)
def test_env_client_spec_naming_nothing_exits_3(tmp_path, capsys, monkeypatch, spec, named):
    monkeypatch.setenv(CLIENT_ENV_VAR, spec)
    store = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", TAXONOMY, "--models", "glm", "--out", str(store)]
    assert main(argv) == EXIT_INPUT
    assert f"{CLIENT_ENV_VAR} names {named}, got {spec!r}" in capsys.readouterr().err
    assert not store.exists()


def test_env_client_shim_that_fails_to_import_is_not_hidden(tmp_path, monkeypatch):
    shim = tmp_path / "brokenshim"
    shim.mkdir()
    (shim / "__init__.py").write_text("")
    (shim / "client.py").write_text("import nosuchdependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv(CLIENT_ENV_VAR, "brokenshim.client:make")
    store = tmp_path / "store.jsonl"
    with pytest.raises(ModuleNotFoundError, match="nosuchdependency"):
        main(["annotate", "--taxonomy", TAXONOMY, "--models", "glm", "--out", str(store)])
    assert not store.exists()


# --- models side by side -------------------------------------------------------


class CallLog:
    """Every call of every model's client, and the requests in flight."""

    def __init__(self):
        self.cond = threading.Condition()
        self.calls = []  # the model of each call, in start order
        self.in_flight = Counter()
        self.peak = Counter()  # per model
        self.total_peak = 0
        self.failed = False  # a failing model has given its answer

    def wait(self, ready):
        """Wait, under ``cond``, until ``ready()``; a scheduler that never gets
        there costs the test a timeout, not a hang."""
        assert self.cond.wait_for(ready, timeout=5), "the models did not overlap"


class LoggedClient:
    """Answers one category per (model, occupation), whichever call it is.

    The samples of one occupation share one prompt, so answers keyed by the
    prompt alone are the same whatever the order the threads send them in.
    """

    def __init__(self, model_id, log, capability, hold=None, answer=None):
        self.model_id = model_id
        self.log = log
        self.capability = capability
        self.hold = hold  # called under log.cond once the call is counted
        self.answer = answer or (
            lambda title: f"Category: E{zlib.crc32(f'{model_id}|{title}'.encode()) % 4}"
        )

    def complete(self, prompt_text, decode_config):
        title = prompt_text.split("Occupation title: ")[1].split("\n")[0]
        log, model = self.log, self.model_id
        with log.cond:
            log.calls.append(model)
            log.in_flight[model] += 1
            log.peak[model] = max(log.peak[model], log.in_flight[model])
            log.total_peak = max(log.total_peak, sum(log.in_flight.values()))
            log.cond.notify_all()
            if self.hold:
                self.hold(self)
        try:
            return self.answer(title)
        finally:
            with log.cond:
                log.in_flight[model] -= 1
                log.cond.notify_all()


@pytest.fixture
def client_hook(monkeypatch):
    """Install ``make(model_id)`` as the live client factory of ``annotate``."""

    def install(make):
        monkeypatch.setitem(sys.modules, "loggedshim", types.SimpleNamespace(make=make))
        monkeypatch.setenv(CLIENT_ENV_VAR, "loggedshim:make")

    return install


def _annotate_live(store, *options):
    return main(
        ["annotate", "--taxonomy", TAXONOMY, "--models", "glm,gpt4,internlm", "--n-samples", "2",
         *options, "--out", str(store)]
    )


def _records(store):
    return [
        {k: v for k, v in json.loads(line).items() if k != "timestamp"}
        for line in store.read_text().splitlines()
    ]


def test_concurrent_models_run_side_by_side_each_within_in_flight(tmp_path, client_hook):
    def until_all_have_started(client):
        client.log.wait(lambda: len(client.log.peak) == 3)

    side_by_side = CallLog()
    client_hook(lambda m: LoggedClient(m, side_by_side, "concurrent", until_all_have_started))
    assert _annotate_live(tmp_path / "a.jsonl", "--in-flight", "2") == EXIT_OK
    assert max(side_by_side.peak.values()) <= 2
    assert side_by_side.total_peak > 2

    one_at_a_time = CallLog()
    client_hook(lambda m: LoggedClient(m, one_at_a_time, "serial"))
    assert _annotate_live(tmp_path / "b.jsonl", "--in-flight", "2") == EXIT_OK
    assert one_at_a_time.total_peak == 1
    assert len(side_by_side.calls) == len(one_at_a_time.calls) == 3 * 2 * 63
    assert _records(tmp_path / "a.jsonl") == _records(tmp_path / "b.jsonl")


def test_a_failed_model_stops_every_model(tmp_path, capsys, client_hook):
    log = CallLog()

    def until_the_others_are_busy(client):
        log.wait(lambda: log.in_flight["glm"] == log.in_flight["internlm"] == 2)
        log.failed = True
        log.cond.notify_all()

    def until_the_failure(client):
        log.wait(lambda: log.failed)

    def answer_after_the_failure(title):
        time.sleep(0.1)  # the failure stops the queues long before this returns
        return "E1"

    def make(model_id):
        if model_id == "gpt4":
            return LoggedClient(model_id, log, "concurrent", until_the_others_are_busy,
                                lambda title: "unclear")
        return LoggedClient(model_id, log, "concurrent", until_the_failure,
                            answer_after_the_failure)

    client_hook(make)
    store = tmp_path / "store.jsonl"
    code = _annotate_live(store, "--in-flight", "2", "--max-retries", "0")
    assert code == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert "model 'gpt4', occupation 2-01, sample " in err
    assert "of 2: failed after 1 attempts: no exposure category token" in err
    # The two requests of each other model in flight at the failure, and no more.
    assert Counter(model for model in log.calls if model != "gpt4") == {
        "glm": 2, "internlm": 2
    }
    assert not store.exists()


def test_a_factory_that_fails_for_one_model_costs_no_call(tmp_path, client_hook):
    log = CallLog()

    def make(model_id):
        if model_id == "internlm":
            raise RuntimeError("no credentials for internlm")
        return LoggedClient(model_id, log, "concurrent")

    client_hook(make)
    store = tmp_path / "store.jsonl"
    with pytest.raises(RuntimeError, match="no credentials"):
        _annotate_live(store, "--in-flight", "4")
    assert log.calls == []
    assert not store.exists()


def test_serial_mock_runs_its_models_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    calls = []
    complete = annotate.MockClient.complete

    def logged(self, prompt_text, decode_config):
        calls.append((decode_config["code"], decode_config["sample"], threading.get_ident(),
                      threading.active_count()))
        return complete(self, prompt_text, decode_config)

    monkeypatch.setattr(annotate.MockClient, "complete", logged)
    threads_before = threading.active_count()
    store = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", MOCK, "--models", "gpt4,glm,internlm",
            "--n-samples", "2", "--in-flight", "8", "--out", str(store)]
    assert main(argv) == EXIT_OK
    # Each model sends every request of its own before the next model starts.
    one_model = [(r["code"], i) for r in _records(store)[:63] for i in range(2)]
    assert [(code, sample) for code, sample, _, _ in calls] == one_model * 3
    assert {(thread, count) for _, _, thread, count in calls} == {
        (threading.get_ident(), threads_before)
    }
    assert [r["model_id"] for r in _records(store)[::63]] == ["gpt4", "glm", "internlm"]


def test_a_sample_that_exhausts_its_retries_names_model_code_and_sample(tmp_path, capsys):
    mock = _write_mock(tmp_path, {"kind": "cycle", "answers": ["unclear"]})
    store = tmp_path / "store.jsonl"
    argv = ["annotate", "--taxonomy", TAXONOMY, "--mock", mock, "--models", "internlm,glm",
            "--n-samples", "3", "--max-retries", "1", "--out", str(store)]
    assert main(argv) == EXIT_COMPUTE
    assert (
        "error: model 'internlm', occupation 2-01, sample 1 of 3: failed after 2 attempts: "
        "no exposure category token in response 'unclear'"
    ) in capsys.readouterr().err
    assert not store.exists()


def test_no_client_configured_is_config_error(tmp_path, monkeypatch):
    monkeypatch.delenv(CLIENT_ENV_VAR, raising=False)
    code = main(
        ["annotate", "--taxonomy", TAXONOMY, "--out", str(tmp_path / "s.jsonl")]
    )
    assert code == EXIT_CONFIG


# --- pipeline ----------------------------------------------------------------


def test_pipeline_meta_command(tmp_path):
    outdir = tmp_path / "run"
    assert (
        main(
            [
                "pipeline", "--scores", SCORES, "--taxonomy", TAXONOMY,
                "--intensity", INTENSITY, "--outdir", str(outdir),
            ]
        )
        == EXIT_OK
    )
    for name in (
        "score_table.csv", "aggregated_scores.csv", "industry_exposure.csv",
        "stats_summary.json", "manifest.json",
    ):
        assert (outdir / name).exists(), name
    stats = json.loads((outdir / "stats_summary.json").read_text())
    assert stats["columns"]["internlm"]["mean"] == pytest.approx(0.14, abs=0.01)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"scores", "aggregated", "industry", "stats"}


def test_pipeline_equals_chained_commands(tmp_path):
    outdir = tmp_path / "run"
    assert (
        main(
            [
                "pipeline", "--scores", SCORES, "--taxonomy", TAXONOMY,
                "--intensity", INTENSITY, "--outdir", str(outdir), "--full-precision",
            ]
        )
        == EXIT_OK
    )
    chain = tmp_path / "chain"
    scores = str(chain / "score_table.csv")
    for argv, name in (
        (["score", "--scores", SCORES], "score_table.csv"),
        (["aggregate", "--taxonomy", TAXONOMY, "--scores", scores], "aggregated_scores.csv"),
        (["industry", "--intensity", INTENSITY, "--scores", scores], "industry_exposure.csv"),
        (["stats", "--scores", scores], "stats_summary.json"),
    ):
        out = str(chain / name)
        assert main([*argv, "--full-precision", "--out", out]) == EXIT_OK
        assert (outdir / name).read_bytes() == (chain / name).read_bytes(), name
