"""End-to-end command-line runs against the bundled fixtures."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmexposure
from lmexposure import taxonomy
from lmexposure.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    CLIENT_ENV_VAR,
    build_parser,
    main,
)
from lmexposure.fixtures import fixture_path
from lmexposure.scores import read_score_table

TAXONOMY = str(fixture_path("taxonomy_medium63.csv"))
SCORES = str(fixture_path("medium63_scores.csv"))
INTENSITY = str(fixture_path("demo_intensity15x63.csv"))
DEMOGRAPHICS = str(fixture_path("demo_demographics.csv"))
SCENARIO = str(fixture_path("demo_scenario.json"))
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
    mock = _write_mock(tmp_path, {"kind": "fixed", "answer": "E1"})
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


@pytest.mark.parametrize("bad", ["abc", "nan", "1.5", "-0.1"])
def test_expert_score_must_be_a_finite_number(tmp_path, capsys, bad):
    store = tmp_path / "store.jsonl"
    mock = _write_mock(tmp_path, {"kind": "fixed", "answer": "E1"})
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
    ],
)
def test_contour_malformed_grid_is_input_error(tmp_path, capsys, grid):
    out = tmp_path / "contour.csv"
    code = main(["contour", "--scenario", SCENARIO, *grid, "--out", str(out)])
    assert code == EXIT_INPUT
    assert grid[1] in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["simulate", "contour"])
@pytest.mark.parametrize("rho", ["inf", "-inf", "nan"])
def test_non_finite_rho_is_input_error(tmp_path, capsys, command, rho):
    out = tmp_path / "out"
    code = main([command, "--scenario", SCENARIO, f"--rho={rho}", "--out", str(out)])
    assert code == EXIT_INPUT
    assert "--rho" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "contour"])
def test_rho_on_a_tabulated_law_is_config_error(tmp_path, capsys, command):
    law = {"kind": "tabulated", "points": [[0.0, 1.0], [1.0, 2.0]]}
    sector = {"id": "a", "share": 1.0, "exposure": 0.5, "delta": 0.1}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"law": law, "sectors": [sector]}))
    out = tmp_path / "out"
    argv = [command, "--scenario", str(scenario), "--out", str(out)]
    assert main([*argv, "--rho", "5"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--rho applies to an exponential law only" in err and str(scenario) in err
    assert not out.exists()
    assert main(argv) == EXIT_OK


@pytest.mark.parametrize("config", [{"rho": "abc", "sectors": []}, [1]])
def test_malformed_scenario_is_input_error(tmp_path, capsys, config):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(config))
    out = tmp_path / "sim.json"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert f"{scenario}: " in capsys.readouterr().err
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
        {"kind": "fixed"},
        {"kind": "cycle", "answers": 5},
        {"kind": "scripted", "answers": {"2-01": "E1"}},
        {"kind": "scripted", "answers": {"9-99": ["E1"]}},
        ["E1"],
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


def test_scripted_mock_with_duplicate_titles_is_input_error(tmp_path, capsys):
    taxonomy = tmp_path / "taxonomy.csv"
    taxonomy.write_text(
        "code,title,description,excluded\n2,Pros,top,false\n"
        "2-01,Clerks,Files records.,false\n2-02,Clerks,Types letters.,false\n"
    )
    mock = _write_mock(tmp_path, {"kind": "scripted", "answers": {"2-01": ["E1"], "2-02": ["E0"]}})
    assert main(["validate", "--taxonomy", str(taxonomy), "--mock", mock]) == EXIT_INPUT
    assert f"mock: {mock}: scripted codes '2-01' and '2-02' share the title 'Clerks'" in (
        capsys.readouterr().out
    )
    out = tmp_path / "store.jsonl"
    code = main(["annotate", "--taxonomy", str(taxonomy), "--mock", mock, "--out", str(out)])
    assert code == EXIT_INPUT
    assert not out.exists()


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


def test_validate_reports_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["validate", "--mock", str(bad)]) == EXIT_INPUT
    assert f"mock: {bad}: " in capsys.readouterr().out
    # The taxonomy is also read once up front, to resolve scripted mock answers.
    assert main(["validate", "--taxonomy", str(bad), "--mock", MOCK]) == EXIT_INPUT
    assert f"taxonomy: {bad}: " in capsys.readouterr().out


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
    base += ["lmexposure.scores", "lmexposure.taxonomy"]
    assert at_import == f"{base} False"
    assert "lmexposure.labor_stats" in after_stats
    assert "lmexposure.annotate" not in after_stats
    assert "lmexposure.econ_model" not in after_stats


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
        ("--models", ",", "--models"),
        ("--models", "glm,gpt5", "gpt5"),
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
        "from lmexposure.annotate import CycleMockClient\n"
        "def make(model_id):\n"
        "    return CycleMockClient(['E2'])\n"
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
