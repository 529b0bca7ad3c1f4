"""The three workloads: their inputs and the commands one pass runs.

Each workload is a closed loop: one client runs one command at a time and
waits for it to finish. A command is ``(name, argv)``, where ``argv`` is what
follows ``python -m lmexposure.cli`` (or is passed to ``cli.main``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen

NAMES = ("demo_chain", "full_taxonomy_scale", "annotate_latency")
MODELS = "glm,gpt4,internlm"
N_SAMPLES = 8
ANNOTATE_SAMPLES = 63 * 3 * N_SAMPLES
CONTOUR_FULL = ("0:0.95:41", "0:1:41")


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict[str, Path]
    # Command whose wall time divides ``samples`` for samples_per_s, or None
    # for the whole pass, and the number of samples it produces in one pass.
    primary: str | None
    samples: int
    # Environment added for the commands of this workload.
    env: dict[str, str]

    def commands(self, fix: Path, out: Path) -> list[tuple[str, list[str]]]:
        return COMMANDS[self.name](fix, self.inputs, out)


def _demo_chain(fix: Path, inp: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    """The README demo commands on the bundled fixtures."""
    f = {name: str(fix / name) for name in (
        "taxonomy_medium63.csv", "demo_mock.json", "medium63_scores.csv",
        "demo_intensity15x63.csv", "industries15.csv", "demo_demographics.csv",
        "demo_scenario.json",
    )}
    def o(name: str) -> str:
        return str(out / name)

    return [
        ("annotate", ["annotate", "--taxonomy", f["taxonomy_medium63.csv"], "--mock",
                      f["demo_mock.json"], "--models", MODELS, "--n-samples", str(N_SAMPLES),
                      "--out", o("runs.jsonl")]),
        ("score_annotations", ["score", "--annotations", o("runs.jsonl"), "--taxonomy",
                               f["taxonomy_medium63.csv"], "--out", o("scores_runs.csv")]),
        ("score_table", ["score", "--scores", f["medium63_scores.csv"], "--out", o("scores.csv")]),
        ("aggregate", ["aggregate", "--taxonomy", f["taxonomy_medium63.csv"], "--scores",
                       o("scores.csv"), "--out", o("levels.csv")]),
        ("industry", ["industry", "--intensity", f["demo_intensity15x63.csv"], "--scores",
                      o("scores.csv"), "--industries", f["industries15.csv"],
                      "--out", o("industry.csv")]),
        ("demographic", ["demographic", "--demographics", f["demo_demographics.csv"],
                         "--industry-scores", o("industry.csv"), "--out", o("ages.csv")]),
        ("stats_summary", ["stats", "--scores", o("scores.csv"), "--out", o("summary.json")]),
        ("stats_pair", ["stats", "--scores", o("scores.csv"), "--pair", "glm", "internlm",
                        "--out", o("pair.json")]),
        ("stats_scatter", ["stats", "--scores", o("scores.csv"), "--outcomes",
                           str(inp["outcomes"]), "--plot-data", o("plot.csv"),
                           "--out", o("scatter.json")]),
        ("simulate", ["simulate", "--scenario", f["demo_scenario.json"], "--out", o("sim.json")]),
        ("contour", ["contour", "--scenario", f["demo_scenario.json"], "--out", o("contour.csv")]),
        ("validate", ["validate", "--taxonomy", f["taxonomy_medium63.csv"], "--scores",
                      o("scores.csv")]),
        ("pipeline", ["pipeline", "--scores", f["medium63_scores.csv"], "--taxonomy",
                      f["taxonomy_medium63.csv"], "--intensity", f["demo_intensity15x63.csv"],
                      "--outdir", o("run1")]),
    ]


def _full_taxonomy_scale(fix: Path, inp: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    def o(name: str) -> str:
        return str(out / name)

    return [
        ("score_table", ["score", "--scores", str(inp["scores"]), "--out", o("scores.csv")]),
        ("aggregate", ["aggregate", "--taxonomy", str(inp["taxonomy"]), "--scores",
                       o("scores.csv"), "--out", o("levels.csv")]),
        ("industry", ["industry", "--intensity", str(inp["intensity"]), "--scores",
                      o("scores.csv"), "--out", o("industry.csv")]),
        ("stats_summary", ["stats", "--scores", o("scores.csv"), "--out", o("summary.json")]),
        ("contour", ["contour", "--scenario", str(inp["scenario"]), "--delta-grid",
                     CONTOUR_FULL[0], "--ratio-grid", CONTOUR_FULL[1], "--out", o("contour.csv")]),
    ]


def _annotate_latency(fix: Path, inp: dict[str, Path], out: Path) -> list[tuple[str, list[str]]]:
    taxonomy = str(fix / "taxonomy_medium63.csv")
    return [
        ("annotate", ["annotate", "--taxonomy", taxonomy, "--models", MODELS, "--n-samples",
                      str(N_SAMPLES), "--in-flight", "8", "--out", str(out / "store.jsonl")]),
        ("score_annotations", ["score", "--annotations", str(out / "store.jsonl"), "--taxonomy",
                               taxonomy, "--out", str(out / "scores.csv")]),
    ]


COMMANDS = {
    "demo_chain": _demo_chain,
    "full_taxonomy_scale": _full_taxonomy_scale,
    "annotate_latency": _annotate_latency,
}


def set_up(name: str, seed: int, inputs_dir: Path) -> Workload:
    """Generate the workload's seeded inputs; none of this is timed."""
    if name == "demo_chain":
        outcomes = gen.make_outcome_file(seed, inputs_dir / "salary.csv")
        # The whole pass, not the mock `annotate` command alone: that command
        # is one of 13 and almost all start-up, too few samples for a median.
        return Workload(name, {"outcomes": outcomes}, None, ANNOTATE_SAMPLES, {})
    if name == "full_taxonomy_scale":
        inputs = gen.make_full_taxonomy_inputs(seed, inputs_dir)
        d, r = (int(spec.rsplit(":", 1)[1]) for spec in CONTOUR_FULL)
        # The whole pass, not the contour command alone: on a shared host the
        # contour's pure-Python compute drifts against the reference process,
        # while the pass's sum of five commands stays steady.
        return Workload(name, inputs, None, d * r, {})
    if name == "annotate_latency":
        env = {
            "LMEXPOSURE_CLIENT": "latency_shim:make_client",
            "PERFBENCH_SHIM_SEED": str(seed),
        }
        return Workload(name, {}, "annotate", ANNOTATE_SAMPLES, env)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
