"""Output checks: golden digests at the default seed, invariants at any seed.

A command passes when it exited 0, every output it names exists, every
digest recorded in its manifest matches a file it wrote, and its outputs pass
the checks below. Stdlib only: the checker never imports the package.

Digests are SHA-256 of the file bytes with two exceptions:

- ``p_value`` numbers in JSON reports are normalised to 10 significant
  digits, because p-values are exported unrounded and a different but
  equally exact t-tail evaluation may move their last digits;
- the live-client annotation store (``store.jsonl``) is digested as its
  (model, code, samples, raw responses) records, because its timestamps
  come from the wall clock.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import gen
import workloads

POINTS = {"E0": 0.0, "E1": 1.0, "E2": 0.5, "E3": 0.5}
MODELS = ("glm", "gpt4", "internlm")
SCORE_COLUMNS = ("expert", "glm", "gpt4", "internlm", "ensemble")
# Half a unit in the fourth decimal, plus float noise.
TOL4 = 5.1e-5

_P_VALUE_RE = re.compile(rb'("p_value": )(-?[0-9][0-9.eE+-]*)')
_TOKEN_RE = re.compile(r"(?<![A-Za-z0-9])[eE][0-3](?![A-Za-z0-9])")
OUTPUT_FLAGS = ("--out", "--plot-data", "--outdir")


class CheckFailed(Exception):
    """An output differs from what the workload must produce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def command_outputs(argv: list[str]) -> list[Path]:
    """Files a command writes, read from its own arguments (manifests excluded)."""
    paths = []
    for flag, value in zip(argv, argv[1:]):
        if flag not in OUTPUT_FLAGS:
            continue
        path = Path(value)
        if flag == "--outdir":
            paths.extend(sorted(p for p in path.rglob("*") if p.is_file() and p.name != "manifest.json"))
        else:
            paths.append(path)
    return paths


def _manifest_paths(argv: list[str]) -> list[Path]:
    """Where the command's manifest can be: beside any output, or in its outdir."""
    paths = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--outdir":
            paths.append(Path(value) / "manifest.json")
        elif flag in OUTPUT_FLAGS:
            paths.append(Path(value + ".manifest.json"))
    return paths


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def store_records(path: Path) -> list[tuple[str, str, list[str], list[str]]]:
    records = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            r = json.loads(line)
            records.append((r["model_id"], r["code"], r["samples"], r["raw_responses"]))
    return records


def output_digest(path: Path) -> str:
    if path.name == "store.jsonl":
        return sha256_bytes(json.dumps(store_records(path)).encode("utf-8"))
    data = path.read_bytes()
    if path.suffix == ".json":
        data = _P_VALUE_RE.sub(lambda m: m.group(1) + b"%.10g" % float(m.group(2)), data)
    return sha256_bytes(data)


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float, tol: float = TOL4) -> bool:
    return abs(a - b) <= tol


# --- invariants, one function per (workload, command) ------------------------


def _check_scores_ensemble(path: Path, expected_rows: int | None = None) -> list[dict[str, str]]:
    rows = _read_rows(path)
    if expected_rows is not None:
        _require(len(rows) == expected_rows, f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    for row in rows:
        models = [float(row[m]) for m in MODELS]
        _require(
            _close(float(row["ensemble"]), math.fsum(models) / 3),
            f"{path.name}: ensemble of {row['code']} is not the mean of the model columns",
        )
    return rows


def _check_scatter(ctx: "Context", out: Path) -> None:
    report = json.loads((out / "scatter.json").read_text(encoding="utf-8"))
    scores = {r["code"]: r["ensemble"] for r in _read_rows(out / "scores.csv")}
    outcomes = {r["code"] for r in _read_rows(ctx.inputs["outcomes"])}
    n = len(set(scores) & outcomes)
    _require(report["kind"] == "scatter" and report["n"] == n == len(report["rows"]),
             f"scatter.json: n={report['n']}, expected {n} common codes")
    _require(abs(report["corr"]["r"]) <= 1 and 0 <= report["corr"]["p_value"] <= 1,
             "scatter.json: correlation out of range")
    plot = (out / "plot.csv").read_text(encoding="utf-8").splitlines()
    _require(plot[0] == "x,y,label" and len(plot) == n + 1, "plot.csv: wrong row count")
    for line in plot[1:]:
        x, _, code = line.split(",")
        _require(x == scores[code], f"plot.csv: exposure of {code} is not its ensemble score")


def _check_full_score(ctx: "Context", out: Path) -> None:
    _check_scores_ensemble(out / "scores.csv", gen.FULL_LEAVES)


def _check_full_aggregate(ctx: "Context", out: Path) -> None:
    levels = {r["code"]: r["score"] for r in _read_rows(out / "levels.csv")}
    taxonomy = _read_rows(ctx.inputs["taxonomy"])
    excluded_large = {r["code"] for r in taxonomy if "-" not in r["code"] and r["excluded"] == "true"}
    included = [r["code"] for r in taxonomy if r["code"].split("-")[0] not in excluded_large]
    _require(sorted(levels) == sorted(included), "levels.csv: node set differs from the taxonomy")
    scores = {r["code"]: r["ensemble"] for r in _read_rows(out / "scores.csv")}
    children: dict[str, list[str]] = {}
    for code in included:
        if "-" in code:
            children.setdefault(code.rsplit("-", 1)[0], []).append(code)
    for code, score in levels.items():
        if code not in children:
            _require(score == scores[code], f"levels.csv: leaf {code} differs from its score")
            continue
        values = [float(levels[c]) for c in children[code]]
        _require(min(values) - TOL4 <= float(score) <= max(values) + TOL4,
                 f"levels.csv: {code} lies outside its children's range")


def _check_full_industry(ctx: "Context", out: Path) -> None:
    scores = {r["code"]: float(r["ensemble"]) for r in _read_rows(out / "scores.csv")}
    industry = {r["industry_id"]: float(r["score"]) for r in _read_rows(out / "industry.csv")}
    with open(ctx.inputs["intensity"], encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        codes = next(reader)[1:]
        rows = list(reader)
    _require(sorted(industry) == sorted(r[0] for r in rows), "industry.csv: industry set differs")
    for row in rows:
        used = [scores[c] for c, w in zip(codes, row[1:]) if float(w) > 0]
        _require(min(used) - TOL4 <= industry[row[0]] <= max(used) + TOL4,
                 f"industry.csv: industry {row[0]} lies outside its occupations' range")


def _check_summary(ctx: "Context", out: Path) -> None:
    report = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    _require(report["kind"] == "summary", "summary.json: wrong kind")
    _require(list(report["columns"]) == sorted(SCORE_COLUMNS) and all(
        c["count"] == gen.FULL_LEAVES for c in report["columns"].values()),
        "summary.json: wrong columns or counts")
    _require(len(report["correlations"]) == 10 and all(
        abs(c["r"]) <= 1 and 0 <= c["p_value"] <= 1 for c in report["correlations"]),
        "summary.json: correlation out of range")


def _grid(spec: str) -> list[float]:
    lo_s, hi_s, n_s = spec.split(":")
    lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _check_full_contour(ctx: "Context", out: Path) -> None:
    """Every cell against an independent prefix-sum evaluation."""
    scenario = json.loads(ctx.inputs["scenario"].read_text(encoding="utf-8"))
    rho = float(scenario["rho"])
    sectors = sorted(scenario["sectors"], key=lambda s: s["exposure"], reverse=True)
    n = len(sectors)
    a, b = [0.0], [0.0]
    for s in sectors:
        a.append(a[-1] + s["share"] * math.exp(s["exposure"] / rho))
        b.append(b[-1] + s["share"])
    deltas, ratios = _grid(workloads.CONTOUR_FULL[0]), _grid(workloads.CONTOUR_FULL[1])
    lines = (out / "contour.csv").read_text(encoding="utf-8").splitlines()
    _require(len(lines) == len(deltas) + 1, "contour.csv: wrong row count")
    _require(lines[0] == "delta\\ratio," + ",".join(f"{r:.4f}" for r in ratios),
             "contour.csv: wrong header")
    ks = [math.floor(r * n) for r in ratios]
    for delta, line in zip(deltas, lines[1:]):
        cells = line.split(",")
        _require(cells[0] == f"{delta:.4f}" and len(cells) == len(ratios) + 1,
                 "contour.csv: malformed row")
        _require(cells[1] == "1.0000", "contour.csv: ratio-0 column is not exactly 1")
        for k, cell in zip(ks, cells[1:]):
            expected = 1.0 + (1.0 - delta) * a[k] - b[k]
            _require(_close(float(cell), expected), f"contour.csv: cell ({delta}, {k}) is wrong")


def _titles(taxonomy: Path) -> dict[str, str]:
    return {r["code"]: r["title"] for r in _read_rows(taxonomy)}


def _check_store(ctx: "Context", out: Path) -> None:
    records = store_records(out / "store.jsonl")
    titles = _titles(ctx.fix / "taxonomy_medium63.csv")
    keys = [(model, code) for model, code, _, _ in records]
    _require(len(keys) == len(set(keys)) == 3 * 63, f"store.jsonl: {len(keys)} records, expected 189")
    for model, code, samples, raws in records:
        _require(len(samples) == len(raws) == 8, f"store.jsonl: {model}/{code} lacks 8 samples")
        for sample, raw in zip(samples, raws):
            tokens = {t.upper() for t in _TOKEN_RE.findall(raw)}
            _require(tokens == {sample}, f"store.jsonl: {model}/{code} sample does not match its response")
        if ctx.shim_answers is not None:
            _require(set(raws) == {ctx.shim_answers.get(f"{model}|{titles[code]}")},
                     f"store.jsonl: {model}/{code} holds responses the client never gave")


def _check_store_scores(ctx: "Context", out: Path) -> None:
    rows = {r["code"]: r for r in _check_scores_ensemble(out / "scores.csv", 63)}
    for model, code, samples, _ in store_records(out / "store.jsonl"):
        expected = math.fsum(POINTS[s] for s in samples) / len(samples)
        _require(rows[code][model] == f"{expected:.4f}", f"scores.csv: {model}/{code} is not the sample mean")


INVARIANTS = {
    ("demo_chain", "stats_scatter"): _check_scatter,
    ("full_taxonomy_scale", "score_table"): _check_full_score,
    ("full_taxonomy_scale", "aggregate"): _check_full_aggregate,
    ("full_taxonomy_scale", "industry"): _check_full_industry,
    ("full_taxonomy_scale", "stats_summary"): _check_summary,
    ("full_taxonomy_scale", "contour"): _check_full_contour,
    ("annotate_latency", "annotate"): _check_store,
    ("annotate_latency", "score_annotations"): _check_store_scores,
}

# demo_chain outputs that depend on the seed (through the outcome file);
# every other demo_chain output is compared with its golden digest at any seed.
SEEDED_DEMO_OUTPUTS = {"scatter.json", "plot.csv"}


class Context:
    """What the checks of one run need to know."""

    def __init__(self, workload, fix: Path, seed: int, golden: dict | None):
        self.workload = workload.name
        self.inputs = workload.inputs
        self.fix = fix
        self.seed = seed
        self.golden = golden
        self.shim_answers: dict[str, str] | None = None

    def golden_files(self) -> list[str]:
        return list(self.golden["digests"].get(self.workload, {})) if self.golden else []

    def golden_digest(self, rel: str) -> str | None:
        if not self.golden:
            return None
        digests = self.golden["digests"].get(self.workload, {})
        if self.seed == self.golden["seed"]:
            return digests.get(rel)
        if self.workload == "demo_chain" and Path(rel).name not in SEEDED_DEMO_OUTPUTS:
            return digests.get(rel)
        return None


def check_command(ctx: Context, name: str, argv: list[str], out: Path) -> list[str]:
    """Problems with one finished command's outputs; empty when it passed."""
    problems = []
    outputs = command_outputs(argv)
    missing = [p.name for p in outputs if not p.is_file()]
    if missing:
        return [f"{name}: missing output {missing}"]
    actual = {hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    manifests = [m for m in _manifest_paths(argv) if m.is_file()]
    if _manifest_paths(argv) and not manifests:
        problems.append(f"{name}: no manifest")
    for manifest in manifests:
        try:
            recorded = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{name}: unreadable manifest {manifest.name}: {exc}")
            continue
        if not set(recorded.values()) <= actual:
            problems.append(f"{name}: manifest digests do not match the outputs")
    for flag, value in zip(argv, argv[1:]):
        if flag == "--outdir":
            prefix = Path(value).relative_to(out).as_posix() + "/"
            absent = [rel for rel in ctx.golden_files() if rel.startswith(prefix) and not (out / rel).is_file()]
            if absent:
                problems.append(f"{name}: missing output {absent}")
    for path in outputs:
        rel = path.relative_to(out).as_posix()
        expected = ctx.golden_digest(rel)
        if expected is not None and output_digest(path) != expected:
            problems.append(f"{name}: {rel} differs from its golden digest")
    check = INVARIANTS.get((ctx.workload, name))
    if check is not None:
        try:
            check(ctx, out)
        except CheckFailed as exc:
            problems.append(f"{name}: {exc}")
        except Exception as exc:  # an output the checks cannot even parse is a wrong output
            problems.append(f"{name}: unreadable output: {exc!r}")
    return problems


def golden_digests(commands: list[tuple[str, list[str]]], out: Path) -> dict[str, str]:
    return {
        path.relative_to(out).as_posix(): output_digest(path)
        for _, argv in commands
        for path in command_outputs(argv)
    }
