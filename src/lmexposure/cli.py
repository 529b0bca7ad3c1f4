"""Command-line front end wiring the pipeline stages to files.

Subcommands: annotate, score, aggregate, industry, demographic, stats,
simulate, contour, validate, and a pipeline meta-command chaining
score -> aggregate -> industry -> stats. All outputs are written
atomically (temp file plus rename) and every run leaves a machine-readable
manifest with parameter values and content digests next to its primary
output. Exit codes: 0 success, 2 configuration problem, 3 input-format
problem, 4 computation problem.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# Only what every command needs is imported here; scores loads taxonomy
# anyway. Each handler imports the stage modules it runs, so a command does
# not pay interpreter start-up for the stages it never calls.
from . import scores as sc
from . import taxonomy as tax
from .errors import ComputationError, InputFormatError, LmExposureError, open_text
from .runio import atomic_write_text, dump_json, write_manifest

if TYPE_CHECKING:
    from . import aggregate as agg
    from . import annotate as ann
    from . import econ_model as econ
    from . import labor_stats as lstats

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_COMPUTE = 4

CLIENT_ENV_VAR = "LMEXPOSURE_CLIENT"


class ConfigError(LmExposureError):
    """Command-line options that cannot apply to the inputs given: exit 2."""


class RunConfig:
    """What a run consumed and produced, for the manifest."""

    def __init__(
        self,
        command: str,
        inputs: dict[str, Path] | None = None,
        outputs: dict[str, Path] | None = None,
        parameters: dict[str, object] | None = None,
        manifest: Path | None = None,  # defaults to ``<primary output>.manifest.json``
    ) -> None:
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.outputs = {} if outputs is None else outputs
        self.parameters = {} if parameters is None else parameters
        self.manifest = manifest

    def add_input(self, role: str, path: str | Path) -> Path:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"input file not found: {p}")
        self.inputs[role] = p
        return p

    def write_manifest(self) -> None:
        primary = next(iter(self.outputs.values()))
        manifest = self.manifest or primary.with_name(primary.name + ".manifest.json")
        write_manifest(manifest, self.command, self.parameters, self.inputs, self.outputs)


def _emit(config: RunConfig, outputs: dict[str, tuple[Path, str]]) -> None:
    """Atomically write all outputs, then the manifest."""
    for role, (path, text) in outputs.items():
        atomic_write_text(path, text)
        config.outputs[role] = path
    config.write_manifest()


def _read_scores_column(path: str | Path, column: str) -> dict[str, float]:
    table = sc.read_score_table(path)
    return table.column(column)


# --- annotate ----------------------------------------------------------------


def _load_live_client(spec: str, model_id: str) -> ann.ClassifierClient:
    """Import ``module:factory`` named by the environment and call it."""
    module_name, _, factory_name = spec.partition(":")
    if not module_name or not factory_name:
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} must look like 'package.module:factory', got {spec!r}"
        )
    module = importlib.import_module(module_name)
    factory = getattr(module, factory_name)
    return factory(model_id)


def cmd_annotate(args: argparse.Namespace) -> int:
    from . import annotate as ann

    out = Path(args.out)
    live_spec = os.environ.get(CLIENT_ENV_VAR)
    model_ids = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = [m for m in model_ids if m not in sc.MODEL_COLUMNS]
    # Checked before any client is built, so a bad option costs no annotation.
    for failed, message in (
        (out.exists(), f"annotation store {out} already exists; pass a new --out"),
        (not (args.mock or live_spec), f"no classifier client: pass --mock or set {CLIENT_ENV_VAR}"),
        (args.n_samples < 1, f"--n-samples must be at least 1, got {args.n_samples}"),
        (args.max_retries < 0, f"--max-retries must be at least 0, got {args.max_retries}"),
        (not model_ids, f"--models names no model: {args.models!r}"),
        (unknown, f"--models {unknown} have no score column; use {list(sc.MODEL_COLUMNS)}"),
    ):
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return EXIT_CONFIG
    config = RunConfig(command="annotate")
    taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
    rubric = ann.DEFAULT_RUBRIC
    if args.rubric:
        with open_text(config.add_input("rubric", args.rubric)) as handle:
            rubric = handle.read()
    if args.mock:
        config.add_input("mock", args.mock)

    if args.level == "leaf":
        nodes = taxonomy.leaves()
    else:
        nodes = taxonomy.nodes_at_level(tax.Level[args.level.upper()])
    skipped = [n.code.raw for n in nodes if not n.description.strip()]
    if skipped:
        print(
            f"skipping {len(skipped)} occupations with empty descriptions",
            file=sys.stderr,
        )
    nodes = [n for n in nodes if n.description.strip()]
    if not nodes:
        raise ComputationError("no annotatable occupations at the requested level")

    runs: list[ann.AnnotationRun] = []
    for model_id in model_ids:
        if args.mock:
            client = ann.load_mock_client(args.mock, taxonomy)
        else:
            client = _load_live_client(live_spec, model_id)
        runs.extend(
            ann.annotate_nodes(
                client,
                nodes,
                model_id=model_id,
                rubric=rubric,
                n_samples=args.n_samples,
                max_retries=args.max_retries,
                in_flight=args.in_flight,
            )
        )

    out.parent.mkdir(parents=True, exist_ok=True)
    clock = ann.LogicalClock() if args.mock else ann.utc_now_iso
    store = ann.AnnotationStore(path=out, clock=clock)
    store.append(runs)
    config.outputs["annotations"] = out
    config.parameters = {
        "models": model_ids,
        "n_samples": args.n_samples,
        "max_retries": args.max_retries,
        "level": args.level,
        "client": "mock" if args.mock else live_spec,
    }
    config.write_manifest()
    return EXIT_OK


# --- score -------------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    config = RunConfig(command="score")
    config.parameters = {"full_precision": args.full_precision}

    if args.annotations:
        from . import annotate as ann

        runs = ann.read_annotation_store(config.add_input("annotations", args.annotations))
        titles = {}
        if args.taxonomy:
            taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
            titles = {code: node.title for code, node in taxonomy.index.items()}
        table = sc.ScoreTable(rows=sc.records_from_runs(runs, titles))
        if args.expert:
            panel = sc.read_expert_panel(config.add_input("expert", args.expert))
            for row in table.rows:
                if row.code in panel.scores:
                    row.scores["expert"] = sc.expert_mean(panel, row.code)
    else:
        table = sc.recompute_ensemble(
            sc.read_score_table(config.add_input("scores", args.scores))
        )

    _emit(
        config,
        {"scores": (Path(args.out), sc.render_score_table(table, args.full_precision))},
    )
    return EXIT_OK


# --- aggregate ---------------------------------------------------------------


def _aggregated_csv(
    taxonomy: tax.Taxonomy, leaf_scores: dict[str, float], full_precision: bool
) -> str:
    rolled = tax.aggregate_up(taxonomy, leaf_scores)
    lines = ["code,title,level,score"]
    for node in taxonomy.walk():
        raw = node.code.raw
        if raw in rolled:
            title = '"' + node.title.replace('"', '""') + '"'
            lines.append(
                f"{raw},{title},{node.code.level.name.lower()},"
                f"{sc.format_score(rolled[raw], full_precision)}"
            )
    return "\n".join(lines) + "\n"


def cmd_aggregate(args: argparse.Namespace) -> int:
    config = RunConfig(command="aggregate")
    config.parameters = {"column": args.column, "full_precision": args.full_precision}
    taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
    leaf_scores = _read_scores_column(config.add_input("scores", args.scores), args.column)
    text = _aggregated_csv(taxonomy, leaf_scores, args.full_precision)
    _emit(config, {"aggregated": (Path(args.out), text)})
    return EXIT_OK


# --- industry / demographic ----------------------------------------------------


def _industry_csv(
    matrix: agg.IntensityMatrix,
    r_occ: dict[str, float],
    full_precision: bool,
    names: dict[str, str] | None = None,
) -> str:
    from . import aggregate as agg

    result = agg.industry_exposure(matrix, r_occ)
    lines = ["industry_id,name,score" if names else "industry_id,score"]
    for ind in matrix.industries:
        cells = [ind]
        if names:
            cells.append('"' + names.get(ind, "").replace('"', '""') + '"')
        cells.append(sc.format_score(result[ind], full_precision))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_industry(args: argparse.Namespace) -> int:
    from . import aggregate as agg

    config = RunConfig(command="industry")
    config.parameters = {"column": args.column, "full_precision": args.full_precision}
    matrix = agg.IntensityMatrix.from_csv(config.add_input("intensity", args.intensity))
    r_occ = _read_scores_column(config.add_input("scores", args.scores), args.column)
    names = None
    if args.industries:
        names = agg.read_industry_names(config.add_input("industries", args.industries))
    text = _industry_csv(matrix, r_occ, args.full_precision, names)
    _emit(config, {"industry": (Path(args.out), text)})
    return EXIT_OK


def cmd_demographic(args: argparse.Namespace) -> int:
    from . import aggregate as agg

    config = RunConfig(command="demographic")
    config.parameters = {"full_precision": args.full_precision}
    shares = agg.DemographicShares.from_csv(
        config.add_input("demographics", args.demographics)
    )
    r_ind = agg.read_industry_scores(config.add_input("industry_scores", args.industry_scores))
    result = agg.demographic_exposure(shares, r_ind)
    lines = ["age_group,score"]
    for group in shares.age_groups:
        lines.append(f"{group},{sc.format_score(result[group], args.full_precision)}")
    _emit(config, {"demographic": (Path(args.out), "\n".join(lines) + "\n")})
    return EXIT_OK


# --- stats -------------------------------------------------------------------


def _corr_payload(result: lstats.CorrResult) -> dict[str, object]:
    return {
        "r": result.r,
        "n": result.n,
        "p_value": result.p_value,
        "stars": result.stars,
    }


def _summary_payload(table: sc.ScoreTable) -> dict[str, object]:
    """Per-column count/mean/std and every pairwise correlation."""
    from . import labor_stats as lstats

    columns = {name: table.column(name) for name in sc.SCORE_COLUMNS if table.column(name)}
    summary = {
        name: {
            "count": (entry := lstats.summarize(list(values.values()))).count,
            "mean": entry.mean,
            "std": entry.std,
        }
        for name, values in columns.items()
    }
    panel = lstats.correlation_panel(columns)
    names = list(columns)
    correlations = [
        {"a": a, "b": b, **_corr_payload(panel[(a, b)])}
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    return {"kind": "summary", "columns": summary, "correlations": correlations}


def cmd_stats(args: argparse.Namespace) -> int:
    from . import labor_stats as lstats

    config = RunConfig(command="stats")
    table = sc.read_score_table(config.add_input("scores", args.scores))
    plot: dict[str, tuple[Path, str]] = {}

    if args.outcomes:
        outcome = lstats.read_outcome_csv(config.add_input("outcomes", args.outcomes))
        exposure = table.column(args.column)
        report = lstats.scatter_report(exposure, outcome, table.titles())
        payload = {
            "kind": "scatter",
            "column": args.column,
            "outcome_kind": outcome.kind.value,
            "n": report.n,
            "corr": _corr_payload(report.corr),
            "slope": report.slope,
            "intercept": report.intercept,
            "rows": [
                {"code": code, "title": title, "exposure": x, "outcome": y}
                for code, title, x, y in report.rows
            ],
        }
        config.parameters = {"mode": "scatter", "column": args.column}
        if args.plot_data:
            triples = ["x,y,label"]
            for code, _, x, y in report.rows:
                x_text = sc.format_score(x, args.full_precision)
                triples.append(f"{x_text},{sc.format_score(y, args.full_precision)},{code}")
            plot["plot_data"] = (Path(args.plot_data), "\n".join(triples) + "\n")
    elif args.pair:
        a, b = args.pair
        col_a = table.column(a)
        col_b = table.column(b)
        common = sorted(set(col_a) & set(col_b))
        result = lstats.pearson([col_a[c] for c in common], [col_b[c] for c in common])
        payload = {"kind": "pair", "a": a, "b": b, **_corr_payload(result)}
        config.parameters = {"mode": "pair", "a": a, "b": b}
    else:
        payload = _summary_payload(table)
        config.parameters = {"mode": "summary"}

    # The report is the primary output: the manifest is named after it.
    report_out = (Path(args.out), dump_json(payload, args.full_precision))
    _emit(config, {"report": report_out, **plot})
    return EXIT_OK


# --- simulate / contour --------------------------------------------------------


def _scenario_inputs(args: argparse.Namespace, config: RunConfig):
    from . import econ_model as econ

    if args.rho is not None and not math.isfinite(args.rho):
        raise InputFormatError(f"--rho must be a finite number, got {args.rho}")
    r_occ = None
    if args.scores:
        r_occ = _read_scores_column(config.add_input("scores", args.scores), args.column)
    sectors, law = econ.load_scenario(
        config.add_input("scenario", args.scenario), r_occ=r_occ, rho_override=args.rho
    )
    if args.rho is not None and not isinstance(law, econ.ExponentialGrowth):
        raise ConfigError(
            f"--rho applies to an exponential law only; "
            f"scenario {args.scenario} has a tabulated law"
        )
    return sectors, law


def _law_payload(law: econ.GrowthLaw) -> dict[str, object]:
    from . import econ_model as econ

    if isinstance(law, econ.ExponentialGrowth):
        return {"kind": "exponential", "rho": law.rho}
    return {"kind": "tabulated", "points": [list(p) for p in law.points]}


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import econ_model as econ

    config = RunConfig(command="simulate")
    sectors, law = _scenario_inputs(args, config)
    scenario = econ.AdoptionScenario.solve(sectors, law)
    rows = []
    for sector, decision in zip(scenario.sectors, scenario.decisions):
        row = {
            "id": sector.id,
            "share": sector.output_share,
            "delta": sector.damage_ratio,
            "exposure": sector.exposure,
            "growth_factor": econ.growth_factor(law, sector.exposure),
            "decision": decision,
            "damage": econ.sector_damage(sector, law, decision),
        }
        if isinstance(law, econ.ExponentialGrowth):
            row["threshold"] = econ.adoption_threshold(sector.damage_ratio, law)
        rows.append(row)
    payload = {
        "kind": "simulate",
        "law": _law_payload(law),
        "aggregate_growth": scenario.aggregate_growth,
        "adopting_sectors": sum(scenario.decisions),
        "sectors": rows,
    }
    config.parameters = {"rho": args.rho}
    _emit(config, {"report": (Path(args.out), dump_json(payload, args.full_precision))})
    return EXIT_OK


def _parse_grid(spec: str | None, default: list[float]) -> list[float]:
    if spec is None:
        return default
    try:
        if ":" in spec:
            lo_s, hi_s, n_s = spec.split(":")
            values, n = [float(lo_s), float(hi_s)], int(n_s)
        else:
            values, n = [float(v) for v in spec.split(",")], None
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise InputFormatError(
            f"grid must be lo:hi:n or a comma-separated list of numbers, got {spec!r}"
        ) from None
    if n is None:
        return values
    if n < 1:
        raise InputFormatError(f"grid needs at least one point, got {n}")
    lo, hi = values
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cmd_contour(args: argparse.Namespace) -> int:
    from . import econ_model as econ

    config = RunConfig(command="contour")
    sectors, law = _scenario_inputs(args, config)
    sectors = sorted(sectors, key=lambda s: s.exposure, reverse=True)
    delta_grid = _parse_grid(args.delta_grid, econ.default_delta_grid())
    ratio_grid = _parse_grid(args.ratio_grid, econ.default_ratio_grid())
    grid = econ.contour_grid(sectors, law, delta_grid, ratio_grid)

    header = "delta\\ratio," + ",".join(
        sc.format_score(r, args.full_precision) for r in grid.ratio_grid
    )
    lines = [header]
    for delta, row in zip(grid.delta_grid, grid.values):
        lines.append(
            sc.format_score(delta, args.full_precision)
            + ","
            + ",".join(sc.format_score(v, args.full_precision) for v in row)
        )
    config.parameters = {
        "rho": args.rho,
        "delta_points": len(delta_grid),
        "ratio_points": len(ratio_grid),
    }
    _emit(config, {"contour": (Path(args.out), "\n".join(lines) + "\n")})
    return EXIT_OK


# --- validate ----------------------------------------------------------------


def validate_inputs(args: argparse.Namespace) -> list[str]:
    """Dry-run schema and invariant checks; diagnostics, never exceptions."""
    from . import aggregate as agg
    from . import annotate as ann
    from . import econ_model as econ
    from . import labor_stats as lstats

    diagnostics: list[str] = []

    def _check(label: str, path: str | None, loader):
        """What ``loader`` read from ``path``, or None with a diagnostic."""
        if path is None:
            return None
        if not Path(path).is_file():
            diagnostics.append(f"{label}: file not found: {path}")
            return None
        try:
            return loader(path)
        except LmExposureError as exc:
            diagnostics.append(f"{label}: {exc}")
            return None

    taxonomy = _check("taxonomy", args.taxonomy, tax.load_taxonomy)
    _check("scores", args.scores, sc.read_score_table)
    _check("expert", args.expert, sc.read_expert_panel)
    _check("intensity", args.intensity, agg.IntensityMatrix.from_csv)
    _check("demographics", args.demographics, agg.DemographicShares.from_csv)
    _check("outcomes", args.outcomes, lstats.read_outcome_csv)
    _check("scenario", args.scenario, econ.load_scenario)
    _check("annotations", args.annotations, ann.read_annotation_store)
    _check("mock", args.mock, lambda p: ann.load_mock_client(p, taxonomy))
    return diagnostics


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = validate_inputs(args)
    for line in diagnostics:
        print(line)
    return EXIT_INPUT if diagnostics else EXIT_OK


# --- pipeline ----------------------------------------------------------------


def cmd_pipeline(args: argparse.Namespace) -> int:
    """score -> aggregate -> industry -> stats against one fixture set.

    Each stage gets the previous one's unrounded in-memory table, so with
    ``--full-precision`` the outputs equal those of the chained commands.
    """
    outdir = Path(args.outdir)
    config = RunConfig(command="pipeline", manifest=outdir / "manifest.json")
    config.parameters = {"column": args.column, "full_precision": args.full_precision}
    from . import aggregate as agg

    full = args.full_precision
    table = sc.recompute_ensemble(sc.read_score_table(config.add_input("scores", args.scores)))
    taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
    matrix = agg.IntensityMatrix.from_csv(config.add_input("intensity", args.intensity))
    leaf_scores = table.column(args.column)
    outputs = {
        "scores": ("score_table.csv", sc.render_score_table(table, full)),
        "aggregated": ("aggregated_scores.csv", _aggregated_csv(taxonomy, leaf_scores, full)),
        "industry": ("industry_exposure.csv", _industry_csv(matrix, leaf_scores, full)),
        "stats": ("stats_summary.json", dump_json(_summary_payload(table), full)),
    }
    _emit(config, {role: (outdir / name, text) for role, (name, text) in outputs.items()})
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument(
        "--full-precision",
        action="store_true",
        help="disable the default 4-decimal presentation rounding",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmexposure",
        description=(
            "Occupational exposure pipeline: annotation, scoring, taxonomy and "
            "industry aggregation, labor-market statistics, and the "
            "multi-sector adoption model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="annotate occupations through a classifier client")
    p.add_argument("--taxonomy", required=True, help="taxonomy CSV (code,title,description,excluded)")
    p.add_argument("--mock", help=f"mock client JSON config; omit to use {CLIENT_ENV_VAR}")
    p.add_argument("--models", default="glm,gpt4,internlm", help="comma-separated model ids")
    p.add_argument("--n-samples", type=int, default=8, help="samples per occupation (default 8)")
    p.add_argument("--max-retries", type=int, default=2, help="retries per sample (default 2)")
    p.add_argument(
        "--in-flight",
        type=int,
        default=1,
        help="requests in flight across all occupations of one model, for concurrent clients",
    )
    p.add_argument("--rubric", help="file with replacement rubric text")
    p.add_argument(
        "--level",
        default="leaf",
        choices=["leaf", "large", "medium", "small", "fine"],
        help="which taxonomy nodes to annotate (default leaf nodes)",
    )
    _add_common(p)
    p.set_defaults(handler=cmd_annotate)

    p = sub.add_parser("score", help="build the canonical score table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", help="annotation store JSONL to score")
    group.add_argument("--scores", help="existing score table; recompute the ensemble column")
    p.add_argument("--taxonomy", help="taxonomy CSV for occupation titles")
    p.add_argument("--expert", help="expert panel CSV (code,score rows, one per expert)")
    _add_common(p)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("aggregate", help="roll leaf scores up the taxonomy")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--scores", required=True, help="score table supplying leaf scores")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    _add_common(p)
    p.set_defaults(handler=cmd_aggregate)

    p = sub.add_parser("industry", help="project occupational scores onto industries")
    p.add_argument("--intensity", required=True, help="industry x occupation share matrix CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--industries", help="optional industry id/name list for labeling")
    _add_common(p)
    p.set_defaults(handler=cmd_industry)

    p = sub.add_parser("demographic", help="project industry scores onto age groups")
    p.add_argument("--demographics", required=True, help="age group x industry share matrix CSV")
    p.add_argument("--industry-scores", required=True, help="industry exposure CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_demographic)

    p = sub.add_parser("stats", help="summary panels, correlations, scatter reports")
    p.add_argument("--scores", required=True)
    p.add_argument(
        "--pair", nargs=2, metavar=("A", "B"), choices=sc.SCORE_COLUMNS, help="correlate two columns"
    )
    p.add_argument("--outcomes", help="outcome CSV (code,<kind>) for a scatter report")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--plot-data", help="also write (x,y,label) triples to this path")
    _add_common(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("simulate", help="solve adoption decisions for a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--scores", help="score table for occupation-mix exposures")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--rho", type=float, default=None, help="override the exponential law rho")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("contour", help="growth over a damage x adoption-ratio grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--scores", help="score table for occupation-mix exposures")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta-grid", help="lo:hi:n or comma list (default 0:0.95:21)")
    p.add_argument("--ratio-grid", help="lo:hi:n or comma list (default 0:1:21)")
    _add_common(p)
    p.set_defaults(handler=cmd_contour)

    p = sub.add_parser("validate", help="dry-run checks on input files, no computation")
    p.add_argument("--taxonomy")
    p.add_argument("--scores")
    p.add_argument("--expert")
    p.add_argument("--intensity")
    p.add_argument("--demographics")
    p.add_argument("--outcomes")
    p.add_argument("--scenario")
    p.add_argument("--annotations")
    p.add_argument("--mock")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("pipeline", help="score, aggregate, industry, stats in one run")
    p.add_argument("--scores", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--intensity", required=True)
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--outdir", required=True, help="directory for the four output files")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(handler=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileNotFoundError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
