"""Command-line front end wiring the pipeline stages to files.

Subcommands: annotate, score, aggregate, industry, demographic, stats,
simulate, contour, validate, and a pipeline meta-command chaining
score -> aggregate -> industry -> stats. All outputs are written
atomically (temp file plus rename) and every run leaves a machine-readable
manifest with parameter values and content digests next to its primary
output. Exit codes: 0 success, 2 configuration problem, 3 input-format
problem, 4 computation problem.

This module holds the parser and the exit-code mapping only. The handlers
live in ``lmexposure/commands/``, one module per command group, and ``main``
imports just the module of the command it runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys

# Only what every command needs is imported here: the score columns name the
# --column choices. Each handler module imports the stage modules it runs.
# The exit codes and CLIENT_ENV_VAR are re-exported for callers of ``main``.
from . import scores as sc
from .errors import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    ComputationError,
    ConfigError,
    InputFormatError,
)
from .runio import CLIENT_ENV_VAR


# --- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument(
        "--full-precision",
        action="store_true",
        help="disable the default 4-decimal presentation rounding",
    )


def build_parser() -> argparse.ArgumentParser:
    """Each command's ``handler`` names its module in ``commands`` and its function."""
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
    p.set_defaults(handler=("annotate", "cmd_annotate"))

    p = sub.add_parser("score", help="build the canonical score table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", help="annotation store JSONL to score")
    group.add_argument("--scores", help="existing score table; recompute the ensemble column")
    p.add_argument("--taxonomy", help="taxonomy CSV for occupation titles")
    p.add_argument("--expert", help="expert panel CSV (code,score rows, one per expert)")
    _add_common(p)
    p.set_defaults(handler=("score", "cmd_score"))

    p = sub.add_parser("aggregate", help="roll leaf scores up the taxonomy")
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--scores", required=True, help="score table supplying leaf scores")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    _add_common(p)
    p.set_defaults(handler=("aggregate", "cmd_aggregate"))

    p = sub.add_parser("industry", help="project occupational scores onto industries")
    p.add_argument("--intensity", required=True, help="industry x occupation share matrix CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--industries", help="optional industry id/name list for labeling")
    _add_common(p)
    p.set_defaults(handler=("aggregate", "cmd_industry"))

    p = sub.add_parser("demographic", help="project industry scores onto age groups")
    p.add_argument("--demographics", required=True, help="age group x industry share matrix CSV")
    p.add_argument("--industry-scores", required=True, help="industry exposure CSV")
    _add_common(p)
    p.set_defaults(handler=("aggregate", "cmd_demographic"))

    p = sub.add_parser("stats", help="summary panels, correlations, scatter reports")
    p.add_argument("--scores", required=True)
    p.add_argument(
        "--pair", nargs=2, metavar=("A", "B"), choices=sc.SCORE_COLUMNS, help="correlate two columns"
    )
    p.add_argument("--outcomes", help="outcome CSV (code,<kind>) for a scatter report")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--plot-data", help="also write (x,y,label) triples to this path")
    _add_common(p)
    p.set_defaults(handler=("stats", "cmd_stats"))

    p = sub.add_parser("simulate", help="solve adoption decisions for a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--scores", help="score table for occupation-mix exposures")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--rho", type=float, default=None, help="override the exponential law rho")
    _add_common(p)
    p.set_defaults(handler=("adoption", "cmd_simulate"))

    p = sub.add_parser("contour", help="growth over a damage x adoption-ratio grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--scores", help="score table for occupation-mix exposures")
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta-grid", help="lo:hi:n or comma list (default 0:0.95:21)")
    p.add_argument("--ratio-grid", help="lo:hi:n or comma list (default 0:1:21)")
    _add_common(p)
    p.set_defaults(handler=("adoption", "cmd_contour"))

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
    p.set_defaults(handler=("validate", "cmd_validate"))

    p = sub.add_parser("pipeline", help="score, aggregate, industry, stats in one run")
    p.add_argument("--scores", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--intensity", required=True)
    p.add_argument("--column", default="ensemble", choices=sc.SCORE_COLUMNS)
    p.add_argument("--outdir", required=True, help="directory for the four output files")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(handler=("pipeline", "cmd_pipeline"))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    module_name, handler_name = args.handler
    handler = getattr(importlib.import_module(f".commands.{module_name}", __package__), handler_name)
    try:
        return handler(args)
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
