"""Command-line front end wiring the pipeline stages to files.

Subcommands: annotate, score, aggregate, industry, demographic, stats,
simulate, contour, validate, and a pipeline meta-command chaining
score -> aggregate -> industry -> stats. All outputs are written
atomically (temp file plus rename) and every run leaves a machine-readable
manifest with parameter values and content digests next to its primary
output. Exit codes: 0 success, 2 configuration problem, 3 input-format
problem, 4 computation problem, 130 interrupted (Ctrl-C).

This module holds the parser, with every rule on which options go together,
and the exit-code mapping only. The handlers live in ``lmexposure/commands/``,
one module per command group, and ``main`` imports just the module of the
command it runs, once the options have passed those rules.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys

# Only what every command needs is imported here: the score columns name the
# --column choices, and come from the package, not from ``scores``. Each
# handler module imports the stage modules it runs. The exit codes and
# CLIENT_ENV_VAR are re-exported for callers of ``main``.
from . import SCORE_COLUMNS
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


def _annotate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--taxonomy", required=True, help="taxonomy CSV (code,title,description,excluded)")
    p.add_argument("--mock", help=f"mock client JSON config; omit to use {CLIENT_ENV_VAR}")
    p.add_argument("--models", default="glm,gpt4,internlm", help="comma-separated model ids")
    p.add_argument("--n-samples", type=int, default=8, help="samples per occupation (default 8)")
    p.add_argument("--max-retries", type=int, default=2, help="retries per sample (default 2)")
    p.add_argument(
        "--in-flight",
        type=int,
        default=1,
        help=(
            "requests in flight across all occupations of one model, for concurrent"
            " clients; the models of such clients run side by side, each with this budget"
        ),
    )
    p.add_argument("--rubric", help="file with replacement rubric text")
    p.add_argument(
        "--level",
        default="leaf",
        choices=["leaf", "large", "medium", "small", "fine"],
        help="which taxonomy nodes to annotate (default leaf nodes)",
    )
    p.add_argument("--out", required=True, help="annotation store JSONL to create")


def _score_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--annotations", help="annotation store JSONL to score")
    group.add_argument("--scores", help="existing score table; recompute the ensemble column")
    p.add_argument("--taxonomy", help="taxonomy CSV for occupation titles")
    p.add_argument("--expert", help="expert panel CSV (code,score rows, one per expert)")
    _add_common(p)


def _aggregate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--scores", required=True, help="score table supplying leaf scores")
    p.add_argument("--column", default="ensemble", choices=SCORE_COLUMNS)
    _add_common(p)


def _industry_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--intensity", required=True, help="industry x occupation share matrix CSV")
    p.add_argument("--scores", required=True)
    p.add_argument("--column", default="ensemble", choices=SCORE_COLUMNS)
    p.add_argument("--industries", help="optional industry id/name list for labeling")
    _add_common(p)


def _demographic_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--demographics", required=True, help="age group x industry share matrix CSV")
    p.add_argument("--industry-scores", required=True, help="industry exposure CSV")
    _add_common(p)


def _stats_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--pair", nargs=2, metavar=("A", "B"), choices=SCORE_COLUMNS, help="correlate two columns"
    )
    mode.add_argument("--outcomes", help="outcome CSV (code,<kind>) for a scatter report")
    p.add_argument("--column", default="ensemble", choices=SCORE_COLUMNS)
    p.add_argument("--plot-data", help="also write (x,y,label) triples to this path")
    _add_common(p)


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON: growth law, rho, sectors")
    p.add_argument("--industry-scores", help="industry scores for sectors without an exposure")
    _add_common(p)


def _contour_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON: growth law, rho, sectors")
    p.add_argument("--industry-scores", help="industry scores for sectors without an exposure")
    p.add_argument("--delta-grid", help="lo:hi:n or comma list (default 0:0.95:21)")
    p.add_argument("--ratio-grid", help="lo:hi:n or comma list (default 0:1:21)")
    _add_common(p)


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    from .commands import READERS  # one option per input that a command reads

    for option in READERS:
        p.add_argument("--" + option.replace("_", "-"))


def _pipeline_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scores", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--intensity", required=True)
    p.add_argument("--column", default="ensemble", choices=SCORE_COLUMNS)
    p.add_argument("--outdir", required=True, help="directory for the four output files")
    p.add_argument("--full-precision", action="store_true")


# command -> (help, its handler module in ``commands``, which defines
# ``cmd_<command>``, and the function that adds its arguments)
_COMMANDS = {
    "annotate": ("annotate occupations through a classifier client", "annotate", _annotate_arguments),
    "score": ("build the canonical score table", "score", _score_arguments),
    "aggregate": ("roll leaf scores up the taxonomy", "aggregate", _aggregate_arguments),
    "industry": ("project occupational scores onto industries", "aggregate", _industry_arguments),
    "demographic": ("project industry scores onto age groups", "aggregate", _demographic_arguments),
    "stats": ("summary panels, correlations, scatter reports", "stats", _stats_arguments),
    "simulate": ("solve adoption decisions for a scenario", "adoption", _simulate_arguments),
    "contour": ("growth over a damage x adoption-ratio grid", "adoption", _contour_arguments),
    "validate": ("dry-run checks on input files, no computation", "validate", _validate_arguments),
    "pipeline": ("score, aggregate, industry, stats in one run", "pipeline", _pipeline_arguments),
}


# (command, option) -> (the option it needs, why): without the option it
# needs, the option would change nothing, so ``main`` refuses it with exit 2
# before any file is read. An option counts as given when its value differs
# from the parser's default. Modes that exclude each other are argparse groups.
_NEEDS = {
    ("score", "--taxonomy"): ("--annotations", "applies to --annotations only, not --scores"),
    ("score", "--expert"): ("--annotations", "applies to --annotations only, not --scores"),
    ("stats", "--plot-data"): ("--outcomes", "needs --outcomes: only a scatter report has plot data"),
    ("stats", "--column"): ("--outcomes", "needs --outcomes: only a scatter report reads one column"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command if it names none.

    ``get_default("command_parsers")`` maps each command to its own parser; its
    handler is named by ``_COMMANDS``, not by the parser.
    """
    parser = argparse.ArgumentParser(
        prog="lmexposure",
        description=(
            "Occupational exposure pipeline: annotation, scoring, taxonomy and "
            "industry aggregation, labor-market statistics, and the "
            "multi-sector adoption model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, add_arguments) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        add_arguments(sub.add_parser(name, help=help_text))
    parser.set_defaults(command_parsers=sub.choices)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    default = parser.get_default("command_parsers")[args.command].get_default

    def given(option: str) -> bool:
        dest = option[2:].replace("-", "_")
        return getattr(args, dest) != default(dest)

    try:
        for (command, option), (needed, reason) in _NEEDS.items():
            if command == args.command and given(option) and not given(needed):
                raise ConfigError(f"{option} {reason}")
        module = importlib.import_module(f".commands.{_COMMANDS[args.command][1]}", __package__)
        return getattr(module, f"cmd_{args.command}")(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a missing input, or an output path that cannot be written
        path = exc.filename2 or exc.filename  # os.replace names the temp file, then the output
        print(f"error: {path}: {exc.strerror}" if path else f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def console_main() -> None:
    """The process entry point: ``python -m lmexposure.cli`` and the ``lmexposure`` script.

    ``main`` returns once every output is written and closed. Exit handlers,
    thread joins and stream flushes still run after this; ``main`` itself,
    which callers may run many times in one process, never freezes. Ctrl-C
    ends the command with one line and exit 130 (128 + SIGINT), as a shell
    reports it, not with a traceback.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    gc.freeze()  # shutdown's collections then skip the heap the OS is about to free
    sys.exit(code)


if __name__ == "__main__":
    console_main()
