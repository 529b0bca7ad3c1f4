"""``stats``: summary panels, pairwise correlations and scatter reports."""

from __future__ import annotations

import argparse
from pathlib import Path

from .. import labor_stats as lstats
from .. import runio
from .. import scores as sc
from ..errors import EXIT_OK
from . import RunConfig


def summary_payload(table: sc.ScoreTable) -> dict[str, object]:
    """Per-column count/mean/std and every pairwise correlation."""
    columns = {name: column for name in sc.SCORE_COLUMNS if (column := table.column(name))}
    summary = {name: lstats.summarize(list(v.values()))._asdict() for name, v in columns.items()}
    panel = lstats.correlation_panel(columns)
    names = list(columns)
    correlations = [
        {"a": a, "b": b, **panel[(a, b)]._asdict()}
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    return {"kind": "summary", "columns": summary, "correlations": correlations}


def cmd_stats(args: argparse.Namespace) -> int:
    config = RunConfig(args)
    table = config.read("scores")
    plot: dict[str, tuple[Path, str]] = {}

    if args.outcomes:
        outcome = config.read("outcomes")
        exposure = table.column(args.column)
        report = lstats.scatter_report(exposure, outcome, table.titles())
        payload = {
            "kind": "scatter",
            "column": args.column,
            "outcome_kind": outcome.kind.value,
            "n": report.n,
            "corr": report.corr._asdict(),
            "slope": report.slope,
            "intercept": report.intercept,
            "rows": [
                {"code": code, "title": title, "exposure": x, "outcome": y}
                for code, title, x, y in report.rows
            ],
        }
        config.parameters.update(mode="scatter", column=args.column)
        if args.plot_data:
            triples = [("x", "y", "label"), *((x, y, code) for code, _, x, y in report.rows)]
            plot["plot_data"] = (Path(args.plot_data), runio.csv_text(triples, args.full_precision))
    elif args.pair:
        a, b = args.pair
        result = lstats.correlation_panel({a: table.column(a), b: table.column(b)})[(a, b)]
        payload = {"kind": "pair", "a": a, "b": b, **result._asdict()}
        config.parameters.update(mode="pair", a=a, b=b)
    else:
        payload = summary_payload(table)
        config.parameters["mode"] = "summary"

    # The report is the primary output: the manifest is named after it.
    report_out = (Path(args.out), runio.dump_json(payload, args.full_precision))
    config.emit({"report": report_out, **plot})
    return EXIT_OK
