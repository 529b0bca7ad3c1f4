"""``pipeline``: score -> aggregate -> industry -> stats in one run."""

from __future__ import annotations

import argparse
from pathlib import Path

from .. import runio
from .. import scores as sc
from ..errors import EXIT_OK
from . import RunConfig
from .aggregate import aggregated_csv, industry_csv
from .stats import summary_payload


def cmd_pipeline(args: argparse.Namespace) -> int:
    """score -> aggregate -> industry -> stats against one fixture set.

    Each stage gets the previous one's unrounded in-memory table, so with
    ``--full-precision`` the outputs equal those of the chained commands.
    """
    outdir = Path(args.outdir)
    config = RunConfig(args, manifest=outdir / "manifest.json")
    config.parameters["column"] = args.column
    full = args.full_precision
    table = sc.recompute_ensemble(config.read("scores"))
    taxonomy = config.read("taxonomy")
    matrix = config.read("intensity")
    leaf_scores = table.column(args.column)
    outputs = {
        "scores": ("score_table.csv", sc.render_score_table(table, full)),
        "aggregated": ("aggregated_scores.csv", aggregated_csv(taxonomy, leaf_scores, full)),
        "industry": ("industry_exposure.csv", industry_csv(matrix, leaf_scores, full)),
        "stats": ("stats_summary.json", runio.dump_json(summary_payload(table), full)),
    }
    config.emit({role: (outdir / name, text) for role, (name, text) in outputs.items()})
    return EXIT_OK
