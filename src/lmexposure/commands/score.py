"""``score``: the canonical score table, from annotations or an existing table."""

from __future__ import annotations

import argparse
from pathlib import Path

from .. import scores as sc
from ..errors import EXIT_OK
from . import RunConfig


def cmd_score(args: argparse.Namespace) -> int:
    config = RunConfig(args)

    if args.annotations:
        runs = config.read("annotations")
        index = config.read("taxonomy").index if args.taxonomy else {}
        titles = {code: node.title for code, node in index.items()}
        table = sc.ScoreTable(rows=sc.records_from_runs(runs, titles))
        if args.expert:
            means = config.read("expert")
            for row in table.rows:
                if row.code in means:
                    row.scores["expert"] = means[row.code]
    else:
        table = sc.recompute_ensemble(config.read("scores"))

    config.emit({"scores": (Path(args.out), sc.render_score_table(table, args.full_precision))})
    return EXIT_OK
