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
        from .. import annotate as ann

        runs = ann.read_annotation_store(config.add_input("annotations", args.annotations))
        titles = {}
        if args.taxonomy:
            from .. import taxonomy as tax

            taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
            titles = {code: node.title for code, node in taxonomy.index.items()}
        table = sc.ScoreTable(rows=sc.records_from_runs(runs, titles))
        if args.expert:
            means = sc.read_expert_panel(config.add_input("expert", args.expert))
            for row in table.rows:
                if row.code in means:
                    row.scores["expert"] = means[row.code]
    else:
        table = sc.recompute_ensemble(
            sc.read_score_table(config.add_input("scores", args.scores))
        )

    config.emit({"scores": (Path(args.out), sc.render_score_table(table, args.full_precision))})
    return EXIT_OK
