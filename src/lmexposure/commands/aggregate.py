"""``aggregate``, ``industry`` and ``demographic``: the linear roll-ups."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import TYPE_CHECKING

from .. import runio
from ..errors import EXIT_OK, InputFormatError
from . import RunConfig

if TYPE_CHECKING:  # hints only: each command imports the stage modules it runs
    from .. import aggregate as agg
    from .. import taxonomy as tax


def aggregated_csv(
    taxonomy: tax.Taxonomy, leaf_scores: dict[str, float], full_precision: bool
) -> str:
    from .. import taxonomy as tax

    rolled = tax.aggregate_up(taxonomy, leaf_scores)
    level_names = [level.name.lower() for level in tax.Level]  # indexed by level - 1
    rows = [("code", "title", "level", "score")]
    rows += [
        (raw, runio.quoted(node.title), level_names[node.code.level - 1], rolled[raw])
        for node in taxonomy.walk()
        if (raw := node.code.raw) in rolled
    ]
    return runio.csv_text(rows, full_precision)


def industry_csv(
    matrix: agg.IntensityMatrix,
    r_occ: dict[str, float],
    full_precision: bool,
    names: dict[str, str] | None = None,
) -> str:
    from .. import aggregate as agg

    result = agg.industry_exposure(matrix, r_occ)
    header = ("industry_id", "name", "score") if names else ("industry_id", "score")
    rows = [(ind, runio.quoted(names.get(ind, "")), result[ind]) if names else (ind, result[ind])
            for ind in matrix.industries]
    return runio.csv_text([header, *rows], full_precision)


def cmd_aggregate(args: argparse.Namespace) -> int:
    config = RunConfig(args)
    text = aggregated_csv(config.read("taxonomy"), config.score_column(), args.full_precision)
    config.emit({"aggregated": (Path(args.out), text)})
    return EXIT_OK


def cmd_industry(args: argparse.Namespace) -> int:
    from .. import aggregate as agg

    config = RunConfig(args)
    matrix = config.read("intensity")
    r_occ = config.score_column()
    names = None
    if args.industries:
        path = config.add_input("industries", args.industries)
        names = agg.read_industry_names(path)
        missing = [ind for ind in matrix.industries if ind not in names]
        if missing:
            raise InputFormatError(
                f"industry list lacks industries {missing[:5]} of the intensity matrix",
                path=str(path),
            )
    text = industry_csv(matrix, r_occ, args.full_precision, names)
    config.emit({"industry": (Path(args.out), text)})
    return EXIT_OK


def cmd_demographic(args: argparse.Namespace) -> int:
    from .. import aggregate as agg

    config = RunConfig(args)
    shares = config.read("demographics")
    result = agg.demographic_exposure(shares, config.read("industry_scores"))
    rows = [("age_group", "score"), *((group, result[group]) for group in shares.age_groups)]
    config.emit({"demographic": (Path(args.out), runio.csv_text(rows, args.full_precision))})
    return EXIT_OK
