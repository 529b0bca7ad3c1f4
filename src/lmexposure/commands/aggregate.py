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
    lines = ["code,title,level,score"]
    for node in taxonomy.walk():
        raw = node.code.raw
        if raw in rolled:
            title = '"' + node.title.replace('"', '""') + '"'
            lines.append(
                f"{raw},{title},{level_names[node.code.level - 1]},"
                f"{runio.format_score(rolled[raw], full_precision)}"
            )
    return "\n".join(lines) + "\n"


def industry_csv(
    matrix: agg.IntensityMatrix,
    r_occ: dict[str, float],
    full_precision: bool,
    names: dict[str, str] | None = None,
) -> str:
    from .. import aggregate as agg

    result = agg.industry_exposure(matrix, r_occ)
    lines = ["industry_id,name,score" if names else "industry_id,score"]
    for ind in matrix.industries:
        cells = [ind]
        if names:
            cells.append('"' + names.get(ind, "").replace('"', '""') + '"')
        cells.append(runio.format_score(result[ind], full_precision))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_aggregate(args: argparse.Namespace) -> int:
    from .. import taxonomy as tax

    config = RunConfig(args)
    taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
    text = aggregated_csv(taxonomy, config.score_column(args), args.full_precision)
    config.emit({"aggregated": (Path(args.out), text)})
    return EXIT_OK


def cmd_industry(args: argparse.Namespace) -> int:
    from .. import aggregate as agg

    config = RunConfig(args)
    matrix = agg.IntensityMatrix.from_csv(config.add_input("intensity", args.intensity))
    r_occ = config.score_column(args)
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
    shares = agg.DemographicShares.from_csv(
        config.add_input("demographics", args.demographics)
    )
    r_ind = agg.read_industry_scores(config.add_input("industry_scores", args.industry_scores))
    result = agg.demographic_exposure(shares, r_ind)
    lines = ["age_group,score"]
    for group in shares.age_groups:
        lines.append(f"{group},{runio.format_score(result[group], args.full_precision)}")
    config.emit({"demographic": (Path(args.out), "\n".join(lines) + "\n")})
    return EXIT_OK
