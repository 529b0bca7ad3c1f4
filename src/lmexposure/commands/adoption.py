"""``simulate`` and ``contour``: the multi-sector adoption model."""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from .. import econ_model as econ
from .. import runio
from ..errors import EXIT_OK, ConfigError
from . import RunConfig


def _scenario_inputs(args: argparse.Namespace, config: RunConfig):
    scores = args.industry_scores
    if scores is not None:
        scores = config.add_input("industry_scores", scores)
    return config.read("scenario", scores)


def _law_payload(law: econ.GrowthLaw) -> dict[str, object]:
    if isinstance(law, econ.ExponentialGrowth):
        return {"kind": "exponential", "rho": law.rho}
    return {"kind": "tabulated", "points": [list(p) for p in law.points]}


def cmd_simulate(args: argparse.Namespace) -> int:
    config = RunConfig(args)
    sectors, law = _scenario_inputs(args, config)
    decisions = econ.optimal_decisions(sectors, law)
    rows = [
        {
            "id": sector.id,
            "share": sector.output_share,
            "delta": sector.damage_ratio,
            "exposure": sector.exposure,
            "growth_factor": law(sector.exposure),
            "decision": decision,
            "damage": econ.sector_damage(sector, law, decision),
            "threshold": econ.adoption_threshold(sector.damage_ratio, law),
        }
        for sector, decision in zip(sectors, decisions)
    ]
    payload = {
        "kind": "simulate",
        "law": _law_payload(law),
        "aggregate_growth": econ.aggregate_growth(sectors, law, decisions),
        "adopting_sectors": sum(decisions),
        "sectors": rows,
    }
    config.emit({"report": (Path(args.out), runio.dump_json(payload, args.full_precision))})
    return EXIT_OK


def _parse_grid(option: str, spec: str) -> list[float]:
    try:
        if ":" in spec:
            lo_s, hi_s, n_s = spec.split(":")
            values, n = [float(lo_s), float(hi_s)], int(n_s)
        else:
            values, n = [float(v) for v in spec.split(",")], None
        if not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"{option} must be lo:hi:n or a comma-separated list of finite numbers, got {spec!r}"
        ) from None
    if n is None:
        return values
    if n < 1:
        raise ConfigError(f"{option} needs at least one point, got {spec!r}")
    lo, hi = values
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def cmd_contour(args: argparse.Namespace) -> int:
    # The defaults that --help names; only an absent option, not '', falls back.
    # A malformed grid is a bad option value, refused before the scenario is read.
    delta_grid = _parse_grid(
        "--delta-grid", "0:0.95:21" if args.delta_grid is None else args.delta_grid
    )
    ratio_grid = _parse_grid(
        "--ratio-grid", "0:1:21" if args.ratio_grid is None else args.ratio_grid
    )
    config = RunConfig(args)
    sectors, law = _scenario_inputs(args, config)
    sectors = sorted(sectors, key=lambda s: s.exposure, reverse=True)
    values = econ.contour_grid(sectors, law, delta_grid, ratio_grid)

    rows = [("delta\\ratio", *ratio_grid), *((d, *row) for d, row in zip(delta_grid, values))]
    config.parameters.update(
        delta_grid=args.delta_grid,
        ratio_grid=args.ratio_grid,
        delta_points=len(delta_grid),
        ratio_points=len(ratio_grid),
    )
    config.emit({"contour": (Path(args.out), runio.csv_text(rows, args.full_precision))})
    return EXIT_OK
