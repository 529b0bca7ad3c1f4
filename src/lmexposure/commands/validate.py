"""``validate``: dry-run schema and invariant checks on input files."""

from __future__ import annotations

import argparse
from pathlib import Path

from .. import aggregate as agg
from .. import annotate as ann
from .. import econ_model as econ
from .. import labor_stats as lstats
from .. import scores as sc
from .. import taxonomy as tax
from ..errors import EXIT_INPUT, EXIT_OK, LmExposureError


def validate_inputs(args: argparse.Namespace) -> list[str]:
    """Dry-run schema and invariant checks; diagnostics, never exceptions."""
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
