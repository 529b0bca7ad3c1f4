"""``validate``: dry-run schema and invariant checks on input files."""

from __future__ import annotations

import argparse
import importlib
from operator import attrgetter
from pathlib import Path

from ..errors import EXIT_INPUT, EXIT_OK, LmExposureError

# option -> (stage module, its loader). Only the modules of given options load.
_LOADERS = {
    "taxonomy": ("taxonomy", "load_taxonomy"),
    "scores": ("scores", "read_score_table"),
    "expert": ("scores", "read_expert_panel"),
    "intensity": ("aggregate", "IntensityMatrix.from_csv"),
    "demographics": ("aggregate", "DemographicShares.from_csv"),
    "outcomes": ("labor_stats", "read_outcome_csv"),
    "industry_scores": ("aggregate", "read_industry_scores"),
    "scenario": ("econ_model", "load_scenario"),  # sectors are checked against --industry-scores
    "annotations": ("annotate", "read_annotation_store"),
    "mock": ("annotate", "load_mock_client"),  # scripted codes are checked against --taxonomy
}


def validate_inputs(args: argparse.Namespace) -> list[str]:
    """Dry-run schema and invariant checks; diagnostics, never exceptions."""
    diagnostics: list[str] = []
    loaded: dict[str, object] = {}
    for option, (module, loader) in _LOADERS.items():
        path = getattr(args, option)
        if path is None:
            continue
        if not Path(path).is_file():
            diagnostics.append(f"{option}: file not found: {path}")
            continue
        load = attrgetter(loader)(importlib.import_module(f"..{module}", __package__))
        try:
            if option == "mock":
                loaded[option] = load(path, loaded.get("taxonomy"))
            elif option == "scenario":  # a file that failed above is not reported again
                load(path, args.industry_scores if "industry_scores" in loaded else None)
            else:
                loaded[option] = load(path)
        except LmExposureError as exc:
            diagnostics.append(f"{option}: {exc}")
    return diagnostics


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = validate_inputs(args)
    for line in diagnostics:
        print(line)
    return EXIT_INPUT if diagnostics else EXIT_OK
