"""``validate``: dry-run schema and invariant checks on input files."""

from __future__ import annotations

import argparse
from pathlib import Path

from ..errors import EXIT_INPUT, EXIT_OK, LmExposureError
from . import READERS, reader


def validate_inputs(args: argparse.Namespace) -> list[str]:
    """Dry-run schema and invariant checks; diagnostics, never exceptions."""
    diagnostics: list[str] = []
    loaded: dict[str, object] = {}
    for option in READERS:
        path = getattr(args, option)
        if path is None:
            continue
        if not Path(path).is_file():
            diagnostics.append(f"{option}: file not found: {path}")
            continue
        context: tuple = ()
        if option == "mock":
            context = (loaded.get("taxonomy"),)
        elif option == "scenario":  # a file that failed above is not reported again
            context = (args.industry_scores if "industry_scores" in loaded else None,)
        try:
            loaded[option] = reader(option)(path, *context)
        except LmExposureError as exc:
            diagnostics.append(f"{option}: {exc}")
    return diagnostics


def cmd_validate(args: argparse.Namespace) -> int:
    diagnostics = validate_inputs(args)
    for line in diagnostics:
        print(line)
    return EXIT_INPUT if diagnostics else EXIT_OK
