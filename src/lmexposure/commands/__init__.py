"""One module per command group; ``cli.main`` imports only the one it runs.

A handler, ``cmd_<command>``, takes the parsed ``argparse.Namespace`` and returns an exit code.
No module here imports ``lmexposure.cli``: under ``python -m lmexposure.cli``
the running module is ``__main__``, so that import would run ``cli.py`` again.
Stage functions are called through their module (``runio.csv_text``), not
imported by name, so that ``perfbench/tracer.py``, which replaces module
attributes, sees each call. For the same reason ``RunConfig`` lives here and
not in ``runio``: its writes then show as ``runio`` calls of their own.

``READERS`` alone says how an input option's file is read: handlers read
through ``RunConfig.read``, and ``validate`` and its parser iterate the table.
"""

from __future__ import annotations

import argparse
import importlib
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping

from .. import runio

# input option -> (stage module, its reader). Only the modules of the options
# read are imported. ``validate`` checks the options in this order.
READERS = {
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


def reader(option: str) -> Callable:
    """The reader of ``option``'s file, looked up when called, so that a
    wrapper put on the module attribute is the one that runs."""
    module, name = READERS[option]
    return attrgetter(name)(importlib.import_module(f"..{module}", __package__))


class RunConfig:
    """What a run consumed and produced, for the manifest.

    The command comes from ``args``, and so does ``full_precision`` where the
    command has that option, and ``column`` where ``score_column`` reads
    ``--scores``; a handler adds the other parameters it uses.
    """

    def __init__(self, args: argparse.Namespace, manifest: Path | None = None) -> None:
        self.args = args
        self.inputs: dict[str, str] = {}  # role -> digest
        self.outputs: dict[str, Path] = {}
        self.parameters: dict[str, object] = {}
        if hasattr(args, "full_precision"):
            self.parameters["full_precision"] = args.full_precision
        self.manifest = manifest  # None: ``<primary output>.manifest.json``

    def add_input(self, role: str, path: str | Path) -> Path:
        """Digest the file at ``path`` before it is read, since an output may replace it."""
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"input file not found: {p}")
        self.inputs[role] = runio.sha256_file(p)
        return p

    def read(self, option: str, *context: object):
        """Digest the file of input ``option``, then read it with ``reader(option)``,
        passing ``context`` on; the option names the manifest's input role."""
        return reader(option)(self.add_input(option, getattr(self.args, option)), *context)

    def score_column(self) -> dict[str, float] | None:
        """The ``--column`` of the ``--scores`` table, or None without ``--scores``;
        the manifest records ``column`` wherever ``--scores`` is read here."""
        if not self.args.scores:
            return None
        self.parameters["column"] = self.args.column
        return self.read("scores").column(self.args.column)

    def write_manifest(self) -> None:
        primary = next(iter(self.outputs.values()))
        manifest = self.manifest or primary.with_name(primary.name + ".manifest.json")
        runio.write_manifest(manifest, self.args.command, self.parameters, self.inputs, self.outputs)

    def emit(self, outputs: Mapping[str, tuple[Path, str]]) -> None:
        """Atomically write all ``{role: (path, text)}`` outputs, then the manifest."""
        for role, (path, text) in outputs.items():
            runio.atomic_write_text(path, text)
            self.outputs[role] = path
        self.write_manifest()
