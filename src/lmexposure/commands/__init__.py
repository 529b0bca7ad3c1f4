"""One module per command group; ``cli.main`` imports only the one it runs.

A handler, ``cmd_<command>``, takes the parsed ``argparse.Namespace`` and returns an exit code.
No module here imports ``lmexposure.cli``: under ``python -m lmexposure.cli``
the running module is ``__main__``, so that import would run ``cli.py`` again.
Stage functions are called through their module (``runio.csv_text``), not
imported by name, so that ``perfbench/tracer.py``, which replaces module
attributes, sees each call. For the same reason ``RunConfig`` lives here and
not in ``runio``: its writes then show as ``runio`` calls of their own.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Mapping

from .. import runio


class RunConfig:
    """What a run consumed and produced, for the manifest.

    The command comes from ``args``, and so does ``full_precision`` where the
    command has that option, and ``column`` where ``score_column`` reads
    ``--scores``; a handler adds the other parameters it uses.
    """

    def __init__(self, args: argparse.Namespace, manifest: Path | None = None) -> None:
        self.command = args.command
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

    def score_column(self, args: argparse.Namespace) -> dict[str, float] | None:
        """The ``--column`` of the ``--scores`` table, or None without ``--scores``.

        The manifest records ``column`` wherever ``--scores`` is read here.
        ``scores`` is imported only then, so a command without a table never
        compiles it.
        """
        if not args.scores:
            return None
        from .. import scores as sc

        self.parameters["column"] = args.column
        return sc.read_score_table(self.add_input("scores", args.scores)).column(args.column)

    def write_manifest(self) -> None:
        primary = next(iter(self.outputs.values()))
        manifest = self.manifest or primary.with_name(primary.name + ".manifest.json")
        runio.write_manifest(manifest, self.command, self.parameters, self.inputs, self.outputs)

    def emit(self, outputs: Mapping[str, tuple[Path, str]]) -> None:
        """Atomically write all ``{role: (path, text)}`` outputs, then the manifest."""
        for role, (path, text) in outputs.items():
            runio.atomic_write_text(path, text)
            self.outputs[role] = path
        self.write_manifest()
