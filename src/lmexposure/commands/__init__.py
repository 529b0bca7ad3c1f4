"""One module per command group; ``cli.main`` imports only the one it runs.

A handler takes the parsed ``argparse.Namespace`` and returns an exit code.
No module here imports ``lmexposure.cli``: under ``python -m lmexposure.cli``
the running module is ``__main__``, so that import would run ``cli.py`` again.
Stage functions are called through their module (``sc.format_score``), not
imported by name, so that ``perfbench/tracer.py``, which replaces module
attributes, sees each call. For the same reason ``RunConfig`` lives here and
not in ``runio``: its writes then show as ``runio`` calls of their own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .. import runio


class RunConfig:
    """What a run consumed and produced, for the manifest."""

    def __init__(
        self,
        command: str,
        inputs: dict[str, Path] | None = None,
        outputs: dict[str, Path] | None = None,
        parameters: dict[str, object] | None = None,
        manifest: Path | None = None,  # defaults to ``<primary output>.manifest.json``
    ) -> None:
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.outputs = {} if outputs is None else outputs
        self.parameters = {} if parameters is None else parameters
        self.manifest = manifest

    def add_input(self, role: str, path: str | Path) -> Path:
        p = Path(path)
        if not p.is_file():
            raise FileNotFoundError(f"input file not found: {p}")
        self.inputs[role] = p
        return p

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
