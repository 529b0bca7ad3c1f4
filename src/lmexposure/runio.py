"""Atomic output writing, content digests, and run manifests."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

# ``import hashlib`` loads OpenSSL, which costs a command more start-up than
# hashing its few-KB files takes, so digests go through CPython's built-in
# SHA-256 (as ``random`` does for SHA-512); hashlib only where it is missing.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def sha256_file(path: str | Path) -> str:
    digest = _sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file in the target directory plus rename.

    A failed write never leaves a partial file at the destination, and its
    ``OSError`` names ``path`` when it names no file of its own.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        if isinstance(exc, OSError) and exc.filename is None:  # a failed write names no file
            exc.filename = str(path)
        raise


# p-values stay unrounded: 4 decimals would flatten anything below 5e-5 to 0.
_NEVER_ROUND = {"p_value"}


def round_floats(value):
    """Recursively round floats to 4 decimals for presentation-layer JSON exports."""
    if isinstance(value, float):
        return round(value, 4)
    if isinstance(value, dict):
        return {k: v if k in _NEVER_ROUND else round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v) for v in value]
    return value


def csv_text(rows: Iterable[Sequence[str | float | None]], full_precision: bool = False) -> str:
    """CSV lines, each ending in a newline: a str cell as it is, None empty, and a
    number at 4 decimals, or its ``repr`` at full precision. A cell that needs
    quotes is passed through ``quoted``."""
    number = repr if full_precision else "{:.4f}".format
    return "".join([
        ",".join([c if type(c) is str else "" if c is None else number(c) for c in row]) + "\n"
        for row in rows
    ])


def quoted(text: str) -> str:
    """``text`` as one double-quoted CSV cell, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def dump_json(payload, full_precision: bool = False) -> str:
    if not full_precision:
        payload = round_floats(payload)
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_manifest(
    manifest_path: str | Path,
    command: str,
    parameters: Mapping[str, object],
    inputs: Mapping[str, str],
    outputs: Mapping[str, str | Path],
) -> None:
    """Record what a run consumed (``inputs``: role -> digest) and produced."""
    manifest = {
        "command": command,
        "parameters": dict(parameters),
        "inputs": dict(inputs),
        "outputs": {name: sha256_file(p) for name, p in sorted(outputs.items())},
    }
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ``package.module:factory`` of the live classifier client, for ``annotate``.
CLIENT_ENV_VAR = "LMEXPOSURE_CLIENT"

