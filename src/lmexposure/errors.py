"""Exception hierarchy shared across the package.

Two broad families, mirrored by distinct CLI exit codes: problems with the
bytes we were given (``InputFormatError``) and problems discovered while
computing on otherwise well-formed inputs (``ComputationError``).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class LmExposureError(Exception):
    """Base class for all package errors."""


class InputFormatError(LmExposureError):
    """A file or record does not conform to its documented format."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class ComputationError(LmExposureError):
    """An operation's precondition or invariant was violated at run time."""


def parse_finite(value: object, what: str, path: str, line: int | None = None) -> float:
    """``float(value)`` for a reader, or an InputFormatError unless it is finite."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise InputFormatError(f"{what} {value!r} is not a finite number", path=path, line=line)
    return number


@contextmanager
def open_text(source: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 input file; text that does not decode names the file."""
    try:
        with open(source, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc}", path=str(source)) from None
