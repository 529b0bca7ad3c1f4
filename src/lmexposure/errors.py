"""Exception hierarchy shared across the package.

Two broad families, mirrored by distinct CLI exit codes: problems with the
bytes we were given (``InputFormatError``) and problems discovered while
computing on otherwise well-formed inputs (``ComputationError``). A reader
names the file it reads once, through ``located``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

# Tolerance of every sums-to-one check on shares and weights.
SHARE_SUM_TOL = 1e-9


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


@contextmanager
def located(path: str | Path | None, reader: object = None) -> Iterator[None]:
    """Name ``path`` in every package error raised while reading that file.

    An error that names no file is re-raised at ``path``, on its own line if
    it has one, else on ``reader.line_num`` when a reader is given. An
    ``InputFormatError`` keeps its class; any other error, a
    ``ComputationError`` say, becomes an ``InputFormatError``, since the file
    could not be turned into objects.
    """
    try:
        yield
    except LmExposureError as exc:
        if getattr(exc, "path", None) is not None:
            raise
        line = getattr(exc, "line", None)
        if line is None and reader is not None:
            line = reader.line_num
        cls = type(exc) if isinstance(exc, InputFormatError) else InputFormatError
        raise cls(str(exc), path=None if path is None else str(path), line=line) from None


def parse_finite(value: object, what: str) -> float:
    """``float(value)`` for a reader, or an InputFormatError unless it is finite."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise InputFormatError(f"{what} {value!r} is not a finite number")
    return number


@contextmanager
def open_text(source: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 input file; text that does not decode names the file."""
    try:
        with open(source, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc}", path=str(source)) from None
