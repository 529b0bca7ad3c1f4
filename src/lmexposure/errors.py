"""Exception hierarchy shared across the package, and the CLI exit codes.

Three families, mirrored by distinct exit codes: options that cannot apply
to the inputs given (``ConfigError``), problems with the bytes we were given
(``InputFormatError``) and problems discovered while computing on otherwise
well-formed inputs (``ComputationError``). A reader opens its file through
``csv_input`` or ``json_object``, which name the file, at its line, in every
error; it checks its cells with ``parse_finite``, ``parse_score`` and
``code_cell``, the keys of a JSON object with ``only_keys``, and a total of
shares with ``check_sum_to_one``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, TextIO

# Tolerance of every sums-to-one check on shares and weights.
SHARE_SUM_TOL = 1e-9

# An occupation code in plain form: one to four dash-separated runs of digits.
CODE_RE = re.compile(r"\d+(?:-\d+){0,3}")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_COMPUTE = 4


class LmExposureError(Exception):
    """Base class for all package errors."""


class ConfigError(LmExposureError):
    """Options that cannot apply to the inputs given: exit 2."""


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


def parse_score(value: object, what: str) -> float:
    """``parse_finite(value, what)``, or an InputFormatError unless it is in [0, 1]."""
    number = parse_finite(value, what)
    if not 0.0 <= number <= 1.0:
        raise InputFormatError(f"{what} {number} is outside [0, 1]")
    return number


def check_sum_to_one(total: float, what: str, error: type[LmExposureError]) -> None:
    """Raise ``error`` unless ``total`` is 1 within ``SHARE_SUM_TOL``, NaN failing too;
    ``what`` names the shares with their verb, as in ``"vacancy shares sum"``."""
    if not abs(total - 1.0) <= SHARE_SUM_TOL:
        raise error(f"{what} to {total:.12g}, expected 1 within {SHARE_SUM_TOL}")


def code_cell(cell: str) -> str:
    """The occupation code in a reader's cell, or ``MalformedCodeError``.

    A cell in plain form is the code itself, so readers that keep only the
    code need not import ``taxonomy``; any other cell goes through
    ``OccupationCode.parse``, which strips it or raises.
    """
    if CODE_RE.fullmatch(cell):
        return cell
    from .taxonomy import OccupationCode

    return OccupationCode.parse(cell).raw


@contextmanager
def open_text(source: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 input file; text that does not decode names the file."""
    try:
        with open(source, encoding="utf-8", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"not UTF-8 text: {exc}", path=str(source)) from None


@contextmanager
def csv_input(source: str | Path | TextIO) -> Iterator[tuple]:
    """``(header, rows, reader)`` of a CSV input: a path or an open stream.

    ``rows`` yields the non-blank rows, each with the header's cells, and
    ``reader.line_num`` is the line a row ends on. A package error or a
    ``csv.Error`` raised in the block names the file, at that line.
    """
    named = isinstance(source, (str, Path))
    path = str(source) if named else getattr(source, "name", "<stream>")
    with open_text(source, newline="") if named else nullcontext(source) as handle:
        reader = csv.reader(handle)
        with located(path, reader):
            try:
                header = next(reader, None)
                yield header, _rows(reader, len(header or ())), reader
            except csv.Error as exc:
                raise InputFormatError(f"malformed CSV: {exc}") from None


def _rows(reader, width: int) -> Iterator[list[str]]:
    for row in reader:
        if row:
            if len(row) != width:
                raise InputFormatError(f"expected {width} cells, got {len(row)}")
            yield row


def cells_at(header: list[str] | None, names: tuple[str, ...], what: str) -> list[int]:
    """The cell index of each name in ``header``, which must name each once;
    ``what`` names the file's kind in the error of a header that lacks one."""
    if header is None or not set(names).issubset(header):
        raise InputFormatError(f"{what} header must contain {sorted(names)}, got {header}", line=1)
    for name in names:
        if header.count(name) > 1:
            raise InputFormatError(f"header names column {name!r} twice", line=1)
    return [header.index(name) for name in names]


def json_object(source: str | Path, what: str) -> dict:
    """The JSON object in file ``source``; anything else names the file, and
    so does an object that repeats a key."""
    try:
        with open_text(source) as handle, located(source):
            value = json.load(handle, object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"invalid {what} JSON: {exc}", path=str(source)) from None
    if not isinstance(value, dict):
        raise InputFormatError(f"{what} must be a JSON object", path=str(source))
    return value


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` of the JSON readers: ``dict(pairs)``, refusing a
    repeated key, of which ``json`` would silently keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise InputFormatError(f"JSON object names key {repeated!r} twice")
    return obj


def only_keys(obj: dict, known: frozenset[str] | set[str], what: str) -> None:
    """Refuse a JSON object ``obj`` with keys outside ``known``: a misspelt key
    would otherwise leave its field at the default without a word."""
    unknown = obj.keys() - known
    if unknown:
        raise InputFormatError(f"{what} has keys it does not read: {sorted(unknown)}")
