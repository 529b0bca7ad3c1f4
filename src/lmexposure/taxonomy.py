"""Occupational classification tree: codes, loading, validation, score roll-up.

The classification is a four-level hierarchy (large, medium, small, fine).
Codes are dash-separated numeric strings whose segment count encodes the
level ("2" is a large category, "2-06" a medium one, and so on); parentage
is the code-prefix relation. Entire large-category subtrees can be marked
excluded in the source file, which removes them from every downstream
score computation while keeping the tree structurally complete.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping

from .errors import ComputationError, InputFormatError, located, open_text


class Level(IntEnum):
    """Hierarchy depth, ordered coarse to fine."""

    LARGE = 1
    MEDIUM = 2
    SMALL = 3
    FINE = 4


_CODE_RE = re.compile(r"^\d+(-\d+)*$")


class MalformedCodeError(InputFormatError):
    """Code string does not match the dash-separated numeric pattern."""


class DuplicateCodeError(InputFormatError):
    """The same code appears on more than one row."""


class OrphanCodeError(InputFormatError):
    """A non-large code whose parent code is absent from the document."""


class MissingScoreError(ComputationError):
    """A non-excluded leaf occupation has no score to aggregate."""


class OccupationCode:
    """A validated classification code plus its derived level.

    Immutable: ``parse`` hands one cached instance to every caller.
    """

    __slots__ = ("raw", "level")

    def __init__(self, raw: str, level: Level) -> None:
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "level", level)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"OccupationCode is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    @classmethod
    @functools.lru_cache(maxsize=4096)  # a command meets one code in several files
    def parse(cls, raw: str) -> "OccupationCode":
        raw = raw.strip()
        if not _CODE_RE.match(raw):
            raise MalformedCodeError(f"malformed occupation code {raw!r}")
        segments = raw.split("-")
        if len(segments) > Level.FINE:
            raise MalformedCodeError(
                f"occupation code {raw!r} has {len(segments)} segments, maximum is {int(Level.FINE)}"
            )
        return cls(raw=raw, level=Level(len(segments)))

    def parent_raw(self) -> str | None:
        """Code of the immediate parent, or None for large categories."""
        if self.level == Level.LARGE:
            return None
        return self.raw.rsplit("-", 1)[0]

    def __str__(self) -> str:
        return self.raw


class OccupationNode:
    """One node of the taxonomy tree."""

    def __init__(
        self,
        code: OccupationCode,
        title: str,
        description: str,
        excluded: bool,
        children: list[OccupationNode] | None = None,
    ) -> None:
        self.code = code
        self.title = title
        self.description = description
        self.excluded = excluded
        self.children = [] if children is None else children

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Taxonomy:
    """Immutable-after-load occupation tree with code lookup."""

    def __init__(self, roots: list[OccupationNode], index: dict[str, OccupationNode]):
        self.roots = roots
        self.index = index

    def node(self, code: str) -> OccupationNode:
        try:
            return self.index[code]
        except KeyError:
            raise KeyError(f"unknown occupation code {code!r}") from None

    def __contains__(self, code: str) -> bool:
        return code in self.index

    def walk(self) -> Iterable[OccupationNode]:
        """All nodes in depth-first document order."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def nodes_at_level(self, level: Level, include_excluded: bool = False) -> list[OccupationNode]:
        return [
            n
            for n in self.walk()
            if n.code.level == level and (include_excluded or not n.excluded)
        ]

    def leaves(self, include_excluded: bool = False) -> list[OccupationNode]:
        return [
            n for n in self.walk() if n.is_leaf and (include_excluded or not n.excluded)
        ]


_TRUE = {"true", "1", "yes"}
_FALSE = {"false", "0", "no", ""}


def _parse_excluded(value: str) -> bool:
    v = value.strip().lower()
    if v in _TRUE:
        return True
    if v in _FALSE:
        return False
    raise InputFormatError(f"unrecognized excluded flag {value!r}")


def load_taxonomy(source: str | Path | io.TextIOBase) -> Taxonomy:
    """Load and validate a taxonomy document.

    ``source`` is a path or an open text stream of comma-separated rows with
    header ``code,title,description,excluded``, one row per node at any
    level. Parent linkage is the code-prefix relation; rows may appear in
    any order. Exclusion flags propagate to all descendants.

    Raises ``MalformedCodeError``, ``DuplicateCodeError`` or
    ``OrphanCodeError`` (each carrying the offending line number), or
    ``InputFormatError`` for header/flag problems.
    """
    if isinstance(source, (str, Path)):
        with open_text(source, newline="") as handle:
            return _load(handle, str(source))
    return _load(source, getattr(source, "name", None))


def _load(handle: Iterable[str], path: str | None) -> Taxonomy:
    reader = csv.DictReader(handle)
    with located(path, reader):
        required = {"code", "title", "description", "excluded"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise InputFormatError(
                f"taxonomy header must contain {sorted(required)}, got {reader.fieldnames}",
                line=1,
            )

        rows: list[tuple[int, OccupationCode, str, str, bool]] = []
        seen: dict[str, int] = {}
        for row in reader:
            line = reader.line_num
            code = OccupationCode.parse(row["code"] or "")
            if code.raw in seen:
                raise DuplicateCodeError(
                    f"duplicate occupation code {code.raw!r} (first seen on line {seen[code.raw]})"
                )
            seen[code.raw] = line
            excluded = _parse_excluded(row["excluded"] or "")
            rows.append((line, code, row["title"] or "", row["description"] or "", excluded))

        index: dict[str, OccupationNode] = {}
        for _, code, title, description, excluded in rows:
            index[code.raw] = OccupationNode(code, title, description, excluded)

        roots: list[OccupationNode] = []
        for line, code, _, _, _ in rows:
            node = index[code.raw]
            parent_raw = code.parent_raw()
            if parent_raw is None:
                roots.append(node)
                continue
            parent = index.get(parent_raw)
            if parent is None:
                raise OrphanCodeError(
                    f"occupation code {code.raw!r} has no parent {parent_raw!r} in the document",
                    line=line,
                )
            parent.children.append(node)

    # Exclusion is inherited: a subtree rooted at an excluded node is excluded.
    def _propagate(node: OccupationNode, excluded: bool) -> None:
        node.excluded = node.excluded or excluded
        for child in node.children:
            _propagate(child, node.excluded)

    for root in roots:
        _propagate(root, False)

    return Taxonomy(roots, index)


def aggregate_up(taxonomy: Taxonomy, fine_scores: Mapping[str, float]) -> dict[str, float]:
    """Roll leaf scores up the hierarchy by unweighted child means.

    ``fine_scores`` maps leaf codes (fine categories in a full taxonomy) to
    scores in [0, 1]. Every internal node receives the arithmetic mean of
    its immediate children's scores, level by level; excluded subtrees are
    skipped and receive no score. Returns scores for every non-excluded
    node, leaves included.
    """
    result: dict[str, float] = {}

    def _score(node: OccupationNode) -> float:
        if node.is_leaf:
            if node.code.raw not in fine_scores:
                raise MissingScoreError(
                    f"no score for non-excluded leaf occupation {node.code.raw!r}"
                )
            value = float(fine_scores[node.code.raw])
            if not 0.0 <= value <= 1.0:
                raise ComputationError(
                    f"score {value} for {node.code.raw!r} is outside [0, 1]"
                )
        else:
            child_scores = [_score(c) for c in node.children if not c.excluded]
            if not child_scores:
                raise ComputationError(
                    f"all children of {node.code.raw!r} are excluded, nothing to average"
                )
            value = sum(child_scores) / len(child_scores)
        result[node.code.raw] = value
        return value

    for root in taxonomy.roots:
        if not root.excluded:
            _score(root)
    return result
