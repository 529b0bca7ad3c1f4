"""Occupational classification tree: codes, loading, validation, score roll-up.

The classification is a four-level hierarchy (large, medium, small, fine).
Codes are dash-separated numeric strings whose segment count encodes the
level ("2" is a large category, "2-06" a medium one, and so on); parentage
is the code-prefix relation. Entire large-category subtrees can be marked
excluded in the source file, which removes them from every downstream
score computation while keeping the tree structurally complete.
"""

from __future__ import annotations

import io
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import CODE_RE, ComputationError, InputFormatError, cells_at, csv_input


class Level(IntEnum):
    """Hierarchy depth, ordered coarse to fine."""

    LARGE = 1
    MEDIUM = 2
    SMALL = 3
    FINE = 4


_LEVELS = tuple(Level)  # indexed by segment count - 1


class MalformedCodeError(InputFormatError):
    """Code string does not match the dash-separated numeric pattern."""


class DuplicateCodeError(InputFormatError):
    """The same code appears on more than one row."""


class OrphanCodeError(InputFormatError):
    """A non-large code whose parent code is absent from the document."""


class MissingScoreError(ComputationError):
    """A non-excluded leaf occupation has no score to aggregate."""


class OccupationCode(NamedTuple):
    """A validated classification code plus its derived level."""

    raw: str
    level: Level

    @classmethod
    def parse(cls, raw: str) -> "OccupationCode":
        if not (CODE_RE.fullmatch(raw) or CODE_RE.fullmatch(raw := raw.strip())):  # plain: as is
            segments = raw.split("-")
            if not all(segment.isdecimal() for segment in segments):  # isdecimal is \d
                raise MalformedCodeError(f"malformed occupation code {raw!r}")
            raise MalformedCodeError(
                f"occupation code {raw!r} has {len(segments)} segments, "
                f"maximum is {int(Level.FINE)}"
            )
        return cls(raw, _LEVELS[raw.count("-")])

    def parent_raw(self) -> str | None:
        """Code of the immediate parent, or None for large categories."""
        parent, dash, _ = self.raw.rpartition("-")
        return parent if dash else None

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

    def leaves(self) -> list[OccupationNode]:
        return [n for n in self.walk() if n.is_leaf and not n.excluded]


# Excluded-flag cells, lower-cased and stripped.
_EXCLUDED = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False, "": False}


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
    columns = ("code", "title", "description", "excluded")
    with csv_input(source) as (header, rows, reader):
        at_code, at_title, at_description, at_excluded = cells_at(header, columns, "taxonomy")

        index: dict[str, OccupationNode] = {}
        lines: dict[str, int] = {}
        for row in rows:
            code = OccupationCode.parse(row[at_code])
            raw = code.raw
            if raw in lines:
                raise DuplicateCodeError(
                    f"duplicate occupation code {raw!r} (first seen on line {lines[raw]})"
                )
            lines[raw] = reader.line_num
            excluded = _EXCLUDED.get(row[at_excluded].strip().lower())
            if excluded is None:
                raise InputFormatError(f"unrecognized excluded flag {row[at_excluded]!r}")
            index[raw] = OccupationNode(code, row[at_title], row[at_description], excluded)

        roots: list[OccupationNode] = []
        for raw, node in index.items():
            parent_raw = node.code.parent_raw()
            if parent_raw is None:
                roots.append(node)
                continue
            parent = index.get(parent_raw)
            if parent is None:
                raise OrphanCodeError(
                    f"occupation code {raw!r} has no parent {parent_raw!r} in the document",
                    line=lines[raw],
                )
            parent.children.append(node)

    # Exclusion is inherited: a subtree rooted at an excluded node is excluded.
    stack = [node for node in index.values() if node.excluded]
    while stack:
        for child in stack.pop().children:
            child.excluded = True
            stack.append(child)

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
