"""Reference readers and writers for the fast paths of the full-size commands.

Readers take a code cell in plain form as the code, without
``OccupationCode.parse``; the score-table writer quotes a title itself,
without ``csv.writer``; ``recompute_ensemble`` copies each row's scores; the
correlation panel computes each column's moments once. Each reference below
is the straightforward per-cell or per-pair version, and hypothesis checks
that the package returns the same values to the bit, or raises the same
class with the same message on the same line.
"""

from __future__ import annotations

import csv
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from lmexposure.aggregate import IntensityMatrix
from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.labor_stats import (
    ConstantSeriesError,
    CorrResult,
    _t_tail_p,
    correlation_panel,
    stars_for,
)
from lmexposure.scores import (
    MODEL_COLUMNS,
    SCORE_COLUMNS,
    SCORE_TABLE_HEADER,
    ScoreRow,
    ScoreTable,
    read_score_table,
    recompute_ensemble,
    render_score_table,
)
from lmexposure.taxonomy import MalformedCodeError

# --- references ------------------------------------------------------------------


class Refused(Exception):
    """What a reference reader refuses: (class, message, line)."""


def _code(cell: str) -> str:
    raw = cell.strip()
    if not re.match(r"^\d+(-\d+)*$", raw):
        raise Refused(MalformedCodeError, f"malformed occupation code {raw!r}")
    n = raw.count("-") + 1
    if n > 4:
        raise Refused(MalformedCodeError, f"occupation code {raw!r} has {n} segments, maximum is 4")
    return raw


def _score(cell: str, name: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise Refused(InputFormatError, f"{name} value {text!r} is not a finite number")
    if not 0.0 <= value <= 1.0:
        raise Refused(InputFormatError, f"{name} value {value} is outside [0, 1]")
    return value


def reference_score_table(text: str):
    """Rows as (code, title, scores), or (class, message, line)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows, seen = [], set()
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != 7:
                raise Refused(InputFormatError, f"expected 7 cells, got {len(row)}")
            code = _code(row[0])
            if code in seen:
                raise Refused(InputFormatError, f"duplicate code {code!r}")
            seen.add(code)
            scores = {}
            for name, cell in zip(SCORE_COLUMNS, row[2:]):
                value = _score(cell, name)
                if value is not None:
                    scores[name] = value
        except Refused as refused:
            cls, message = refused.args
            return cls, message, reader.line_num
        rows.append((code, row[1], scores))
    return rows


def reference_cell(value: float | None, full_precision: bool) -> str:
    if value is None:
        return ""
    return repr(value) if full_precision else f"{value:.4f}"


def reference_render(table: ScoreTable, full_precision: bool) -> str:
    """Each line as ``csv.writer`` writes it with CRLF line ends, which quotes a
    title holding a bare carriage return too, then ended in a newline."""
    lines = []
    for row in [SCORE_TABLE_HEADER, *table.rows]:
        if isinstance(row, ScoreRow):
            scores = [reference_cell(row.scores.get(n), full_precision) for n in SCORE_COLUMNS]
            row = [row.code, row.title, *scores]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


def reference_ensemble(scores: dict[str, float]) -> dict[str, float]:
    kept = {name: v for name, v in scores.items() if name != "ensemble"}
    models = {name: v for name, v in kept.items() if name in MODEL_COLUMNS}
    if models:
        kept["ensemble"] = sum(models.values()) / len(models)
    return kept


def reference_pearson(x: list[float], y: list[float]) -> CorrResult:
    n = len(x)
    if n < 3:
        raise ComputationError(f"need at least 3 pairs for a correlation, got {n}")
    mx, my = sum(x) / n, sum(y) / n
    sxx = sum([(a - mx) ** 2 for a in x])
    syy = sum([(b - my) ** 2 for b in y])
    if sxx == 0.0 or syy == 0.0:
        raise ConstantSeriesError("correlation undefined for a constant series")
    sxy = sum([(a - mx) * (b - my) for a, b in zip(x, y)])
    r = sxy / (math.sqrt(sxx * syy) or math.sqrt(sxx) * math.sqrt(syy))
    r = max(-1.0, min(1.0, r))
    p = 0.0 if abs(r) == 1.0 else _t_tail_p(r * math.sqrt(n - 2) / math.sqrt(1.0 - r * r), n - 2)
    return CorrResult(r, n, p, stars_for(p))


def reference_panel(columns: dict[str, dict[str, float]]) -> dict[tuple[str, str], CorrResult]:
    """``pearson`` on every pair in panel order, the diagonal included."""
    names = list(columns)
    panel = {}
    for i, a in enumerate(names):
        for b in names[i:]:
            common = sorted(set(columns[a]) & set(columns[b]))
            xs = [columns[a][c] for c in common]
            result = reference_pearson(xs, [columns[b][c] for c in common])
            if a == b:  # r is 1 up to rounding; the panel states it exactly
                result = CorrResult(1.0, result.n, 0.0, stars_for(0.0))
            panel[(a, b)] = panel[(b, a)] = result
    return panel


def reference_header(columns: list[str]):
    """Column codes of an intensity header, or (class, message, line)."""
    try:
        codes = [_code(c) for c in columns]
    except Refused as refused:
        return (*refused.args, 1)
    repeated = [c for i, c in enumerate(codes) if c in codes[:i]]
    if repeated:
        return InputFormatError, f"header names column {repeated[0]!r} twice", 1
    levels = {c.count("-") for c in codes}
    if len(levels) > 1:
        names = sorted(("LARGE", "MEDIUM", "SMALL", "FINE")[n] for n in levels)
        return InputFormatError, f"occupation columns mix taxonomy levels {names}", None
    return codes


# --- draws -----------------------------------------------------------------------

# Decimal digits of other scripts: str.isdecimal and regex \d accept them.
_DIGITS = {"ascii": "0123456789", "arabic": "٠١٢٣٤٥٦٧٨٩", "fullwidth": "０１２３４５６７８９"}


@st.composite
def plain_codes(draw) -> str:
    """1 to 5 segments of 1 or 2 digits, in one script."""
    segments = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    text = "-".join(f"{s:02d}" if draw(st.booleans()) else str(s) for s in segments)
    digits = _DIGITS[draw(st.sampled_from(sorted(_DIGITS)))]
    return text.translate(str.maketrans("0123456789", digits))


codes = st.one_of(
    plain_codes(),
    plain_codes(),
    st.tuples(st.sampled_from([" ", "\t"]), plain_codes()).map("".join),  # padded
    st.tuples(plain_codes(), st.sampled_from([" ", "  "])).map("".join),
    st.sampled_from(["2-x", "", "-", "2--1", "²", "1-²", "2-01-"]),
)

# Cells that load, and cells that are empty or refused.
GOOD = ["0", "1", "0.5", "-0.0", "1e-3", " 0.25 ", "0.1234567", "٠.٥"]
BAD = ["", " ", "nan", "inf", "-inf", "1.0000001", "abc", "-0.5", "1e400"]
good_cells = st.one_of(st.sampled_from(GOOD), st.floats(0.0, 1.0).map(repr))
titles = st.sampled_from(["T", "", "Doctors, nurses", 'say "hi"', "a\nb", " padded "])


@st.composite
def score_cells(draw) -> list[str]:
    """Five cells that load, often with one empty or bad cell, rarely a row of another width."""
    cells = draw(st.lists(good_cells, min_size=5, max_size=5))
    if draw(st.booleans()):
        cells[draw(st.integers(0, 4))] = draw(st.sampled_from(BAD))
    if draw(st.integers(0, 9)) == 0:
        cells = cells[: draw(st.integers(0, 4))] if draw(st.booleans()) else cells + ["0.5"]
    return cells


@st.composite
def table_texts(draw) -> str:
    rows = draw(st.lists(st.tuples(codes, titles, score_cells()), max_size=4))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCORE_TABLE_HEADER)
    for code, title, row_cells in rows:
        writer.writerow([code, title, *row_cells])
    return buffer.getvalue()


# --- checks ----------------------------------------------------------------------

# Hypothesis's explain phase does not finish on a failure in these draws.
ORACLE = settings(
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


def _bits(scores: dict[str, float]) -> list[tuple[str, str]]:
    return [(name, value.hex()) for name, value in scores.items()]


@settings(ORACLE, max_examples=250)
@given(text=table_texts())
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,,0.5,,,\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n 2-01 ,T,-0.0,1e-3,1,0,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,nan,0.5,0.5,0.5,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,0.5,0.2,nan,0.5,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,0.5,0.2,0.3,inf,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,0.5,0.2,0.3,abc,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n2-01,T,0.5,1.0000001,0,1,\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n٢-٠١,T,0.5,0.5,0.5,0.5,0.5\n")
@example(text="code,title,expert,glm,gpt4,internlm,ensemble\n1-2-3-4-5,T,0,0,0,0,0\n")
def test_score_table_reader_matches_the_per_cell_reference(text):
    expected = reference_score_table(text)
    try:
        table = read_score_table(io.StringIO(text, newline=""))
    except InputFormatError as exc:
        cls, message, line = expected
        assert (type(exc), str(exc), exc.line) == (cls, f"<stream>:{line}: {message}", line)
        return
    assert isinstance(expected, list), expected
    got = [(row.code, row.title, _bits(row.scores)) for row in table.rows]
    assert got == [(code, title, _bits(scores)) for code, title, scores in expected]
    for full_precision in (False, True):
        assert render_score_table(table, full_precision) == reference_render(table, full_precision)
    for row, recomputed in zip(table.rows, recompute_ensemble(table).rows):
        assert _bits(recomputed.scores) == _bits(reference_ensemble(row.scores))


score_maps = st.dictionaries(st.sampled_from(SCORE_COLUMNS), st.floats(0.0, 1.0))
any_titles = st.text(alphabet=st.sampled_from('ab ,"\r\n\t'), max_size=6)


@settings(ORACLE, max_examples=200)
@given(rows=st.lists(st.tuples(any_titles, score_maps), max_size=5))
@example(rows=[("a\rb", {"glm": 0.1, "ensemble": 0.1}), ("a,\r", {})])
def test_render_matches_the_csv_writer_on_any_title(rows):
    table = ScoreTable([ScoreRow(f"2-{i:02d}", title, s) for i, (title, s) in enumerate(rows)])
    for full_precision in (False, True):
        assert render_score_table(table, full_precision) == reference_render(table, full_precision)
    text = render_score_table(table, full_precision=True)
    back = read_score_table(io.StringIO(text, newline=""))
    assert [(row.title, dict(_bits(row.scores))) for row in back.rows] == [
        (row.title, dict(_bits(row.scores))) for row in table.rows
    ]


@settings(ORACLE, max_examples=300)
@given(columns=st.lists(codes, min_size=1, max_size=6))
@example(columns=["2-01", " 2-02", "2-01"])
@example(columns=["2-01", "2-01-01"])
@example(columns=["2-01", "2-01-01", "3"])
def test_intensity_header_matches_the_per_cell_reference(columns):
    expected = reference_header(columns)
    text = "industry_id," + ",".join(columns) + "\ni1,1.0" + ",0.0" * (len(columns) - 1) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "intensity.csv"
        path.write_text(text, encoding="utf-8")
        try:
            matrix = IntensityMatrix.from_csv(path)
        except InputFormatError as exc:
            cls, message, line = expected
            where = f"{path}:{line}" if line is not None else str(path)
            assert (type(exc), str(exc), exc.line) == (cls, f"{where}: {message}", line)
            return
    assert isinstance(expected, list), expected
    assert matrix.occupations == expected


values = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))


@settings(ORACLE, max_examples=300)
@given(
    columns=st.lists(
        st.dictionaries(st.sampled_from([f"2-{i:02d}" for i in range(1, 9)]), values),
        min_size=1, max_size=4,
    )
)
@example(columns=[{"2-01": 0.1, "2-02": 0.2, "2-03": 0.4}, {"2-01": 0.5, "2-02": 0.5}])
@example(columns=[{"2-01": 0.1, "2-02": 0.2, "2-03": 0.4}, {"2-01": 0.5, "2-02": 0.5, "2-03": 0.5}])
def test_correlation_panel_matches_pearson_per_pair(columns):
    named = {f"c{i}": column for i, column in enumerate(columns)}
    try:
        expected = reference_panel(named)
    except ComputationError as exc:
        expected = exc
    try:
        panel = correlation_panel(named)
    except ComputationError as exc:
        assert (type(exc), str(exc)) == (type(expected), str(expected))
        return
    assert panel == expected
