"""Full-size outputs, pinned to the byte.

A seeded score table covers the 1,606 non-excluded leaves of the bundled
``taxonomy_full_synthetic.csv``, and a seeded intensity matrix spreads 15
industries over them. ``score``, ``aggregate``, ``industry`` and ``stats``
run on these at 4 decimals and at ``--full-precision``, and the SHA-256 of
each output is pinned. The readers, the score-table writer and the
correlation panel have fast paths for whole rows and columns; the digests,
taken from the per-cell versions, hold them to the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import random

import pytest

from lmexposure.cli import EXIT_OK, main
from lmexposure.fixtures import fixture_path
from lmexposure.scores import SCORE_TABLE_HEADER
from lmexposure.taxonomy import load_taxonomy

TAXONOMY = str(fixture_path("taxonomy_full_synthetic.csv"))
SEED = 13
INDUSTRIES = 15

# (command, --full-precision) -> SHA-256 of the output, as the per-cell code wrote it.
DIGESTS = {
    ("score", False): "f19c7498e83908f26e08050411fb0a57fe3a0cf7d3aa6d0a2055715890c6c92b",
    ("aggregate", False): "f87fb9274335a59566bcb707c8d9b0408a6dd4cece3b47eab014ba39f5fcc98d",
    ("industry", False): "d45f1ba7b8f0844d2c3219ec48d8a76c1e3d16e128b5386244d9c62d928f4c06",
    ("stats", False): "abcc268014c6fc3cce70220a157ec0cf48b79331af4c75a3f937ddcdd84804f5",
    ("score", True): "db56dea6cdcbaf47d35cd30df7bee49f8f5b2b3b40444a4e97003f75ec16a729",
    ("aggregate", True): "9e8aa192844116cd9d36d7d93c7594c0f78dc61854cd9aec9688dd1f6ebdc074",
    ("industry", True): "003df085492d5cb79e77fb4fb5f7ad516684b1b49bd09b8fef22ddf32609bcdb",
    ("stats", True): "f92a99d459630ad8d62f31849903028fee5341718cd6cb128742ba0d79fc5e9f",
}


def _write_inputs(directory):
    """The seeded score table and intensity matrix; only ``random.random`` draws."""
    leaves = load_taxonomy(TAXONOMY).leaves()
    assert len(leaves) == 1606
    rng = random.Random(SEED)
    table = directory / "scores.csv"
    with open(table, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SCORE_TABLE_HEADER)
        for i, leaf in enumerate(leaves):
            cells = [repr(rng.random()) for _ in range(4)]
            if rng.random() < 0.1:  # a missing score: the per-cell path
                cells[int(rng.random() * 4)] = ""
            if i % 4 == 0 and cells[1]:  # a cell at the published 4 decimals
                cells[1] = f"{float(cells[1]):.4f}"
            title = leaf.title + (' "quoted", too' if i % 50 == 0 else "")
            writer.writerow([leaf.code.raw, title, *cells, "0.5"])
    intensity = directory / "intensity.csv"
    with open(intensity, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["industry_id", *(leaf.code.raw for leaf in leaves)])
        for industry in range(1, INDUSTRIES + 1):
            weights = [rng.random() if rng.random() < 0.12 else 0.0 for _ in leaves]
            total = sum(weights)
            writer.writerow([industry, *(repr(w / total) for w in weights)])
    return table, intensity


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("full")
    table, intensity = _write_inputs(directory)
    out = {}
    for full in (False, True):
        flag = ["--full-precision"] if full else []
        scores = directory / f"score{int(full)}.csv"
        runs = {
            "score": ["score", "--scores", str(table)],
            "aggregate": ["aggregate", "--taxonomy", TAXONOMY, "--scores", str(scores)],
            "industry": ["industry", "--intensity", str(intensity), "--scores", str(scores)],
            "stats": ["stats", "--scores", str(scores)],
        }
        for command, argv in runs.items():
            path = scores if command == "score" else directory / f"{command}{int(full)}.out"
            assert main([*argv, *flag, "--out", str(path)]) == EXIT_OK
            out[(command, full)] = path
    pipeline = directory / "pipeline"
    argv = ["pipeline", "--scores", str(table), "--taxonomy", TAXONOMY, "--intensity",
            str(intensity), "--outdir", str(pipeline), "--full-precision"]
    assert main(argv) == EXIT_OK
    return out, pipeline


@pytest.mark.parametrize("key", list(DIGESTS), ids=lambda k: f"{k[0]}-{'full' if k[1] else '4dp'}")
def test_full_size_output_is_pinned(outputs, key):
    out, _ = outputs
    assert hashlib.sha256(out[key].read_bytes()).hexdigest() == DIGESTS[key]


def test_full_size_pipeline_equals_the_chained_commands(outputs):
    out, pipeline = outputs
    for command, name in (
        ("score", "score_table.csv"),
        ("aggregate", "aggregated_scores.csv"),
        ("industry", "industry_exposure.csv"),
        ("stats", "stats_summary.json"),
    ):
        assert (pipeline / name).read_bytes() == out[(command, True)].read_bytes(), name
