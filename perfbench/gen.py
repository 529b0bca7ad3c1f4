"""Seeded benchmark inputs.

Everything here is derived from the seed alone: the generator never reads
the package's bundled fixtures (the shapes it needs are constants below), so
a fixture edit cannot silently change a workload, and it never writes there.
Only the standard library is used, so the benchmark process itself never
imports the package it measures.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

# Medium categories per non-excluded large category in the bundled
# taxonomy_medium63.csv slice (2-01..2-10, 3-01..3-03, ...): 63 codes.
MEDIUM63_SHAPE = {"2": 10, "3": 3, "4": 14, "5": 5, "6": 31}

# Shape of taxonomy_full_synthetic.csv: 8 large, 79 medium, 449 small and
# 1,636 fine categories; large categories 1, 7 and 8 are excluded, and the
# fine level outside them has 1,606 nodes.
EXCLUDED_SHAPE = {
    "1": {"medium": 14, "small": 25, "fine": 28},
    "7": {"medium": 1, "small": 1, "fine": 1},
    "8": {"medium": 1, "small": 1, "fine": 1},
}
TOTAL_SMALL = 449
TOTAL_FINE = 1636
FULL_LEAVES = 1606
INDUSTRIES = [str(i) for i in range(1, 16)]


def medium63_codes() -> list[str]:
    return [
        f"{large}-{i:02d}" for large, count in MEDIUM63_SHAPE.items() for i in range(1, count + 1)
    ]


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _spread(rng: random.Random, total: int, parents: list[str]) -> dict[str, int]:
    """One child per parent, the remainder spread at random."""
    counts = {p: 1 for p in parents}
    for _ in range(total - len(parents)):
        counts[rng.choice(parents)] += 1
    return counts


def full_taxonomy_rows(rng: random.Random) -> list[tuple[str, str, str, str]]:
    """A four-level taxonomy with the counts of taxonomy_full_synthetic.csv."""
    large = [str(i) for i in range(1, 9)]
    medium: dict[str, list[str]] = {}
    for code in large:
        count = EXCLUDED_SHAPE[code]["medium"] if code in EXCLUDED_SHAPE else MEDIUM63_SHAPE[code]
        medium[code] = [f"{code}-{i:02d}" for i in range(1, count + 1)]

    def children(level: str, parents_by_large: dict[str, list[str]], total: int):
        out: dict[str, list[str]] = {}
        included = [p for code in large if code not in EXCLUDED_SHAPE for p in parents_by_large[code]]
        counts = _spread(rng, total - sum(s[level] for s in EXCLUDED_SHAPE.values()), included)
        for code, shape in EXCLUDED_SHAPE.items():
            counts.update(_spread(rng, shape[level], parents_by_large[code]))
        for code in large:
            out[code] = [
                f"{p}-{i:02d}" for p in parents_by_large[code] for i in range(1, counts[p] + 1)
            ]
        return out

    small = children("small", medium, TOTAL_SMALL)
    fine = children("fine", small, TOTAL_FINE)
    rows = []
    for code in large:
        excluded = "true" if code in EXCLUDED_SHAPE else "false"
        rows.append((code, f"Large category {code}", f"Benchmark large category {code}.", excluded))
        for level in (medium, small, fine):
            for child in level[code]:
                rows.append((child, f"Occupation {child}", f"Benchmark occupation {child}.", "false"))
    return rows


def _stochastic_row(rng: random.Random, n: int, support: int) -> list[float]:
    weights = [0.0] * n
    for j in rng.sample(range(n), support):
        weights[j] = rng.uniform(0.2, 1.0)
    total = math.fsum(weights)
    return [w / total for w in weights]


def make_full_taxonomy_inputs(seed: int, outdir: Path) -> dict[str, Path]:
    """Taxonomy, score table, 15 x 1,606 intensity matrix, 1,606-sector scenario."""
    rng = random.Random(f"full_taxonomy_scale:{seed}")
    outdir.mkdir(parents=True, exist_ok=True)
    rows = full_taxonomy_rows(rng)
    excluded_large = set(EXCLUDED_SHAPE)
    leaves = [r[0] for r in rows if r[0].count("-") == 3 and r[0].split("-")[0] not in excluded_large]
    if len(leaves) != FULL_LEAVES:
        raise RuntimeError(f"generated {len(leaves)} leaves, expected {FULL_LEAVES}")
    paths = {
        "taxonomy": outdir / "taxonomy_full.csv",
        "scores": outdir / "scores_full.csv",
        "intensity": outdir / "intensity15x1606.csv",
        "scenario": outdir / "scenario1606.json",
    }
    _write_csv(paths["taxonomy"], ["code", "title", "description", "excluded"], rows)

    score_rows = []
    for code in leaves:
        models = [round(rng.random(), 4) for _ in range(3)]
        expert = round(rng.random(), 4)
        ensemble = sum(models) / 3
        score_rows.append(
            [code, f"Occupation {code}", f"{expert:.4f}", *(f"{m:.4f}" for m in models), f"{ensemble:.4f}"]
        )
    _write_csv(
        paths["scores"],
        ["code", "title", "expert", "glm", "gpt4", "internlm", "ensemble"],
        score_rows,
    )

    _write_csv(
        paths["intensity"],
        ["industry_id"] + leaves,
        (
            [ind] + [repr(v) for v in _stochastic_row(rng, len(leaves), rng.randint(50, 400))]
            for ind in INDUSTRIES
        ),
    )

    raw_shares = [rng.uniform(0.5, 1.5) for _ in leaves]
    total = math.fsum(raw_shares)
    scenario = {
        "rho": 1.0,
        "law": "exponential",
        "sectors": [
            {
                "id": code,
                "share": share / total,
                "exposure": rng.random(),
                "delta": round(rng.uniform(0.05, 0.5), 4),
            }
            for code, share in zip(leaves, raw_shares)
        ],
    }
    paths["scenario"].write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
    return paths


def make_outcome_file(seed: int, path: Path) -> Path:
    """Salary per medium category for the demo chain's scatter report."""
    rng = random.Random(f"demo_chain:{seed}")
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(
        path,
        ["code", "salary"],
        ([code, f"{rng.lognormvariate(math.log(8000), 0.4):.2f}"] for code in medium63_codes()),
    )
    return path
