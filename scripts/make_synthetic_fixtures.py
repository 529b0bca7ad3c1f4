#!/usr/bin/env python3
"""Regenerate the synthetic fixture inputs bundled with the package.

Produces, deterministically from --seed:

- taxonomy_full_synthetic.csv: a four-level taxonomy whose category counts
  match the 2022 occupational classification (8 large, 79 medium, 449
  small, 1636 fine; 1606 fine categories outside the three excluded large
  categories). Large and medium titles are real; small/fine node titles and
  all descriptions are generated placeholders, NOT dictionary content.
- demo_intensity15x63.csv: random industry x occupation employment shares
  over the 15 bundled industries and 63 medium categories. Demonstration
  data only; does not reproduce any survey.
- demo_demographics.csv: random age-group x industry employment shares.
- demo_scenario.json: 15-sector adoption scenario whose exposures are the
  demo intensity matrix applied to the bundled ensemble scores, computed as
  ``industry`` computes them.
- demo_sectors.json: the same scenario without exposures; ``simulate`` and
  ``contour`` take them from ``industry`` output via ``--industry-scores``.
- demo_mock.json: scripted mock-client answers for the 63 medium codes.

Run from the repository root:

    python scripts/make_synthetic_fixtures.py [--seed N] [--outdir DIR]
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from pathlib import Path

from lmexposure import aggregate as agg
from lmexposure import scores as sc
from lmexposure import taxonomy as tax
from lmexposure.fixtures import fixture_path

DEFAULT_SEED = 20240817

# Medium/small/fine counts inside the three excluded large categories,
# chosen so the totals hit 79/449/1636 with 1606 non-excluded fine nodes.
EXCLUDED_SHAPE = {
    "1": {"medium": 14, "small": 25, "fine": 28},
    "7": {"medium": 1, "small": 1, "fine": 1},
    "8": {"medium": 1, "small": 1, "fine": 1},
}
TOTAL_SMALL = 449
TOTAL_FINE = 1636


def _distribute(rng: random.Random, total: int, parents: list[str]) -> dict[str, int]:
    """Give every parent one child, then spread the remainder randomly."""
    counts = {p: 1 for p in parents}
    for _ in range(total - len(parents)):
        counts[rng.choice(parents)] += 1
    return counts


def build_full_taxonomy(rng: random.Random, outdir: Path) -> None:
    base = tax.load_taxonomy(fixture_path("taxonomy_medium63.csv"))
    rows: list[tuple[str, str, str, str]] = []

    def add(code: str, title: str, excluded: bool = False) -> None:
        rows.append((code, title, f"Synthetic description for {title} ({code}).",
                     "true" if excluded else "false"))

    medium_codes: list[str] = []
    for root in base.roots:
        add(root.code.raw, root.title, excluded=root.excluded)
        if root.excluded:
            shape = EXCLUDED_SHAPE[root.code.raw]
            for i in range(shape["medium"]):
                code = f"{root.code.raw}-{i + 1:02d}"
                add(code, f"Synthetic medium category {code}")
                medium_codes.append(code)
        else:
            for child in root.children:
                add(child.code.raw, child.title)
                medium_codes.append(child.code.raw)

    excluded_medium = [c for c in medium_codes if c.split("-")[0] in EXCLUDED_SHAPE]
    included_medium = [c for c in medium_codes if c not in excluded_medium]

    # Small level: pinned counts inside excluded subtrees, random elsewhere.
    small_codes: list[str] = []
    small_counts: dict[str, int] = {}
    for large, shape in EXCLUDED_SHAPE.items():
        mediums = [c for c in excluded_medium if c.startswith(f"{large}-")]
        small_counts.update(_distribute(rng, shape["small"], mediums))
    excluded_small_total = sum(shape["small"] for shape in EXCLUDED_SHAPE.values())
    small_counts.update(
        _distribute(rng, TOTAL_SMALL - excluded_small_total, included_medium)
    )
    for medium in medium_codes:
        for i in range(small_counts[medium]):
            code = f"{medium}-{i + 1:02d}"
            add(code, f"Synthetic small category {code}")
            small_codes.append(code)

    # Fine level.
    fine_counts: dict[str, int] = {}
    excluded_small = [c for c in small_codes if c.split("-")[0] in EXCLUDED_SHAPE]
    included_small = [c for c in small_codes if c not in excluded_small]
    for large, shape in EXCLUDED_SHAPE.items():
        smalls = [c for c in excluded_small if c.startswith(f"{large}-")]
        fine_counts.update(_distribute(rng, shape["fine"], smalls))
    excluded_fine_total = sum(shape["fine"] for shape in EXCLUDED_SHAPE.values())
    fine_counts.update(
        _distribute(rng, TOTAL_FINE - excluded_fine_total, included_small)
    )
    for small in small_codes:
        for i in range(fine_counts[small]):
            code = f"{small}-{i + 1:02d}"
            add(code, f"Synthetic fine occupation {code}")

    out = outdir / "taxonomy_full_synthetic.csv"
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["code", "title", "description", "excluded"])
        writer.writerows(rows)

    check = tax.load_taxonomy(out)
    fine = check.nodes_at_level(tax.Level.FINE)
    assert len(fine) == 1606, f"expected 1606 non-excluded fine nodes, got {len(fine)}"
    assert len(check.nodes_at_level(tax.Level.FINE, include_excluded=True)) == TOTAL_FINE
    assert len(check.nodes_at_level(tax.Level.SMALL, include_excluded=True)) == TOTAL_SMALL
    assert len(check.nodes_at_level(tax.Level.MEDIUM, include_excluded=True)) == 79
    assert len(check.roots) == 8
    print(f"wrote {out} ({len(rows)} nodes, 1606 non-excluded fine)")


def _random_stochastic_row(rng: random.Random, n: int, support: int) -> list[float]:
    """Sparse positive row summing to 1 at full float precision."""
    weights = [0.0] * n
    for j in rng.sample(range(n), support):
        weights[j] = rng.uniform(0.2, 1.0)
    total = sum(weights)
    return [w / total for w in weights]


def build_demo_matrices(rng: random.Random, outdir: Path) -> None:
    with open(fixture_path("industries15.csv"), encoding="utf-8", newline="") as handle:
        industries = [row["industry_id"] for row in csv.DictReader(handle)]
    table = sc.read_score_table(fixture_path("medium63_scores.csv"))
    codes = [row.code for row in table.rows]

    out = outdir / "demo_intensity15x63.csv"
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["industry_id"] + codes)
        for ind in industries:
            row = _random_stochastic_row(rng, len(codes), rng.randint(8, 20))
            writer.writerow([ind] + [repr(v) for v in row])
    matrix = agg.IntensityMatrix.from_csv(out)
    print(f"wrote {out} ({len(industries)}x{len(codes)})")

    age_groups = ["16-19", "20-24", "25-34", "35-44", "45-54", "55-64", "65+"]
    out = outdir / "demo_demographics.csv"
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["age_group"] + industries)
        for group in age_groups:
            row = _random_stochastic_row(rng, len(industries), rng.randint(6, 15))
            writer.writerow([group] + [repr(v) for v in row])
    agg.DemographicShares.from_csv(out)
    print(f"wrote {out} ({len(age_groups)}x{len(industries)})")

    # The exposures are what ``industry --full-precision`` writes for these inputs.
    exposure = agg.industry_exposure(matrix, table.column("ensemble"))
    raw_shares = [rng.uniform(0.5, 1.5) for _ in industries]
    total = sum(raw_shares)
    sectors = [
        {"id": ind, "share": share / total, "delta": round(rng.uniform(0.05, 0.5), 4)}
        for ind, share in zip(industries, raw_shares)
    ]
    scenario = {
        "rho": 1.0,
        "law": "exponential",
        "sectors": [
            {"id": s["id"], "share": s["share"], "exposure": exposure[s["id"]], "delta": s["delta"]}
            for s in sectors
        ],
    }
    out = outdir / "demo_scenario.json"
    out.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} (15 sectors)")

    unexposed = {
        "description": "Synthetic demonstration scenario: demo_scenario.json without its "
        "exposures; simulate and contour take them from industry output, given as "
        "--industry-scores.",
        "rho": 1.0,
        "law": "exponential",
        "sectors": sectors,
    }
    out = outdir / "demo_sectors.json"
    out.write_text(json.dumps(unexposed, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} (15 sectors without exposures)")


def build_demo_mock(rng: random.Random, outdir: Path) -> None:
    table = sc.read_score_table(fixture_path("medium63_scores.csv"))
    wrappers = [
        "{token}",
        "The answer is {token}.",
        "Category: {token}",
        "After weighing the description, I assign {token}",
    ]
    answers = {}
    for row in table.rows:
        answers[row.code] = [
            rng.choice(wrappers).format(token=rng.choice(["E0", "E1", "E2", "E3"]))
            for _ in range(8)
        ]
    out = outdir / "demo_mock.json"
    out.write_text(
        json.dumps({"kind": "scripted", "answers": answers}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {out} (scripted answers for {len(answers)} occupations)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--outdir",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src" / "lmexposure" / "fixtures",
    )
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    build_full_taxonomy(rng, args.outdir)
    build_demo_matrices(rng, args.outdir)
    build_demo_mock(rng, args.outdir)


if __name__ == "__main__":
    main()
