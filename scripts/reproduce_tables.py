#!/usr/bin/env python3
"""Print the medium-category summary and correlation tables from the
bundled reference scores, the way they appear in the source tables.

Usage: python scripts/reproduce_tables.py [--scores PATH]
"""

from __future__ import annotations

import argparse

from lmexposure.labor_stats import correlation_panel, summarize
from lmexposure.scores import read_score_table, recompute_ensemble
from lmexposure.fixtures import fixture_path

# The source tables' column order.
MODELS = ("glm", "internlm", "gpt4")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scores", default=fixture_path("medium63_scores.csv"))
    args = parser.parse_args()

    table = read_score_table(args.scores)
    columns = {name: table.column(name) for name in MODELS}

    print("Medium Categories Occupation Level Exposure")
    print(f"{'':>8}  " + "  ".join(f"{m:>10}" for m in MODELS))
    entries = {m: summarize(list(columns[m].values())) for m in MODELS}
    print(f"{'count':>8}  " + "  ".join(f"{entries[m].count:>10d}" for m in MODELS))
    print(f"{'mean':>8}  " + "  ".join(f"{entries[m].mean:>10.2f}" for m in MODELS))
    print(f"{'std':>8}  " + "  ".join(f"{entries[m].std:>10.2f}" for m in MODELS))

    print("\nMedium Categories Occupation Level Exposure Corr.")
    panel = correlation_panel(columns)
    print(f"{'':>10}  " + "  ".join(f"{m:>14}" for m in MODELS))
    for a in MODELS:
        cells = []
        for b in MODELS:
            result = panel[(a, b)]
            cells.append(f"{result.r:.4f}{result.stars}")
        print(f"{a:>10}  " + "  ".join(f"{c:>14}" for c in cells))

    expert = table.column("expert")
    combined = table.column("ensemble")
    if expert and combined:
        from lmexposure.labor_stats import pearson

        codes = sorted(set(expert) & set(combined))
        result = pearson([combined[c] for c in codes], [expert[c] for c in codes])
        print(f"\nEnsemble vs expert: corr.={result.r:.2f} (n={result.n}, {result.stars})")

    recomputed = recompute_ensemble(table).column("ensemble")
    worst = max(abs(recomputed[c] - v) for c, v in combined.items() if v)
    print(f"Largest ensemble-column discrepancy: {worst:.2e}")


if __name__ == "__main__":
    main()
