"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines, or rely
on the per-test verdicts of ``pytest -v``. Each criterion enforces its own
numeric tolerance and runtime budget.
"""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lmexposure.aggregate import DemographicShares, IntensityMatrix, demographic_exposure, industry_exposure
from lmexposure.cli import EXIT_OK, main
from lmexposure.econ_model import (
    ExponentialGrowth,
    Sector,
    adopt_decision,
    aggregate_growth,
    contour_grid,
    optimal_decisions,
)
from lmexposure.labor_stats import pearson, summarize
from lmexposure.scores import MODEL_COLUMNS, ensemble, read_score_table
from lmexposure.taxonomy import aggregate_up, load_taxonomy


@contextmanager
def criterion(number: int, description: str, time_limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None and elapsed >= time_limit:
        print(f"ACCEPTANCE {number} FAIL: {description} (runtime {elapsed:.3f}s over {time_limit}s)")
        raise AssertionError(
            f"criterion {number} exceeded its {time_limit}s budget: {elapsed:.3f}s"
        )
    print(f"ACCEPTANCE {number} PASS: {description} ({elapsed:.3f}s)")


def _grid(hi: float, points: int) -> list[float]:
    """``points`` evenly spaced values on [0, hi], as ``contour``'s ``lo:hi:n`` spaces them."""
    return [hi * i / (points - 1) for i in range(points)]


def test_criterion_1_ensemble_consistency(score_table):
    with criterion(1, "ensemble reproduces the published combined column within 5e-4", 1.0):
        assert len(score_table.rows) == 63
        for row in score_table.rows:
            per_model = {m: row.scores[m] for m in MODEL_COLUMNS}
            assert ensemble(per_model) == pytest.approx(row.scores["ensemble"], abs=5e-4), row.code
        by_code = {row.code: row.scores for row in score_table.rows}
        assert by_code["2-06"]["ensemble"] == pytest.approx(0.4796, abs=5e-4)
        assert by_code["2-08"]["ensemble"] == pytest.approx(0.4805, abs=5e-4)


def test_criterion_2_summary_statistics(score_table):
    expected = {"glm": (0.40, 0.15), "internlm": (0.14, 0.10), "gpt4": (0.22, 0.18)}
    with criterion(2, "per-model means and stds match the medium panel within 0.01", 1.0):
        for model, (mean, std) in expected.items():
            entry = summarize(list(score_table.column(model).values()))
            assert entry.count == 63
            assert entry.mean == pytest.approx(mean, abs=0.01), model
            assert entry.std == pytest.approx(std, abs=0.01), model


def test_criterion_3_correlation_panel(score_table):
    with criterion(3, "correlation panel matches published r values and stars", 1.0):
        codes = sorted(row.code for row in score_table.rows)

        def series(name):
            column = score_table.column(name)
            return [column[c] for c in codes]

        expected = [
            ("glm", "internlm", 0.5938, "***"),
            ("internlm", "gpt4", 0.4807, "***"),
            ("glm", "gpt4", 0.306, "*"),
        ]
        for a, b, r, stars in expected:
            result = pearson(series(a), series(b))
            assert result.r == pytest.approx(r, abs=0.01), (a, b)
            assert result.stars == stars, (a, b)
        expert = pearson(series("ensemble"), series("expert"))
        assert expert.r == pytest.approx(0.65, abs=0.01)


def test_criterion_4_model_identities():
    with criterion(4, "growth identities: g(0)=1, no-adoption=1, engineered doubling=2"):
        law = ExponentialGrowth(rho=1.0)
        assert law(0.0) == 1.0

        rng = random.Random(12)
        raw = [rng.uniform(0.1, 1.0) for _ in range(7)]
        total = sum(raw)
        sectors = [
            Sector(
                id=str(i),
                output_share=raw[i] / total,
                damage_ratio=rng.uniform(0, 0.8),
                exposure=rng.uniform(0, 1),
            )
            for i in range(7)
        ]
        assert aggregate_growth(sectors, law, [0] * 7) == 1.0

        for rho in (0.5, 1.0):  # rho * ln 2 must stay a valid exposure in [0, 1]
            doubling = [
                Sector(id="d", output_share=1.0, damage_ratio=0.0, exposure=rho * math.log(2.0))
            ]
            value = aggregate_growth(doubling, ExponentialGrowth(rho=rho), [1])
            assert value == pytest.approx(2.0, abs=1e-12)


def test_criterion_5_threshold_equivalence():
    with criterion(5, "adopt_decision matches the closed-form threshold on the grid", 1.0):
        rhos = (0.25, 0.5, 1.0, 2.0, 4.0)
        rs = [i / 100 for i in range(101)]
        deltas = [0.9 * j / 100 for j in range(101)]
        checked = 0
        for rho in rhos:
            law = ExponentialGrowth(rho=rho)
            for delta in deltas:
                threshold = rho * math.log(1.0 / (1.0 - delta))
                for r in rs:
                    if abs(r - threshold) < 1e-12:
                        continue
                    sector = Sector(id="x", output_share=1.0, damage_ratio=delta, exposure=r)
                    assert adopt_decision(sector, law) == (1 if r > threshold else 0)
                    checked += 1
        assert checked > 50000


def test_criterion_6_optimality_vs_exhaustive():
    with criterion(6, "per-sector rule attains the exhaustive maximum, 100 economies", 10.0):
        rng = random.Random(2024)
        law = ExponentialGrowth(rho=1.0)
        for _ in range(100):
            n = rng.randint(1, 12)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = sum(raw)
            sectors = [
                Sector(
                    id=str(i),
                    output_share=raw[i] / total,
                    damage_ratio=rng.uniform(0.0, 0.9),
                    exposure=rng.uniform(0.0, 1.0),
                )
                for i in range(n)
            ]
            achieved = aggregate_growth(sectors, law, optimal_decisions(sectors, law))

            keep = [s.output_share for s in sectors]
            adopt = [
                s.output_share * (1.0 - s.damage_ratio) * math.exp(s.exposure)
                for s in sectors
            ]
            best = -math.inf
            for mask in range(1 << n):
                value = 0.0
                for i in range(n):
                    value += adopt[i] if (mask >> i) & 1 else keep[i]
                best = max(best, value)
            assert achieved >= best - 1e-12


def test_criterion_7_contour_correctness():
    with criterion(7, "21x21 contour matches per-cell recomputation within 1e-12", 1.0):
        rng = random.Random(15)
        raw = [rng.uniform(0.2, 1.0) for _ in range(15)]
        total = sum(raw)
        sectors = sorted(
            (
                Sector(
                    id=str(i),
                    output_share=raw[i] / total,
                    damage_ratio=0.0,
                    exposure=rng.uniform(0.0, 1.0),
                )
                for i in range(15)
            ),
            key=lambda s: s.exposure,
            reverse=True,
        )
        law = ExponentialGrowth(rho=1.0)
        deltas, ratios = _grid(0.95, 21), _grid(1.0, 21)
        rows = contour_grid(sectors, law, deltas, ratios)
        assert len(rows) == 21 and len(rows[0]) == 21

        for i, delta in enumerate(deltas):
            for j, ratio in enumerate(ratios):
                k = math.floor(ratio * len(sectors))
                cell = 0.0
                for rank, sector in enumerate(sectors):
                    if rank < k:
                        cell += sector.output_share * (1.0 - delta) * math.exp(sector.exposure)
                    else:
                        cell += sector.output_share
                assert rows[i][j] == pytest.approx(cell, abs=1e-12)

        assert all(row[0] == 1.0 for row in rows)
        zero_delta_row = rows[0]
        assert all(a <= b + 1e-15 for a, b in zip(zero_delta_row, zero_delta_row[1:]))


def test_criterion_8_aggregation_properties():
    with criterion(8, "projections are convex, constants propagate, roll-up matches oracle", 5.0):
        rng = np.random.default_rng(81)

        # Convexity bounds on 1000 random stochastic matrices.
        for trial in range(1000):
            n_rows = int(rng.integers(1, 9))
            n_cols = int(rng.integers(2, 25))
            raw = rng.uniform(0.01, 1.0, size=(n_rows, n_cols))
            matrix = raw / raw.sum(axis=1, keepdims=True)
            values = rng.uniform(0.0, 1.0, n_cols)
            if trial % 2 == 0:
                codes = [f"2-{j + 1:02d}" for j in range(n_cols)]
                m = IntensityMatrix(
                    industries=[f"i{k}" for k in range(n_rows)],
                    occupations=codes,
                    beta=matrix,
                )
                result = industry_exposure(m, dict(zip(codes, values.tolist())))
            else:
                industries = [f"i{k}" for k in range(n_cols)]
                shares = DemographicShares(
                    age_groups=[f"a{k}" for k in range(n_rows)],
                    industries=industries,
                    w=matrix,
                )
                result = demographic_exposure(shares, dict(zip(industries, values.tolist())))
            lo, hi = float(values.min()), float(values.max())
            for v in result.values():
                assert lo - 1e-12 <= v <= hi + 1e-12

        # Constant occupational scores propagate exactly (dyadic shares).
        denom = 1 << 12
        for _ in range(100):
            cuts = np.sort(rng.integers(0, denom + 1, size=9))
            parts = np.diff(np.concatenate([[0], cuts, [denom]]))
            beta = (parts / denom).reshape(1, -1)
            codes = [f"2-{j + 1:02d}" for j in range(beta.shape[1])]
            m = IntensityMatrix(industries=["i1"], occupations=codes, beta=beta)
            c = float(rng.integers(0, denom + 1)) / denom
            result = industry_exposure(m, {code: c for code in codes})
            assert result["i1"] == c

        # Hierarchy roll-up equals the brute-force descendant mean on balanced trees.
        py_rng = random.Random(82)
        for fanouts in ((2, 3), (3, 2, 2), (4,), (2, 2, 2)):
            rows = ["code,title,description,excluded"]
            leaf_scores = {}

            def grow(prefix, level):
                rows.append(f"{prefix},n,d,false")
                if level == len(fanouts):
                    leaf_scores[prefix] = py_rng.uniform(0, 1)
                    return
                for i in range(fanouts[level]):
                    grow(f"{prefix}-{i + 1:02d}", level + 1)

            grow("1", 0)
            import io

            tx = load_taxonomy(io.StringIO("\n".join(rows) + "\n"))
            rolled = aggregate_up(tx, leaf_scores)
            for node in tx.walk():
                leaves = [
                    c
                    for c in leaf_scores
                    if c == node.code.raw or c.startswith(node.code.raw + "-")
                ]
                oracle = sum(leaf_scores[c] for c in leaves) / len(leaves)
                assert rolled[node.code.raw] == pytest.approx(oracle, abs=1e-12)


def test_criterion_9_annotation_determinism(tmp_path):
    with criterion(9, "scripted mock reproduces exact scores with byte-identical outputs"):
        taxonomy_file = tmp_path / "tax.csv"
        taxonomy_file.write_text(
            "code,title,description,excluded\n"
            "2,Pros,top,false\n"
            "2-01,AlwaysE1,Fully automatable paperwork.,false\n"
            "2-02,HalfE1,Mixed manual and text work.,false\n"
        )
        mock_file = tmp_path / "mock.json"
        mock_file.write_text(
            json.dumps(
                {
                    "kind": "scripted",
                    "answers": {"2-01": ["E1"], "2-02": ["E1", "E0"]},
                }
            )
        )

        def run(workdir):
            workdir.mkdir()
            store = workdir / "store.jsonl"
            table = workdir / "scores.csv"
            assert (
                main(
                    [
                        "annotate", "--taxonomy", str(taxonomy_file),
                        "--mock", str(mock_file), "--models", "glm",
                        "--n-samples", "8", "--out", str(store),
                    ]
                )
                == EXIT_OK
            )
            assert (
                main(
                    [
                        "score", "--annotations", str(store),
                        "--taxonomy", str(taxonomy_file), "--out", str(table),
                    ]
                )
                == EXIT_OK
            )
            return store, table

        store_a, table_a = run(tmp_path / "run_a")
        store_b, table_b = run(tmp_path / "run_b")

        scored = read_score_table(table_a)
        by_code = {row.code: row for row in scored.rows}
        assert by_code["2-01"].scores["glm"] == 1.0  # E1 x 8
        assert by_code["2-02"].scores["glm"] == 0.5  # 4 x E1 + 4 x E0

        assert store_a.read_bytes() == store_b.read_bytes()
        assert table_a.read_bytes() == table_b.read_bytes()
        for out_a, out_b in ((store_a, store_b), (table_a, table_b)):
            manifest_a = out_a.parent / (out_a.name + ".manifest.json")
            manifest_b = out_b.parent / (out_b.name + ".manifest.json")
            assert manifest_a.read_bytes() == manifest_b.read_bytes()
