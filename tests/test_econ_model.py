"""Growth laws, adoption rules, aggregate growth, contour grids, scenarios."""

from __future__ import annotations

import json
import math
import random
import re

import pytest

from lmexposure.econ_model import (
    AdoptionScenario,
    ExponentialGrowth,
    Sector,
    TabulatedGrowth,
    UnsupportedLawError,
    adopt_decision,
    adoption_threshold,
    aggregate_growth,
    contour_grid,
    default_delta_grid,
    default_ratio_grid,
    growth_factor,
    load_scenario,
    optimal_decisions,
    sector_damage,
    tabulated_threshold,
)
from lmexposure.errors import ComputationError, InputFormatError
from lmexposure.fixtures import fixture_path


def _sector(i, share, delta, r):
    return Sector(id=f"s{i}", output_share=share, damage_ratio=delta, exposure=r)


def _random_economy(rng: random.Random, n: int) -> list[Sector]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    return [
        _sector(i, raw[i] / total, rng.uniform(0.0, 0.6), rng.uniform(0.0, 1.0))
        for i in range(n)
    ]


# --- growth laws ------------------------------------------------------------------


def test_exponential_identity_at_zero():
    assert growth_factor(ExponentialGrowth(rho=1.0), 0.0) == 1.0


def test_exponential_at_one():
    assert growth_factor(ExponentialGrowth(rho=1.0), 1.0) == pytest.approx(
        2.718281828, abs=1e-9
    )


def test_exponential_quarter_over_half_rho():
    assert growth_factor(ExponentialGrowth(rho=0.5), 0.25) == pytest.approx(
        1.6487212707001282, abs=1e-12
    )


def test_exponential_rejects_bad_args():
    with pytest.raises(ComputationError):
        ExponentialGrowth(rho=0.0)
    with pytest.raises(ComputationError):
        growth_factor(ExponentialGrowth(rho=1.0), -0.1)


def test_tabulated_interpolation():
    law = TabulatedGrowth(points=((0.0, 1.0), (0.5, 2.0), (1.0, 4.0)))
    assert law(0.0) == 1.0
    assert law(0.25) == pytest.approx(1.5)
    assert law(0.75) == pytest.approx(3.0)
    assert law(2.0) == 4.0  # constant beyond the table


def test_tabulated_validation():
    with pytest.raises(ComputationError):
        TabulatedGrowth(points=((0.1, 1.0),))  # must start at 0
    with pytest.raises(ComputationError):
        TabulatedGrowth(points=((0.0, 0.9),))  # factor below 1
    with pytest.raises(ComputationError):
        TabulatedGrowth(points=((0.0, 2.0), (0.5, 1.5)))  # decreasing


def test_growth_laws_are_immutable():
    # Each law is validated once, in its constructor; a later change would skip that.
    exponential = ExponentialGrowth(rho=1.0)
    tabulated = TabulatedGrowth(points=((0.0, 1.0), (1.0, 2.0)))
    for law, field, value in ((exponential, "rho", -1.0), (tabulated, "points", ((0.0, 0.5),))):
        with pytest.raises(AttributeError):
            setattr(law, field, value)
    assert exponential.rho == 1.0 and tabulated.points == ((0.0, 1.0), (1.0, 2.0))


# --- thresholds --------------------------------------------------------------------


def test_threshold_zero_damage():
    assert adoption_threshold(0.0, ExponentialGrowth(rho=1.0)) == 0.0


def test_threshold_examples():
    assert adoption_threshold(0.2, ExponentialGrowth(rho=1.0)) == pytest.approx(
        0.22314355131420976, abs=1e-12
    )
    assert adoption_threshold(0.5, ExponentialGrowth(rho=2.0)) == pytest.approx(
        1.3862943611198906, abs=1e-12
    )


def test_threshold_rejects_full_damage():
    with pytest.raises(ComputationError):
        adoption_threshold(1.0, ExponentialGrowth(rho=1.0))


def test_threshold_requires_exponential_law():
    with pytest.raises(UnsupportedLawError):
        adoption_threshold(0.2, TabulatedGrowth(points=((0.0, 1.0), (1.0, 2.0))))


def test_tabulated_threshold_by_bisection():
    # g(r) = 1 + r on [0, 2]; adoption pays iff r > delta / (1 - delta).
    law = TabulatedGrowth(points=((0.0, 1.0), (2.0, 3.0)))
    for delta in (0.1, 0.25, 0.5):
        found = tabulated_threshold(delta, law)
        assert found == pytest.approx(delta / (1 - delta), abs=1e-9)
    assert tabulated_threshold(0.9, law) is None  # needs g > 10, table tops at 3


# --- adoption decisions ---------------------------------------------------------------


def test_adopt_above_threshold():
    law = ExponentialGrowth(rho=1.0)
    assert adopt_decision(_sector(0, 1.0, 0.2, 0.3), law) == 1  # 0.8 e^0.3 ~ 1.08
    assert adopt_decision(_sector(0, 1.0, 0.2, 0.1), law) == 0  # 0.8 e^0.1 ~ 0.88


def test_tie_resolves_to_non_adoption():
    law = ExponentialGrowth(rho=1.0)
    assert adopt_decision(_sector(0, 1.0, 0.0, 0.0), law) == 0  # exactly 1, not strict


def test_threshold_decision_equivalence_on_grid():
    for rho in (0.25, 0.5, 1.0, 2.0, 4.0):
        law = ExponentialGrowth(rho=rho)
        for i in range(51):
            r = i / 50
            for j in range(46):
                delta = 0.9 * j / 45
                threshold = adoption_threshold(delta, law)
                if abs(r - threshold) < 1e-9:
                    continue  # boundary points are allowed to go either way
                expected = 1 if r > threshold else 0
                assert adopt_decision(_sector(0, 1.0, delta, r), law) == expected


# --- aggregate growth ------------------------------------------------------------------


def test_no_adoption_is_exactly_one():
    rng = random.Random(1)
    sectors = _random_economy(rng, 15)
    law = ExponentialGrowth(rho=1.0)
    assert aggregate_growth(sectors, law, [0] * 15) == 1.0


def test_single_sector_doubling():
    law = ExponentialGrowth(rho=1.0)
    sectors = [_sector(0, 1.0, 0.0, math.log(2.0))]
    assert aggregate_growth(sectors, law, [1]) == pytest.approx(2.0, abs=1e-12)


def test_aggregate_matches_brute_force_oracle():
    rng = random.Random(2)
    sectors = _random_economy(rng, 15)
    law = ExponentialGrowth(rho=0.7)
    decisions = [rng.randint(0, 1) for _ in range(15)]
    oracle = 0.0
    for sector, x in zip(sectors, decisions):
        term = 1.0 - x + x * (1.0 - sector.damage_ratio) * math.exp(sector.exposure / 0.7)
        oracle += sector.output_share * term
    assert aggregate_growth(sectors, law, decisions) == pytest.approx(oracle, abs=1e-12)


def test_share_sum_violation_rejected():
    sectors = [_sector(0, 0.6, 0.1, 0.5), _sector(1, 0.3, 0.1, 0.5)]
    with pytest.raises(ComputationError):
        aggregate_growth(sectors, ExponentialGrowth(rho=1.0), [0, 0])


def test_bad_decision_values_rejected():
    sectors = [_sector(0, 1.0, 0.1, 0.5)]
    law = ExponentialGrowth(rho=1.0)
    with pytest.raises(ComputationError):
        aggregate_growth(sectors, law, [2])
    with pytest.raises(ComputationError):
        aggregate_growth(sectors, law, [0, 1])


def test_permutation_invariance():
    rng = random.Random(3)
    sectors = _random_economy(rng, 12)
    law = ExponentialGrowth(rho=1.0)
    decisions = [rng.randint(0, 1) for _ in range(12)]
    base = aggregate_growth(sectors, law, decisions)
    order = list(range(12))
    rng.shuffle(order)
    permuted = aggregate_growth(
        [sectors[i] for i in order], law, [decisions[i] for i in order]
    )
    assert permuted == pytest.approx(base, abs=1e-12)


def test_marginal_sector_effect():
    rng = random.Random(4)
    sectors = _random_economy(rng, 10)
    law = ExponentialGrowth(rho=1.0)
    base_decisions = [0] * 10
    base = aggregate_growth(sectors, law, base_decisions)
    for k, sector in enumerate(sectors):
        forced = base_decisions[:]
        forced[k] = 1
        delta_g = aggregate_growth(sectors, law, forced) - base
        expected = sector.output_share * (
            (1.0 - sector.damage_ratio) * law(sector.exposure) - 1.0
        )
        assert delta_g == pytest.approx(expected, abs=1e-12)
        threshold = adoption_threshold(sector.damage_ratio, law)
        if abs(sector.exposure - threshold) > 1e-9:
            assert (delta_g > 0) == (sector.exposure > threshold)


# --- optimality --------------------------------------------------------------------


def _exhaustive_max(sectors, law):
    n = len(sectors)
    factors = [
        (s.output_share, s.output_share * (1.0 - s.damage_ratio) * law(s.exposure))
        for s in sectors
    ]
    best = -math.inf
    for mask in range(1 << n):
        total = 0.0
        for i, (keep, adopt) in enumerate(factors):
            total += adopt if (mask >> i) & 1 else keep
        best = max(best, total)
    return best


def test_optimal_decisions_straddling_thresholds():
    law = ExponentialGrowth(rho=1.0)
    sectors = [
        _sector(0, 0.3, 0.2, 0.5),   # above threshold 0.223
        _sector(1, 0.3, 0.2, 0.1),   # below
        _sector(2, 0.4, 0.05, 0.06), # just above threshold 0.0513
    ]
    decisions = optimal_decisions(sectors, law)
    assert decisions == [1, 0, 1]
    achieved = aggregate_growth(sectors, law, decisions)
    assert achieved == pytest.approx(_exhaustive_max(sectors, law), abs=1e-12)


def test_costless_adoption_all_ones():
    law = ExponentialGrowth(rho=1.0)
    sectors = [_sector(i, 0.25, 0.0, 0.2 + 0.1 * i) for i in range(4)]
    assert optimal_decisions(sectors, law) == [1, 1, 1, 1]


def test_no_gain_all_zeros():
    law = ExponentialGrowth(rho=1.0)
    sectors = [_sector(i, 0.25, 0.1 * i, 0.0) for i in range(4)]
    assert optimal_decisions(sectors, law) == [0, 0, 0, 0]


def test_optimality_random_economies():
    rng = random.Random(99)
    law = ExponentialGrowth(rho=1.0)
    for _ in range(30):
        n = rng.randint(1, 8)
        sectors = _random_economy(rng, n)
        achieved = aggregate_growth(sectors, law, optimal_decisions(sectors, law))
        assert achieved >= _exhaustive_max(sectors, law) - 1e-12


# --- contour grid ------------------------------------------------------------------


def test_contour_zero_ratio_column_is_one():
    rng = random.Random(5)
    sectors = sorted(_random_economy(rng, 15), key=lambda s: s.exposure, reverse=True)
    grid = contour_grid(
        sectors, ExponentialGrowth(rho=1.0), default_delta_grid(5), default_ratio_grid(5)
    )
    assert grid.ratio_grid[0] == 0.0
    for row in grid.values:
        assert row[0] == 1.0


def test_contour_zero_delta_row_non_decreasing():
    rng = random.Random(6)
    sectors = sorted(_random_economy(rng, 15), key=lambda s: s.exposure, reverse=True)
    grid = contour_grid(
        sectors, ExponentialGrowth(rho=1.0), [0.0, 0.5], default_ratio_grid(21)
    )
    row = grid.values[0]
    assert all(a <= b + 1e-15 for a, b in zip(row, row[1:]))


def test_contour_cells_match_recomputation_oracle():
    rng = random.Random(7)
    sectors = sorted(_random_economy(rng, 15), key=lambda s: s.exposure, reverse=True)
    law = ExponentialGrowth(rho=1.0)
    grid = contour_grid(sectors, law, default_delta_grid(6), default_ratio_grid(6))
    for i, delta in enumerate(grid.delta_grid):
        for j, ratio in enumerate(grid.ratio_grid):
            k = math.floor(ratio * len(sectors))
            oracle = 0.0
            for rank, sector in enumerate(sectors):
                if rank < k:
                    oracle += sector.output_share * (1.0 - delta) * math.exp(sector.exposure)
                else:
                    oracle += sector.output_share
            assert grid.values[i][j] == pytest.approx(oracle, abs=1e-12)


def test_contour_rejects_unsorted_sectors():
    sectors = [_sector(0, 0.5, 0.1, 0.2), _sector(1, 0.5, 0.1, 0.9)]
    with pytest.raises(ComputationError):
        contour_grid(sectors, ExponentialGrowth(rho=1.0), [0.0], [0.0, 1.0])


def test_contour_rejects_empty_grid():
    sectors = [_sector(0, 1.0, 0.1, 0.2)]
    with pytest.raises(ComputationError):
        contour_grid(sectors, ExponentialGrowth(rho=1.0), [], [0.0])


def test_default_grids():
    deltas = default_delta_grid()
    ratios = default_ratio_grid()
    assert len(deltas) == 21 and deltas[0] == 0.0 and deltas[-1] == pytest.approx(0.95)
    assert len(ratios) == 21 and ratios[0] == 0.0 and ratios[-1] == 1.0


# --- sectors and scenarios ------------------------------------------------------------


def test_sector_validation():
    with pytest.raises(ComputationError):
        _sector(0, 1.0, 1.0, 0.5)  # delta >= 1 rejected at load
    with pytest.raises(ComputationError):
        _sector(0, 1.0, 0.2, 1.5)
    with pytest.raises(ComputationError):
        _sector(0, -0.1, 0.2, 0.5)


def test_sector_damage_diagnostic():
    law = ExponentialGrowth(rho=1.0)
    sector = _sector(0, 0.5, 0.2, 0.3)
    assert sector_damage(sector, law, 0) == 0.0
    assert sector_damage(sector, law, 1) == pytest.approx(
        0.5 * 0.2 * math.exp(0.3), abs=1e-12
    )


def test_scenario_solve_consistency():
    rng = random.Random(8)
    sectors = _random_economy(rng, 9)
    law = ExponentialGrowth(rho=1.0)
    scenario = AdoptionScenario.solve(sectors, law)
    assert scenario.aggregate_growth == aggregate_growth(sectors, law, scenario.decisions)
    assert all(x in (0, 1) for x in scenario.decisions)


def test_demo_scenario_loads():
    sectors, law = load_scenario(fixture_path("demo_scenario.json"))
    assert len(sectors) == 15
    assert isinstance(law, ExponentialGrowth)
    assert sum(s.output_share for s in sectors) == pytest.approx(1.0, abs=1e-9)


def test_scenario_occupation_mix(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "rho": 2.0,
                "sectors": [
                    {
                        "id": "a",
                        "share": 1.0,
                        "delta": 0.1,
                        "occupation_mix": {"2-01": 0.5, "2-02": 0.5},
                    }
                ],
            }
        )
    )
    sectors, law = load_scenario(path, r_occ={"2-01": 0.2, "2-02": 0.4})
    assert sectors[0].exposure == pytest.approx(0.3)
    assert law.rho == 2.0
    with pytest.raises(InputFormatError):
        load_scenario(path)  # mix without scores


def test_scenario_damage_kappa(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "rho": 1.0,
                "damage_kappa": 0.5,
                "sectors": [{"id": "a", "share": 1.0, "exposure": 0.4}],
            }
        )
    )
    sectors, _ = load_scenario(path)
    assert sectors[0].damage_ratio == pytest.approx(0.2)


def test_scenario_baseline_outputs(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "sectors": [
                    {"id": "a", "baseline_output": 30, "exposure": 0.1, "delta": 0.0},
                    {"id": "b", "baseline_output": 70, "exposure": 0.2, "delta": 0.0},
                ]
            }
        )
    )
    sectors, _ = load_scenario(path)
    assert [s.output_share for s in sectors] == pytest.approx([0.3, 0.7])

    # A negative output with a positive total gives a negative share.
    negative = tmp_path / "negative.json"
    negative.write_text(
        json.dumps(
            {
                "sectors": [
                    {"id": "a", "baseline_output": -10, "exposure": 0.1, "delta": 0.0},
                    {"id": "b", "baseline_output": 110, "exposure": 0.2, "delta": 0.0},
                ]
            }
        )
    )
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{negative}: ")):
        load_scenario(negative)


def test_scenario_errors(tmp_path):
    missing_delta = tmp_path / "bad1.json"
    missing_delta.write_text(
        json.dumps({"sectors": [{"id": "a", "share": 1.0, "exposure": 0.4}]})
    )
    with pytest.raises(InputFormatError):
        load_scenario(missing_delta)

    bad_law = tmp_path / "bad2.json"
    bad_law.write_text(json.dumps({"law": "sigmoid", "sectors": []}))
    with pytest.raises(InputFormatError):
        load_scenario(bad_law)

    not_json = tmp_path / "bad3.json"
    not_json.write_text("{nope")
    with pytest.raises(InputFormatError):
        load_scenario(not_json)

    sector = {"id": "a", "share": 1.0, "exposure": 0.4, "delta": 0.1}
    mixed = {"id": "a", "share": 1.0, "occupation_mix": {"2-01": "abc"}, "delta": 0.1}
    malformed = {
        "rho": {"rho": "abc", "sectors": [sector]},
        "top_level": [1],
        "sector": {"sectors": [1]},
        "no_points": {"law": {"kind": "tabulated"}, "sectors": [sector]},
        "short_point": {"law": {"kind": "tabulated", "points": [[0]]}, "sectors": [sector]},
        "bad_point": {"law": {"kind": "tabulated", "points": [["x", 1]]}, "sectors": [sector]},
        "nan_point": {"law": {"kind": "tabulated", "points": [[0, "nan"]]}, "sectors": [sector]},
        "kappa": {"damage_kappa": "abc", "sectors": [{"id": "a", "share": 1.0, "exposure": 0.4}]},
        "mix_weight": {"sectors": [mixed]},
        "mix_shape": {"sectors": [{**mixed, "occupation_mix": [1]}]},
    }
    for name, config in malformed.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}: ")):
            load_scenario(path, r_occ={"2-01": 0.5})


def test_rho_override(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {"rho": 1.0, "sectors": [{"id": "a", "share": 1.0, "exposure": 0.4, "delta": 0.1}]}
        )
    )
    _, law = load_scenario(path, rho_override=3.0)
    assert law.rho == 3.0
