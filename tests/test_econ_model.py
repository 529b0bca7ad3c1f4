"""Growth laws, adoption rules, aggregate growth, contour grids, scenarios."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import re
from pathlib import Path

import pytest

from lmexposure.cli import EXIT_OK, main
from lmexposure.econ_model import (
    ExponentialGrowth,
    Sector,
    TabulatedGrowth,
    adopt_decision,
    adoption_threshold,
    aggregate_growth,
    contour_grid,
    load_scenario,
    optimal_decisions,
    sector_damage,
)
from lmexposure.errors import ComputationError, ConfigError, InputFormatError
from lmexposure.fixtures import fixture_path


def _sector(i, share, delta, r):
    return Sector(id=f"s{i}", output_share=share, damage_ratio=delta, exposure=r)


def _grid(hi, points):
    """``points`` evenly spaced values on [0, hi], as ``lo:hi:n`` spaces them."""
    return [hi * i / (points - 1) for i in range(points)]


def _random_economy(rng: random.Random, n: int) -> list[Sector]:
    raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(raw)
    return [
        _sector(i, raw[i] / total, rng.uniform(0.0, 0.6), rng.uniform(0.0, 1.0))
        for i in range(n)
    ]


# --- growth laws ------------------------------------------------------------------


def test_exponential_identity_at_zero():
    assert ExponentialGrowth(rho=1.0)(0.0) == 1.0


def test_exponential_at_one():
    assert ExponentialGrowth(rho=1.0)(1.0) == pytest.approx(2.718281828, abs=1e-9)


def test_exponential_quarter_over_half_rho():
    assert ExponentialGrowth(rho=0.5)(0.25) == pytest.approx(1.6487212707001282, abs=1e-12)


def test_exponential_rejects_bad_args():
    with pytest.raises(ComputationError):
        ExponentialGrowth(rho=0.0)
    with pytest.raises(ComputationError):
        ExponentialGrowth(rho=1.0)(-0.1)


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


def test_threshold_tabulated_by_bisection():
    # g(r) = 1 + r on [0, 2]; adoption pays iff r > delta / (1 - delta).
    law = TabulatedGrowth(points=((0.0, 1.0), (2.0, 3.0)))
    for delta in (0.1, 0.25, 0.5):
        found = adoption_threshold(delta, law)
        assert found == pytest.approx(delta / (1 - delta), abs=1e-9)
    assert adoption_threshold(0.9, law) is None  # needs g > 10, table tops at 3


# --- adoption decisions ---------------------------------------------------------------


def test_adopt_above_threshold():
    law = ExponentialGrowth(rho=1.0)
    assert adopt_decision(_sector(0, 1.0, 0.2, 0.3), law) == 1  # 0.8 e^0.3 ~ 1.08
    assert adopt_decision(_sector(0, 1.0, 0.2, 0.1), law) == 0  # 0.8 e^0.1 ~ 0.88


def test_tie_resolves_to_non_adoption():
    law = ExponentialGrowth(rho=1.0)
    assert adopt_decision(_sector(0, 1.0, 0.0, 0.0), law) == 0  # exactly 1, not strict


def test_threshold_decision_equivalence_on_grid():
    laws = [ExponentialGrowth(rho=rho) for rho in (0.25, 0.5, 1.0, 2.0, 4.0)]
    laws.append(TabulatedGrowth(points=((0.0, 1.0), (0.5, 1.5), (0.75, 1.5), (1.0, 4.0))))
    for law in laws:
        for i in range(51):
            r = i / 50
            for j in range(46):
                delta = 0.9 * j / 45
                threshold = adoption_threshold(delta, law)
                if threshold is None:
                    expected = 0  # adoption never pays within the table
                elif abs(r - threshold) < 1e-9:
                    continue  # boundary points are allowed to go either way
                else:
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
    rows = contour_grid(sectors, ExponentialGrowth(rho=1.0), _grid(0.95, 5), _grid(1.0, 5))
    for row in rows:
        assert row[0] == 1.0


def test_contour_zero_delta_row_non_decreasing():
    rng = random.Random(6)
    sectors = sorted(_random_economy(rng, 15), key=lambda s: s.exposure, reverse=True)
    row = contour_grid(sectors, ExponentialGrowth(rho=1.0), [0.0, 0.5], _grid(1.0, 21))[0]
    assert all(a <= b + 1e-15 for a, b in zip(row, row[1:]))


def test_contour_cells_match_recomputation_oracle():
    rng = random.Random(7)
    sectors = sorted(_random_economy(rng, 15), key=lambda s: s.exposure, reverse=True)
    law = ExponentialGrowth(rho=1.0)
    deltas, ratios = _grid(0.95, 6), _grid(1.0, 6)
    rows = contour_grid(sectors, law, deltas, ratios)
    for i, delta in enumerate(deltas):
        for j, ratio in enumerate(ratios):
            k = math.floor(ratio * len(sectors))
            oracle = 0.0
            for rank, sector in enumerate(sectors):
                if rank < k:
                    oracle += sector.output_share * (1.0 - delta) * math.exp(sector.exposure)
                else:
                    oracle += sector.output_share
            assert rows[i][j] == pytest.approx(oracle, abs=1e-12)


def test_contour_rejects_unsorted_sectors():
    sectors = [_sector(0, 0.5, 0.1, 0.2), _sector(1, 0.5, 0.1, 0.9)]
    with pytest.raises(ComputationError):
        contour_grid(sectors, ExponentialGrowth(rho=1.0), [0.0], [0.0, 1.0])


def test_contour_rejects_empty_grid():
    sectors = [_sector(0, 1.0, 0.1, 0.2)]
    with pytest.raises(ComputationError):
        contour_grid(sectors, ExponentialGrowth(rho=1.0), [], [0.0])


def test_default_grids(tmp_path):
    """Without grid options, ``contour`` spans 21 damage ratios on [0, 0.95] and
    21 adoption ratios on [0, 1], each 0.95 * i / 20 and i / 20 to the last bit."""
    out = tmp_path / "contour.csv"
    scenario = str(fixture_path("demo_scenario.json"))
    assert main(["contour", "--scenario", scenario, "--out", str(out), "--full-precision"]) == EXIT_OK
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    assert header[1:] == [repr(i / 20) for i in range(21)]
    assert [row[0] for row in rows] == [repr(0.95 * i / 20) for i in range(21)]


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
    decisions = optimal_decisions(sectors, law)
    assert all(x in (0, 1) for x in decisions)
    assert aggregate_growth(sectors, law, decisions) >= aggregate_growth(sectors, law, [0] * 9)


def test_demo_scenario_loads():
    sectors, law = load_scenario(fixture_path("demo_scenario.json"))
    assert len(sectors) == 15
    assert isinstance(law, ExponentialGrowth)
    assert sum(s.output_share for s in sectors) == pytest.approx(1.0, abs=1e-9)


def test_every_scenario_the_repository_generates_loads(tmp_path):
    """The bundled scenarios and the benchmark's 1,606-sector one: a reader
    change that refuses one of them fails here, not in a benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    full = gen.make_full_taxonomy_inputs(1, tmp_path / "full")["scenario"]
    industry = tmp_path / "industry.csv"
    argv = ["industry", "--intensity", str(fixture_path("demo_intensity15x63.csv")),
            "--scores", str(fixture_path("medium63_scores.csv")), "--out", str(industry)]
    assert main(argv) == EXIT_OK
    for source, industry_scores, count in (
        (fixture_path("demo_scenario.json"), None, 15),
        (fixture_path("demo_sectors.json"), industry, 15),
        (full, None, 1606),
    ):
        sectors, law = load_scenario(source, industry_scores)
        assert len(sectors) == count and isinstance(law, ExponentialGrowth)


def _write(path, config) -> str:
    path.write_text(json.dumps(config) if not isinstance(config, str) else config)
    return str(path)


# Two sectors that take their exposures from an industry-score file.
UNEXPOSED = {"rho": 2.0, "sectors": [
    {"id": "a", "share": 0.5, "delta": 0.1},
    {"id": "b", "share": 0.5, "delta": 0.2},
]}


def test_scenario_occupation_mix(tmp_path):
    # A mix is no longer read; a scenario that holds one is refused, not run without it.
    scores = _write(tmp_path / "industry.csv", "industry_id,score\na,0.3\n")
    mix = {"2-01": 0.5, "2-02": 0.5}
    for name, sector in (
        ("mix", {"id": "a", "share": 1.0, "delta": 0.1, "occupation_mix": mix}),
        ("both", {"id": "a", "share": 1.0, "delta": 0.1, "exposure": 0.3, "occupation_mix": mix}),
    ):
        path = _write(tmp_path / f"{name}.json", {"sectors": [sector]})
        refused = "^" + re.escape(f"{path}: sector 'a' has keys it does not read: ['occupation_mix']")
        for industry_scores in (None, scores):
            with pytest.raises(InputFormatError, match=refused):
                load_scenario(path, industry_scores)


def test_sectors_without_exposure_take_their_industry_score(tmp_path):
    path = _write(tmp_path / "scenario.json", {
        **UNEXPOSED,
        "sectors": [
            {"id": "a", "share": 0.5, "delta": 0.15},
            {"id": "b", "share": 0.5, "exposure": 0.25, "delta": 0.125},
        ],
    })
    scores = _write(tmp_path / "industry.csv", "industry_id,score\na,0.3\n")
    sectors, law = load_scenario(path, scores)
    assert [(s.id, s.exposure, s.damage_ratio) for s in sectors] == [
        ("a", 0.3, 0.15), ("b", 0.25, 0.125)
    ]
    assert law.rho == 2.0
    # A sector that gives its own exposure takes no score.
    both = _write(tmp_path / "both.csv", "industry_id,score\na,0.3\nb,0.4\n")
    with pytest.raises(InputFormatError, match=re.escape("ids ['b'] are no sector without")):
        load_scenario(path, both)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("a,0.3\n", "no score for sectors ['b'] of scenario "),
        ("a,0.3\nb,0.4\nc,0.5\n", "ids ['c'] are no sector without an exposure in scenario "),
    ],
    ids=["missing id", "extra id"],
)
def test_industry_scores_must_score_exactly_the_sectors_without_exposure(tmp_path, rows, message):
    path = _write(tmp_path / "scenario.json", UNEXPOSED)
    scores = _write(tmp_path / "industry.csv", "industry_id,score\n" + rows)
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{scores}: {message}{path}")):
        load_scenario(path, scores)


def test_a_sector_without_exposure_needs_industry_scores(tmp_path):
    path = _write(tmp_path / "scenario.json", UNEXPOSED)
    refused = "^" + re.escape(f"{path}: sector 'a' needs an exposure")
    with pytest.raises(InputFormatError, match=refused):
        load_scenario(path)


def test_scenario_damage_kappa(tmp_path):
    # Damage ratios are not derived from exposures: a kappa is refused, not applied.
    sector = {"id": "a", "share": 1.0, "exposure": 0.4}
    for name, config in (
        ("alone", {"damage_kappa": 0.5, "sectors": [sector]}),
        ("beside_deltas", {"damage_kappa": 0.5, "sectors": [{**sector, "delta": 0.1}]}),
    ):
        path = _write(tmp_path / f"{name}.json", config)
        refused = "^" + re.escape(f"{path}: scenario has keys it does not read: ['damage_kappa']")
        with pytest.raises(InputFormatError, match=refused):
            load_scenario(path)


def test_scenario_baseline_outputs(tmp_path):
    # Shares are given as shares: a baseline output is refused, not converted.
    sector = {"id": "a", "exposure": 0.1, "delta": 0.0}
    for name, spec in (
        ("alone", {**sector, "baseline_output": 30}),
        ("beside_a_share", {**sector, "baseline_output": 30, "share": 1.0}),
    ):
        path = _write(tmp_path / f"{name}.json", {"sectors": [spec]})
        refused = "^" + re.escape(f"{path}: sector 'a' has keys it does not read: ['baseline_output']")
        with pytest.raises(InputFormatError, match=refused):
            load_scenario(path)


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
    half = {**sector, "share": 0.5}
    malformed = {
        "rho": {"rho": "abc", "sectors": [sector]},
        "top_level": [1],
        "sector": {"sectors": [1]},
        "no_points": {"law": {"kind": "tabulated"}, "sectors": [sector]},
        "short_point": {"law": {"kind": "tabulated", "points": [[0]]}, "sectors": [sector]},
        "bad_point": {"law": {"kind": "tabulated", "points": [["x", 1]]}, "sectors": [sector]},
        "nan_point": {"law": {"kind": "tabulated", "points": [[0, "nan"]]}, "sectors": [sector]},
        "exponential_object": {"law": {"kind": "exponential"}, "sectors": [sector]},
        "top_level_key": {"kappa": 0.5, "sectors": [sector]},
        "sector_key": {"sectors": [{**sector, "mix": {"2-01": 1.0}}]},
        "no_share": {"sectors": [{"id": "a", "exposure": 0.4, "delta": 0.1}]},
        # Industry scores meet sectors by id: a repeat would take one score twice,
        # and an id that is not a string would meet them by its spelling.
        "repeated_id": {"sectors": [half, half]},
        "empty_id": {"sectors": [{**sector, "id": ""}]},
        "numeric_id": {"sectors": [{**half, "id": "2"}, {**half, "id": 2}]},
        # A number is a JSON number: neither a string nor a boolean.
        "string_share": {"sectors": [{**sector, "share": "1"}]},
        "boolean_rho": {"rho": True, "sectors": [sector]},
        "boolean_exposure": {"sectors": [{**sector, "exposure": True}]},
        "boolean_delta": {"sectors": [{**sector, "delta": False}]},
        "string_point": {"law": {"kind": "tabulated", "points": [[0, "1"]]}, "sectors": [sector]},
    }
    for name, config in malformed.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}: ")):
            load_scenario(path)
    with pytest.raises(InputFormatError, match="sector id 'a' appears more than once"):
        load_scenario(tmp_path / "repeated_id.json")
    with pytest.raises(InputFormatError, match="sector 2 needs a non-empty string id, got 2$"):
        load_scenario(tmp_path / "numeric_id.json")
    for name, message in (
        ("string_share", "sector share '1' is not a JSON number"),
        ("boolean_rho", "rho True is not a JSON number"),
        ("boolean_exposure", "sector exposure True is not a JSON number"),
        ("boolean_delta", "sector delta False is not a JSON number"),
        ("string_point", "law point '1' is not a JSON number"),
    ):
        with pytest.raises(InputFormatError, match=re.escape(message) + "$"):
            load_scenario(tmp_path / f"{name}.json")


def test_industry_scores_on_a_scenario_where_every_sector_has_an_exposure_are_refused(tmp_path):
    sector = {"id": "a", "share": 1.0, "exposure": 0.4, "delta": 0.1}
    path = _write(tmp_path / "scenario.json", {"sectors": [sector]})
    scores = _write(tmp_path / "industry.csv", "industry_id,score\na,0.3\n")
    with pytest.raises(ConfigError, match="--industry-scores applies to sectors without an"):
        load_scenario(path, scores)
    sectors, _ = load_scenario(path)
    assert sectors[0].exposure == 0.4
