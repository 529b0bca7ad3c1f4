"""Static multi-sector AI adoption model.

An economy of sectors with baseline output shares chooses, sector by
sector, whether to switch to the new technology. Switching multiplies the
sector's productivity by a growth law evaluated at the sector's exposure
but destroys a damage-ratio fraction of the new output. Aggregate growth
is the share-weighted sum of per-sector factors; the continuum formulation
is realized as a finite set of sectors with output shares. Adoption is
separable, so the per-sector rule is globally optimal.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

from .errors import (
    ComputationError,
    ConfigError,
    InputFormatError,
    check_sum_to_one,
    json_object,
    located,
    only_keys,
    parse_finite,
)


class _Immutable:
    """A growth law is validated once, in its constructor, so it cannot change."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")

    __delattr__ = __setattr__


class ExponentialGrowth(_Immutable):
    """Productivity multiplier exp(r / rho); steeper for smaller rho."""

    __slots__ = ("rho",)

    def __init__(self, rho: float) -> None:
        if not rho > 0:
            raise ComputationError(f"rho must be positive, got {rho}")
        object.__setattr__(self, "rho", rho)

    def __call__(self, r: float) -> float:
        if r < 0:
            raise ComputationError(f"exposure must be non-negative, got {r}")
        return math.exp(r / self.rho)


class TabulatedGrowth(_Immutable):
    """Piecewise-linear growth law from (exposure, factor) breakpoints.

    The table must start at exposure 0, be non-decreasing in both
    coordinates, and have every factor >= 1. Beyond the last breakpoint the
    factor stays at its final value.
    """

    __slots__ = ("points",)

    def __init__(self, points: tuple[tuple[float, float], ...]) -> None:
        if not points:
            raise ComputationError("tabulated growth law needs at least one point")
        if points[0][0] != 0.0:
            raise ComputationError("tabulated growth law must start at exposure 0")
        last_r = -math.inf
        last_g = -math.inf
        for r, g in points:
            if g < 1.0:
                raise ComputationError(f"growth factor {g} below 1 in table")
            if r <= last_r or g < last_g:
                raise ComputationError("tabulated growth law must be non-decreasing")
            last_r, last_g = r, g
        object.__setattr__(self, "points", points)

    def __call__(self, r: float) -> float:
        if r < 0:
            raise ComputationError(f"exposure must be non-negative, got {r}")
        points = self.points
        if r >= points[-1][0]:
            return points[-1][1]
        for (r0, g0), (r1, g1) in zip(points, points[1:]):
            if r0 <= r <= r1:
                return g0 + (g1 - g0) * (r - r0) / (r1 - r0)
        return points[0][1]


GrowthLaw = ExponentialGrowth | TabulatedGrowth


def adoption_threshold(delta: float, law: GrowthLaw) -> float | None:
    """Exposure above which adoption beats non-adoption, or None if it never does.

    The exponential law has the closed form rho * ln(1/(1-delta)). A
    tabulated law is bisected over its table for the smallest exposure at
    which (1 - delta) * g(r) > 1 holds; the law is non-decreasing and flat
    past its last point, so above the returned exposure adoption always
    pays, and None means it pays nowhere.
    """
    if not 0.0 <= delta < 1.0:
        raise ComputationError(f"damage ratio must be in [0, 1), got {delta}")
    if isinstance(law, ExponentialGrowth):
        return law.rho * math.log(1.0 / (1.0 - delta))
    target = 1.0 / (1.0 - delta)
    lo, hi = 0.0, law.points[-1][0]
    if law(lo) > target:
        return 0.0
    if law(hi) <= target:
        return None
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if law(mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


class Sector:
    """One sector: id, baseline output share, damage ratio, derived exposure."""

    def __init__(self, id: str, output_share: float, damage_ratio: float, exposure: float) -> None:
        self.id = id
        self.output_share = output_share
        self.damage_ratio = damage_ratio
        self.exposure = exposure
        if not 0.0 <= output_share <= 1.0:
            raise ComputationError(f"sector {id!r}: output share {output_share} outside [0, 1]")
        if not 0.0 <= damage_ratio < 1.0:
            raise ComputationError(
                f"sector {id!r}: damage ratio {damage_ratio} outside [0, 1); "
                "damage would meet or exceed output"
            )
        if not 0.0 <= exposure <= 1.0:
            raise ComputationError(f"sector {id!r}: exposure {exposure} outside [0, 1]")


def check_share_sum(sectors: Sequence[Sector]) -> None:
    total = sum(s.output_share for s in sectors)
    check_sum_to_one(total, "sector output shares sum", ComputationError)


def adopt_decision(sector: Sector, law: GrowthLaw) -> int:
    """1 when adoption strictly beats the old technology, else 0.

    The comparison is (1 - delta) * g(r) > 1 with a strict inequality;
    exact ties resolve to non-adoption.
    """
    return 1 if (1.0 - sector.damage_ratio) * law(sector.exposure) > 1.0 else 0


def aggregate_growth(
    sectors: Sequence[Sector], law: GrowthLaw, decisions: Sequence[int]
) -> float:
    """Economy-wide output ratio of the chosen allocation to the baseline.

    Share-weighted sum of per-sector factors: a non-adopting sector
    contributes 1, an adopting one contributes (1 - delta) * g(r). Because
    shares sum to one, this equals 1 plus the adoption deltas; that form is
    used so the all-old-technology economy is exactly 1.0.
    """
    if len(decisions) != len(sectors):
        raise ComputationError(
            f"{len(decisions)} decisions for {len(sectors)} sectors"
        )
    check_share_sum(sectors)
    total = 1.0
    for sector, x in zip(sectors, decisions):
        if x not in (0, 1):
            raise ComputationError(f"decision for {sector.id!r} must be 0 or 1, got {x}")
        if x == 1:
            total += sector.output_share * (
                (1.0 - sector.damage_ratio) * law(sector.exposure) - 1.0
            )
    return total


def sector_damage(sector: Sector, law: GrowthLaw, decision: int) -> float:
    """Share-relative damage diagnostic: x * delta * g(r) * share."""
    if decision == 0:
        return 0.0
    return sector.output_share * sector.damage_ratio * law(sector.exposure)


def optimal_decisions(sectors: Sequence[Sector], law: GrowthLaw) -> list[int]:
    """Sector-wise adoption rule; optimal because the objective is separable."""
    return [adopt_decision(s, law) for s in sectors]


def contour_grid(
    sectors: Sequence[Sector],
    law: GrowthLaw,
    delta_grid: Sequence[float],
    adoption_ratio_grid: Sequence[float],
) -> list[list[float]]:
    """Aggregate growth for forced top-k adoption under uniform damage.

    Returns one row per damage ratio of ``delta_grid``, one cell per ratio of
    ``adoption_ratio_grid``. ``sectors`` must already be sorted by decreasing
    exposure; at cell (delta, ratio) the top k = floor(ratio * n) sectors are
    forced to adopt, the rest stay on the old technology, and every sector's
    damage ratio is replaced by delta. With prefix sums A_k = sum of share *
    g(exposure) and B_k = sum of share over the top k sectors, the cell is
    1 + (1 - delta) * A_k - B_k.
    """
    if not delta_grid or not adoption_ratio_grid:
        raise ComputationError("contour grids must be non-empty")
    for delta in delta_grid:
        if not 0.0 <= delta < 1.0:
            raise ComputationError(f"damage ratio {delta} outside [0, 1)")
    for ratio in adoption_ratio_grid:
        if not 0.0 <= ratio <= 1.0:
            raise ComputationError(f"adoption ratio {ratio} outside [0, 1]")
    exposures = [s.exposure for s in sectors]
    if any(a < b for a, b in zip(exposures, exposures[1:])):
        raise ComputationError("sectors must be sorted by decreasing exposure")
    check_share_sum(sectors)
    a_sums, b_sums = [0.0], [0.0]
    for s in sectors:
        a_sums.append(a_sums[-1] + s.output_share * law(s.exposure))
        b_sums.append(b_sums[-1] + s.output_share)
    ks = [math.floor(ratio * len(sectors)) for ratio in adoption_ratio_grid]
    return [[1.0 + (1.0 - delta) * a_sums[k] - b_sums[k] for k in ks] for delta in delta_grid]


# --- scenario files ----------------------------------------------------------


# The keys a scenario may hold; one with a tabulated law holds no rho.
_SCENARIO_KEYS = frozenset({"description", "rho", "law", "sectors"})
_TABULATED_LAW_KEYS = frozenset({"kind", "points"})
_SECTOR_KEYS = frozenset({"id", "share", "exposure", "delta"})


def _number(value: object, what: str) -> float:
    """A scenario number: a JSON number, not a string or a boolean, that is finite."""
    if type(value) not in (int, float):
        raise InputFormatError(f"{what} {value!r} is not a JSON number")
    return parse_finite(value, what)


def load_scenario(
    source: str | Path, industry_scores: str | Path | None = None
) -> tuple[list[Sector], GrowthLaw]:
    """Read a scenario JSON file into sectors plus a growth law.

    The file is the one source of the model's parameters. It is a JSON object
    with these keys:

    - ``description``: free text, which is not read.
    - ``law``: ``"exponential"`` (the default), or ``{"kind": "tabulated",
      "points": [[exposure, factor], ...]}``, the breakpoints of a
      ``TabulatedGrowth``.
    - ``rho``: the exponential law's rho, a positive number; default 1. A
      scenario with a tabulated law has no ``rho``.
    - ``sectors``: a non-empty list of objects, each with ``id``, a non-empty
      string that no other sector has, its output ``share`` (the shares sum
      to 1), its damage ratio ``delta`` in [0, 1), and its ``exposure`` in
      [0, 1]. A sector without ``exposure`` takes the score of its id from
      ``industry_scores``, an ``industry_id,score`` file as ``industry``
      writes it, which must score exactly those sectors.

    Every number must be a finite JSON number, not a string or a boolean. A
    key outside these lists, in the scenario, its tabulated law or a sector,
    is refused rather than left unread, so a misspelt key cannot leave its
    field at the default. Every fault of the file raises ``InputFormatError``
    at ``source``. ``industry_scores`` on a scenario where every sector gives
    its own exposure raises ``ConfigError``.
    """
    config = json_object(source, "scenario")
    with located(source):
        law_spec = config.get("law", "exponential")
        if law_spec == "exponential":
            only_keys(config, _SCENARIO_KEYS, "scenario")
            law: GrowthLaw = ExponentialGrowth(rho=_number(config.get("rho", 1.0), "rho"))
        elif isinstance(law_spec, dict) and law_spec.get("kind") == "tabulated":
            only_keys(config, _SCENARIO_KEYS - {"rho"}, "scenario with a tabulated law")
            only_keys(law_spec, _TABULATED_LAW_KEYS, "tabulated law")
            points = law_spec.get("points")
            if not isinstance(points, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in points
            ):
                raise InputFormatError(
                    "tabulated law needs 'points' as a list of [exposure, factor] pairs"
                )
            law = TabulatedGrowth(
                points=tuple(tuple(_number(v, "law point") for v in p) for p in points)
            )
        else:
            raise InputFormatError(f"growth law {law_spec!r} is not 'exponential' or tabulated")

        raw_sectors = config.get("sectors")
        if not raw_sectors:
            raise InputFormatError("scenario lists no sectors")
        if not isinstance(raw_sectors, list) or not all(isinstance(s, dict) for s in raw_sectors):
            raise InputFormatError("scenario sectors must be a list of objects")

        specs: dict[str, dict] = {}  # by id, which industry scores meet
        exposures: dict[str, float] = {}
        for n, spec in enumerate(raw_sectors, 1):
            sector_id = spec.get("id")
            if not isinstance(sector_id, str) or not sector_id:
                raise InputFormatError(f"sector {n} needs a non-empty string id, got {sector_id!r}")
            # A sector holds only keys that are read, share and delta among them.
            if not _SECTOR_KEYS >= spec.keys() >= {"share", "delta"}:
                only_keys(spec, _SECTOR_KEYS, f"sector {sector_id!r}")
                raise InputFormatError(f"sector {sector_id!r} needs a share and a delta")
            if sector_id in specs:
                raise InputFormatError(f"sector id {sector_id!r} appears more than once")
            specs[sector_id] = spec
            if "exposure" in spec:
                exposures[sector_id] = _number(spec["exposure"], "sector exposure")
        unexposed = [i for i in specs if i not in exposures]
        if unexposed and industry_scores is not None:
            from . import aggregate

            scored = aggregate.read_industry_scores(industry_scores)
            wanted = set(unexposed)
            unscored = [i for i in unexposed if i not in scored]
            extra = [i for i in scored if i not in wanted]
            if unscored or extra:
                raise InputFormatError(
                    f"no score for sectors {unscored[:5]} of scenario {source}" if unscored
                    else f"ids {extra[:5]} are no sector without an exposure in scenario {source}",
                    path=str(industry_scores),
                )
            exposures.update(scored)

        sectors: list[Sector] = []
        for sector_id, spec in specs.items():
            if sector_id not in exposures:
                raise InputFormatError(
                    f"sector {sector_id!r} needs an exposure, or industry scores to give it one"
                )
            sectors.append(
                Sector(
                    id=sector_id,
                    output_share=_number(spec["share"], "sector share"),
                    damage_ratio=_number(spec["delta"], "sector delta"),
                    exposure=exposures[sector_id],
                )
            )
        check_share_sum(sectors)
    # A command-line option is not the file's: its error names no path.
    if industry_scores is not None and not unexposed:
        raise ConfigError(
            f"--industry-scores applies to sectors without an exposure; scenario {source} "
            "gives every sector one"
        )
    return sectors, law
