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

import json
import math
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    SHARE_SUM_TOL,
    ComputationError,
    InputFormatError,
    located,
    open_text,
    parse_finite,
)


class UnsupportedLawError(ComputationError):
    """Operation defined in closed form only for the exponential law."""


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
                if r1 == r0:
                    return g1
                return g0 + (g1 - g0) * (r - r0) / (r1 - r0)
        return points[0][1]


GrowthLaw = ExponentialGrowth | TabulatedGrowth


def growth_factor(law: GrowthLaw, r: float) -> float:
    """Productivity multiplier of a sector with exposure ``r``."""
    return law(r)


def adoption_threshold(delta: float, law: GrowthLaw) -> float:
    """Exposure above which adoption beats non-adoption: rho * ln(1/(1-delta)).

    Closed form exists for the exponential law only; use
    ``tabulated_threshold`` for custom tables.
    """
    if not 0.0 <= delta < 1.0:
        raise ComputationError(f"damage ratio must be in [0, 1), got {delta}")
    if not isinstance(law, ExponentialGrowth):
        raise UnsupportedLawError(
            "closed-form threshold needs the exponential law; "
            "use tabulated_threshold for tables"
        )
    return law.rho * math.log(1.0 / (1.0 - delta))


def tabulated_threshold(
    delta: float, law: TabulatedGrowth, r_max: float | None = None, tol: float = 1e-12
) -> float | None:
    """Bisection threshold for a tabulated law.

    Returns the smallest exposure at which (1 - delta) * g(r) > 1 holds on
    [0, r_max], or None when adoption never pays on that range. The law is
    non-decreasing, so above the returned point adoption always pays.
    """
    if not 0.0 <= delta < 1.0:
        raise ComputationError(f"damage ratio must be in [0, 1), got {delta}")
    if r_max is None:
        r_max = law.points[-1][0]
    target = 1.0 / (1.0 - delta)
    if law(0.0) > target:
        return 0.0
    if law(r_max) <= target:
        return None
    lo, hi = 0.0, r_max
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if law(mid) > target:
            hi = mid
        else:
            lo = mid
    return hi


class Sector:
    """One sector: id, baseline output share, damage ratio, derived exposure.

    Only output shares enter the aggregate; a scenario that gives baseline
    output levels instead is converted to shares on loading.
    """

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
    if not abs(total - 1.0) <= SHARE_SUM_TOL:  # NaN fails too
        raise ComputationError(
            f"sector output shares sum to {total:.12g}, expected 1 within {SHARE_SUM_TOL}"
        )


def shares_from_outputs(outputs: Sequence[float]) -> list[float]:
    """Output shares from baseline output levels."""
    total = sum(outputs)
    if total <= 0:
        raise ComputationError("baseline outputs must sum to a positive total")
    return [y / total for y in outputs]


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


class ContourGrid:
    """Aggregate growth over a (damage ratio, adoption ratio) grid.

    ``values[i][j]`` is the growth when all sectors carry damage ratio
    ``delta_grid[i]`` and the floor(ratio * n) highest-exposure sectors
    adopt, for ratio ``ratio_grid[j]``.
    """

    def __init__(
        self, delta_grid: list[float], ratio_grid: list[float], values: list[list[float]]
    ) -> None:
        self.delta_grid = delta_grid
        self.ratio_grid = ratio_grid
        self.values = values


def contour_grid(
    sectors: Sequence[Sector],
    law: GrowthLaw,
    delta_grid: Sequence[float],
    adoption_ratio_grid: Sequence[float],
) -> ContourGrid:
    """Aggregate growth for forced top-k adoption under uniform damage.

    ``sectors`` must already be sorted by decreasing exposure; at grid cell
    (delta, ratio) the top k = floor(ratio * n) sectors are forced to adopt,
    the rest stay on the old technology, and every sector's damage ratio is
    replaced by delta. With prefix sums A_k = sum of share * g(exposure) and
    B_k = sum of share over the top k sectors, the cell is
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
    return ContourGrid(
        delta_grid=list(delta_grid),
        ratio_grid=list(adoption_ratio_grid),
        values=[[1.0 + (1.0 - delta) * a_sums[k] - b_sums[k] for k in ks] for delta in delta_grid],
    )


def default_delta_grid(points: int = 21) -> list[float]:
    """Evenly spaced damage ratios on [0, 0.95]."""
    return [0.95 * i / (points - 1) for i in range(points)]


def default_ratio_grid(points: int = 21) -> list[float]:
    """Evenly spaced adoption ratios on [0, 1]."""
    return [i / (points - 1) for i in range(points)]


# --- scenario files ----------------------------------------------------------


class AdoptionScenario:
    """Sectors, growth law, decisions, and the resulting aggregate growth."""

    def __init__(
        self, sectors: list[Sector], law: GrowthLaw, decisions: list[int], aggregate_growth: float
    ) -> None:
        self.sectors = sectors
        self.law = law
        self.decisions = decisions
        self.aggregate_growth = aggregate_growth

    @classmethod
    def solve(cls, sectors: Sequence[Sector], law: GrowthLaw) -> "AdoptionScenario":
        decisions = optimal_decisions(sectors, law)
        return cls(
            sectors=list(sectors),
            law=law,
            decisions=decisions,
            aggregate_growth=aggregate_growth(sectors, law, decisions),
        )


def load_scenario(
    source: str | Path,
    r_occ: Mapping[str, float] | None = None,
    rho_override: float | None = None,
) -> tuple[list[Sector], GrowthLaw]:
    """Read a scenario JSON file into sectors plus a growth law.

    Each sector needs an id, a share (or baseline output), an exposure (or
    an occupation mix resolved against ``r_occ``), and a damage ratio. A
    top-level ``damage_kappa`` may replace missing per-sector damage ratios
    by kappa * exposure; that mapping is a modeling convenience with no
    empirical grounding and must be opted into explicitly.
    """
    with located(source):
        try:
            with open_text(source) as handle:
                config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid scenario JSON: {exc}") from None
        if not isinstance(config, dict):
            raise InputFormatError("scenario must be a JSON object")

        law_spec = config.get("law", "exponential")
        if law_spec == "exponential" or (
            isinstance(law_spec, dict) and law_spec.get("kind") == "exponential"
        ):
            rho = parse_finite(config.get("rho", 1.0), "rho")
            law: GrowthLaw = ExponentialGrowth(rho=rho)
        elif isinstance(law_spec, dict) and law_spec.get("kind") == "tabulated":
            points = law_spec.get("points")
            if not isinstance(points, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in points
            ):
                raise InputFormatError(
                    "tabulated law needs 'points' as a list of [exposure, factor] pairs"
                )
            law = TabulatedGrowth(
                points=tuple(tuple(parse_finite(v, "law point") for v in p) for p in points)
            )
        else:
            raise InputFormatError(f"unknown growth law {law_spec!r}")

        kappa = config.get("damage_kappa")
        if kappa is not None:
            kappa = parse_finite(kappa, "damage_kappa")
        raw_sectors = config.get("sectors")
        if not raw_sectors:
            raise InputFormatError("scenario lists no sectors")
        if not isinstance(raw_sectors, list) or not all(isinstance(s, dict) for s in raw_sectors):
            raise InputFormatError("scenario sectors must be a list of objects")

        shares: list[float]
        if all("share" in s for s in raw_sectors):
            shares = [parse_finite(s["share"], "sector share") for s in raw_sectors]
        elif all("baseline_output" in s for s in raw_sectors):
            outputs = [parse_finite(s["baseline_output"], "baseline_output") for s in raw_sectors]
            shares = shares_from_outputs(outputs)
        else:
            raise InputFormatError("every sector needs either a share or a baseline_output")

        sectors: list[Sector] = []
        for spec, share in zip(raw_sectors, shares):
            sector_id = str(spec.get("id", len(sectors) + 1))
            if "exposure" in spec:
                exposure = parse_finite(spec["exposure"], "sector exposure")
            elif "occupation_mix" in spec:
                if r_occ is None:
                    raise InputFormatError(
                        f"sector {sector_id!r} references an occupation mix but no "
                        "occupational scores were supplied"
                    )
                mix = spec["occupation_mix"]
                if not isinstance(mix, dict):
                    raise InputFormatError(f"sector {sector_id!r} occupation_mix must be an object")
                mix = {str(k): parse_finite(v, "occupation_mix weight") for k, v in mix.items()}
                weight = sum(mix.values())
                if not abs(weight - 1.0) <= SHARE_SUM_TOL:
                    raise InputFormatError(
                        f"sector {sector_id!r} occupation mix sums to {weight:.12g}"
                    )
                missing = [c for c in mix if c not in r_occ]
                if missing:
                    raise InputFormatError(
                        f"sector {sector_id!r} occupation mix references unscored codes "
                        f"{missing[:5]}"
                    )
                exposure = sum(w * r_occ[c] for c, w in mix.items())
            else:
                raise InputFormatError(
                    f"sector {sector_id!r} needs an exposure or an occupation_mix"
                )
            if "delta" in spec:
                delta = parse_finite(spec["delta"], "sector delta")
            elif kappa is not None:
                delta = kappa * exposure
            else:
                raise InputFormatError(f"sector {sector_id!r} needs a delta (or set damage_kappa)")
            sectors.append(
                Sector(id=sector_id, output_share=share, damage_ratio=delta, exposure=exposure)
            )
        check_share_sum(sectors)
    # A command-line rho is not the file's: its errors name no path.
    if rho_override is not None and isinstance(law, ExponentialGrowth):
        law = ExponentialGrowth(rho=rho_override)
    return sectors, law

