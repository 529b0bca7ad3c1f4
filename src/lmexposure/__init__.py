"""Occupational exposure to language models, end to end.

Rubric-based annotation of an occupational taxonomy through pluggable
classifier clients, point scoring and model ensembles, roll-ups to
industries and demographic groups, descriptive labor-market statistics,
and a static multi-sector technology adoption model.
"""

from .aggregate import (
    DemographicShares,
    IntensityMatrix,
    demographic_exposure,
    industry_exposure,
)
from .annotate import (
    AnnotationRun,
    AnnotationStore,
    ClassifierClient,
    CycleMockClient,
    ExposureCategory,
    FixedMockClient,
    RubricPrompt,
    ScriptedMockClient,
    annotate_occupation,
    parse_category,
    render_prompt,
)
from .econ_model import (
    AdoptionScenario,
    ExponentialGrowth,
    Sector,
    TabulatedGrowth,
    adopt_decision,
    adoption_threshold,
    aggregate_growth,
    contour_grid,
    growth_factor,
    optimal_decisions,
)
from .labor_stats import (
    CorrResult,
    OutcomeKind,
    OutcomeSeries,
    pearson,
    scatter_report,
    share_growth,
    summarize,
    vacancy_shares,
)
from .scores import (
    ExpertPanel,
    ScoreTable,
    category_points,
    ensemble,
    expert_mean,
    model_score,
    read_score_table,
)
from .taxonomy import Level, OccupationCode, OccupationNode, Taxonomy, aggregate_up, load_taxonomy

__version__ = "0.1.0"

__all__ = [
    "AdoptionScenario",
    "AnnotationRun",
    "AnnotationStore",
    "ClassifierClient",
    "CorrResult",
    "CycleMockClient",
    "DemographicShares",
    "ExpertPanel",
    "ExponentialGrowth",
    "ExposureCategory",
    "FixedMockClient",
    "IntensityMatrix",
    "Level",
    "OccupationCode",
    "OccupationNode",
    "OutcomeKind",
    "OutcomeSeries",
    "RubricPrompt",
    "ScoreTable",
    "ScriptedMockClient",
    "Sector",
    "TabulatedGrowth",
    "Taxonomy",
    "adopt_decision",
    "adoption_threshold",
    "aggregate_growth",
    "aggregate_up",
    "annotate_occupation",
    "category_points",
    "contour_grid",
    "demographic_exposure",
    "ensemble",
    "expert_mean",
    "growth_factor",
    "industry_exposure",
    "load_taxonomy",
    "model_score",
    "optimal_decisions",
    "parse_category",
    "pearson",
    "read_score_table",
    "render_prompt",
    "scatter_report",
    "share_growth",
    "summarize",
    "vacancy_shares",
]
