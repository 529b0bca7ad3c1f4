"""Occupational exposure to language models, end to end.

Rubric-based annotation of an occupational taxonomy through pluggable
classifier clients, point scoring and model ensembles, roll-ups to
industries and demographic groups, descriptive labor-market statistics,
and a static multi-sector technology adoption model.

The API is the submodules (``lmexposure.scores``, ``lmexposure.annotate``,
...); importing the package loads none of them, so each command pays only
for the stages it runs. The score-table column names live here, since the
parser's ``--column`` choices and the annotation checks need them without
loading ``scores``.
"""

__version__ = "0.1.0"

# Column order of the canonical score table file, after ``code`` and ``title``.
MODEL_COLUMNS = ("glm", "gpt4", "internlm")
SCORE_COLUMNS = ("expert", *MODEL_COLUMNS, "ensemble")
