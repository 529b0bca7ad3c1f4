"""Occupational exposure to language models, end to end.

Rubric-based annotation of an occupational taxonomy through pluggable
classifier clients, point scoring and model ensembles, roll-ups to
industries and demographic groups, descriptive labor-market statistics,
and a static multi-sector technology adoption model.

The API is the submodules (``lmexposure.scores``, ``lmexposure.annotate``,
...); importing the package loads none of them, so each command pays only
for the stages it runs.
"""

__version__ = "0.1.0"
