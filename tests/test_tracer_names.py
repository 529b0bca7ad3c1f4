"""Every function that ``perfbench/tracer.py`` names still exists where it looks.

The tracer wraps a module's own public functions, and a class's public
methods whose ``__qualname__`` is ``Class.method``, and sums span self times
by name. A name that no longer resolves reads 0 without an error, so a
refactor that moves or renames one would zero a per-layer metric silently.
The tracer is read as source with ``ast``: it is not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _traced_names() -> list[str]:
    """The span names in ``SELF_TIME_METRICS`` values and ``HOOKS`` keys."""
    names = {"cli.main"}  # read by ``pass_metrics`` for ``cli.main_s``
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            target = node.targets[0].id
            if target == "SELF_TIME_METRICS":
                names.update(n for t in node.value.values for n in ast.literal_eval(t))
            elif target == "HOOKS":
                names.update(ast.literal_eval(k) for k in node.value.keys)
    return sorted(names)


NAMES = _traced_names()


def test_the_tracer_names_are_read():
    # One name found only in SELF_TIME_METRICS, one only in HOOKS.
    assert "aggregate.DemographicShares.from_csv" in NAMES and "runio.sha256_file" in NAMES


@pytest.mark.parametrize("name", NAMES)
def test_a_traced_name_resolves_as_the_tracer_finds_it(name):
    layer, *path = name.split(".")
    module = importlib.import_module(f"lmexposure.{layer}")
    owner = vars(module)[path[0]]
    assert owner.__module__ == module.__name__  # from-imports are not wrapped
    if len(path) == 1:
        fn = owner
    else:
        raw = vars(owner)[path[1]]  # defined on the class itself, not inherited
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert fn.__qualname__ == ".".join(path)
    assert inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn)
