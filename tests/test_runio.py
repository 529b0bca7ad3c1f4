"""Content digests: the built-in SHA-256, its hashlib fallback, and the guard against hashlib."""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

import pytest

import lmexposure
from lmexposure import runio

# 200,454 bytes: the 1,606-row score table of ``test_full_size_outputs``.
@pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 200_454])
def test_digest_equals_hashlib(tmp_path, size):
    path = tmp_path / "data.bin"
    data = random.Random(size).randbytes(size)
    path.write_bytes(data)
    assert runio.sha256_file(path) == hashlib.sha256(data).hexdigest()


def test_without_a_builtin_module_hashlib_digests(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "_sha2", None)  # None: the import fails
    monkeypatch.setitem(sys.modules, "_sha256", None)
    spec = importlib.util.spec_from_file_location("runio_without_builtin", runio.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._sha256 is hashlib.sha256
    path = tmp_path / "data.bin"
    path.write_bytes(b"abc")
    assert module.sha256_file(path) == hashlib.sha256(b"abc").hexdigest()


def _imports_hashlib(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "hashlib" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hashlib"


def _import_fallback(node: ast.AST) -> bool:
    """An ``except ImportError:`` body runs only where the import before it failed."""
    return isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name) and (
        node.type.id in ("ImportError", "ModuleNotFoundError")
    )


def _module_level(node: ast.AST):
    """The statements every import of a module runs: not those inside a function."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and not (
            _import_fallback(child)
        ):
            yield child
            yield from _module_level(child)


def test_no_module_imports_hashlib_on_import():
    # hashlib loads OpenSSL: a module-level import puts that on every command's start-up.
    package = Path(lmexposure.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 10
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sources
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_hashlib(node)
    ]
    assert offenders == []


_CSV_WRITERS = {"writer", "DictWriter"}


def _names_a_csv_writer(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _CSV_WRITERS and isinstance(node.value, ast.Name) and (
            node.value.id == "csv"
        )
    return isinstance(node, ast.ImportFrom) and node.module == "csv" and any(
        alias.name in _CSV_WRITERS for alias in node.names
    )


def test_csv_text_is_the_one_csv_writer():
    # Every CSV output goes through ``runio.csv_text``; a second writer could
    # quote a cell or end a line its own way.
    package = Path(lmexposure.__file__).parent
    offenders = [
        f"{path.relative_to(package)}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _names_a_csv_writer(node)
    ]
    assert offenders == []
