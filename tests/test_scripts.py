"""The bundled scripts run against the installed package and print their tables."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import lmexposure

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name: str, *args: str) -> str:
    package_root = Path(lmexposure.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_reproduce_tables_prints_both_tables():
    lines = _run_script("reproduce_tables.py").splitlines()
    assert lines[0] == "Medium Categories Occupation Level Exposure"
    assert lines[1].split() == ["glm", "internlm", "gpt4"]
    assert "Medium Categories Occupation Level Exposure Corr." in lines
    assert lines[-1].startswith("Largest ensemble-column discrepancy: ")


def test_run_adoption_model_writes_the_contour(tmp_path):
    lines = _run_script("run_adoption_model.py", "--outdir", str(tmp_path)).splitlines()
    assert lines[0].split() == [
        "sector", "share", "exposure", "delta", "threshold", "g(r)", "adopt", "damage",
    ]
    contour = (tmp_path / "adoption_contour.csv").read_text().splitlines()
    assert contour[0].startswith("delta\\ratio,0.0000,")
    assert len(contour) == 22  # header + 21 delta rows
