"""The bundled synthetic fixtures are what their generator writes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import lmexposure
from lmexposure.fixtures import fixture_path

GENERATOR = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_fixtures.py"


def test_the_generator_reproduces_every_synthetic_fixture(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(lmexposure.__file__).parents[1])}
    subprocess.run(
        [sys.executable, str(GENERATOR), "--outdir", str(tmp_path)],
        capture_output=True, env=env, check=True,
    )
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "demo_scenario.json" in written and "demo_sectors.json" in written
    differ = [name for name in written if (tmp_path / name).read_bytes()
              != fixture_path(name).read_bytes()]
    assert differ == []
