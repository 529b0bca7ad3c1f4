"""Put the benchmark modules, its client shim and the package on the path.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH / "client", BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
