"""Order statistics and the run-length rule shared by the harness and the tracer."""

from __future__ import annotations

import statistics
import time

TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, beyond)``. With ``n`` samples sorted
    ascending, the value is the ``(n - 10)``-th, at percentile
    ``100 * (n - 10) / n``; exactly 10 samples lie beyond it. With 10 or
    fewer samples no percentile qualifies, and the maximum is returned with
    the number of samples that lie beyond it, which is 0.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    k = n - TAIL_BEYOND
    if k < 1:
        return ordered[-1], 100.0, 0
    return ordered[k - 1], 100.0 * k / n, TAIL_BEYOND


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fits_another(begin: float, done: int, seconds: float) -> bool:
    """Whether one more pass, as long as the average so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - begin
    return elapsed + elapsed / done <= seconds
