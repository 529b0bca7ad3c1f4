"""Latency-bound classifier client for the ``annotate_latency`` workload.

Loaded by the package through its public client hook::

    LMEXPOSURE_CLIENT=latency_shim:make_client

with this directory on ``PYTHONPATH``. Each call sleeps for a seeded
log-normal latency (median 10 ms, sigma 0.5) and answers from a seeded
script. Both are keyed by (model, prompt, per-prompt call index), never by
thread or arrival time.

The harness sends the same prompt for all samples of one occupation, so a
sample cannot be told from its siblings. Every parseable answer for a
(model, prompt) is therefore the same text, and exactly one call index below
the sample count returns an unparseable answer. Whichever thread receives it
retries once and gets the shared answer, so no sample exhausts
``--max-retries 2``. Stored samples cannot depend on scheduling.

Environment:

- ``PERFBENCH_SHIM_SEED``: the workload seed (default 1).
- ``PERFBENCH_SHIM_STATS``: when set, a JSON file written at interpreter
  exit with call counts, peak and mean in-flight requests, per-call
  latency, and the answer given for each (model, title).
"""

from __future__ import annotations

import atexit
import hashlib
import json
import math
import os
import random
import threading
import time

MEDIAN_S = 0.010
SIGMA = 0.5
N_SAMPLES = 8
LABELS = ("E0", "E1", "E2", "E3")
LABEL_WEIGHTS = (3, 3, 3, 1)
WRAPPERS = ("{token}", "The answer is {token}.", "Category: {token}", "I assign {token}")
UNPARSEABLE = "I cannot place this occupation in any category."


def _rng(seed: int, *key: object) -> random.Random:
    return random.Random("|".join(str(k) for k in (seed, *key)))


def _prompt_key(prompt_text: str) -> str:
    return hashlib.sha256(prompt_text.encode("utf-8")).hexdigest()[:16]


def _title(prompt_text: str) -> str:
    for line in prompt_text.splitlines():
        if line.startswith("Occupation title: "):
            return line[len("Occupation title: "):]
    return ""


def answer(seed: int, model_id: str, prompt_text: str, call_index: int) -> str:
    """The scripted answer for one call; independent of threads and timing."""
    key = _prompt_key(prompt_text)
    rng = _rng(seed, model_id, key, "script")
    label = rng.choices(LABELS, LABEL_WEIGHTS)[0]
    text = rng.choice(WRAPPERS).format(token=label)
    bad_index = rng.randrange(N_SAMPLES)
    return UNPARSEABLE if call_index == bad_index else text


def latency(seed: int, model_id: str, prompt_text: str, call_index: int) -> float:
    """Seconds one call takes: log-normal with median MEDIAN_S."""
    z = _rng(seed, model_id, _prompt_key(prompt_text), call_index, "latency").gauss(0.0, 1.0)
    return MEDIAN_S * math.exp(SIGMA * z)


class CallRecorder:
    """Counts, in-flight tracking and per-call latency for every client."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.calls = 0
        self.unparseable = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self.call_seconds: list[float] = []
        self.first_start: float | None = None
        self.last_end: float | None = None
        self.answers: dict[str, str] = {}

    def start(self) -> float:
        now = time.perf_counter()
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
            if self.first_start is None:
                self.first_start = now
        return now

    def end(self, started: float, answer_key: str, text: str) -> None:
        now = time.perf_counter()
        with self._lock:
            self.in_flight -= 1
            self.call_seconds.append(now - started)
            self.last_end = now
            if text == UNPARSEABLE:
                self.unparseable += 1
            else:
                self.answers[answer_key] = text

    def summary(self) -> dict[str, object]:
        with self._lock:
            span = (self.last_end or 0.0) - (self.first_start or 0.0)
            busy = math.fsum(self.call_seconds)
            return {
                "calls": self.calls,
                "unparseable": self.unparseable,
                "peak_in_flight": self.peak_in_flight,
                "mean_in_flight": busy / span if span > 0 else 0.0,
                "call_seconds": sorted(self.call_seconds),
                "answers": dict(sorted(self.answers.items())),
            }


class LatencyClient:
    """One model's client; thread-safe, as ``capability`` promises."""

    capability = "concurrent"

    def __init__(self, model_id: str, seed: int, recorder: CallRecorder):
        self.model_id = model_id
        self.seed = seed
        self.recorder = recorder
        self._lock = threading.Lock()
        self._next_index: dict[str, int] = {}

    def complete(self, prompt_text: str, decode_config) -> str:
        key = _prompt_key(prompt_text)
        with self._lock:
            index = self._next_index.get(key, 0)
            self._next_index[key] = index + 1
        started = self.recorder.start()
        time.sleep(latency(self.seed, self.model_id, prompt_text, index))
        text = answer(self.seed, self.model_id, prompt_text, index)
        self.recorder.end(started, f"{self.model_id}|{_title(prompt_text)}", text)
        return text


_recorder: CallRecorder | None = None
_recorder_lock = threading.Lock()


def _write_stats(path: str, recorder: CallRecorder) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(recorder.summary(), handle)


def make_client(model_id: str) -> LatencyClient:
    """Factory named by ``LMEXPOSURE_CLIENT``; one recorder per process.

    The hook passes only a model id, so the recorder that spans all models
    of one ``annotate`` run has to live at module level.
    """
    global _recorder
    with _recorder_lock:
        if _recorder is None:
            _recorder = CallRecorder()
            stats_path = os.environ.get("PERFBENCH_SHIM_STATS")
            if stats_path:
                atexit.register(_write_stats, stats_path, _recorder)
    return LatencyClient(model_id, int(os.environ.get("PERFBENCH_SHIM_SEED", "1")), _recorder)
