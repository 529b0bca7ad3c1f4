"""Rubric-based exposure annotation through a pluggable classifier client.

A classifier client is anything with a ``complete(prompt_text, decode_config)``
method returning response text and a ``capability`` attribute declaring
itself ``"serial"`` or ``"concurrent"``. ``decode_config`` names the request:
``{"code": …, "sample": i, "attempt": k}``, where ``i`` counts the samples of
one occupation from 0 and ``k`` the retries of that sample. The harness
renders one prompt per occupation, requests ``n_samples`` independent
completions, parses each response into one of the four exposure categories,
and retries unparseable or failed requests per sample before giving up on
the whole run.

Live model adapters are out-of-tree shims satisfying the same interface;
this module ships only a deterministic mock client for reproducible runs.
"""

from __future__ import annotations

import json
import re
import threading
from contextvars import ContextVar, copy_context
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Protocol, Sequence

from . import MODEL_COLUMNS, runio
from .errors import (
    ComputationError, InputFormatError, LmExposureError, json_object, located, only_keys, open_text,
    unique_keys,
)
from .taxonomy import OccupationCode, OccupationNode, Taxonomy


class ExposureCategory(Enum):
    """Rubric label for how much a language model could speed up an occupation."""

    E0 = "E0"  # no useful exposure
    E1 = "E1"  # halving of completion time already feasible via plain text interfaces
    E2 = "E2"  # halving feasible with extra application work or domain tuning
    E3 = "E3"  # halving additionally requires image capabilities


DEFAULT_RUBRIC = """Assign exactly one exposure category to the occupation:
- E0: language models offer no useful time savings for this occupation, for
  example because the work is inherently physical.
- E1: cutting the time to complete the occupation's work in half, at equal
  quality, is already feasible through a plain text interface to a language
  model.
- E2: the same halving is feasible, but only once current model capabilities
  are deployed through purpose-built applications, extra inputs, or
  domain-specific tuning.
- E3: the halving additionally requires image understanding or generation on
  top of text capabilities.
"""

_PROMPT_TEMPLATE = """[language: zh]
Occupation title: {title}
Occupation description: {description}

{rubric}
Answer with exactly one token from {{E0, E1, E2, E3}} and nothing else."""


class EmptyDescriptionError(ComputationError):
    """Occupation has no description to submit for annotation."""


class NoCategoryFound(ComputationError):
    """Response text contains none of the four category tokens."""


class AmbiguousResponse(ComputationError):
    """Response text contains two or more distinct category tokens."""


class AnnotationError(ComputationError):
    """A sample could not be collected within its retry budget."""


def render_prompt(node: OccupationNode, rubric: str = DEFAULT_RUBRIC) -> str:
    """The annotation prompt text for one occupation node; the same node and
    rubric always give the same bytes.

    Occupations with empty descriptions cannot be asked about and raise
    ``EmptyDescriptionError``.
    """
    if not node.description.strip():
        raise EmptyDescriptionError(
            f"occupation {node.code.raw!r} has an empty description"
        )
    return _PROMPT_TEMPLATE.format(title=node.title, description=node.description, rubric=rubric)


_TOKEN_RE = re.compile(r"(?<![A-Za-z0-9])[eE][0-3](?![A-Za-z0-9])")


def parse_category(response: str) -> ExposureCategory:
    """Extract the single category token from a response.

    Tokens are matched case-insensitively at word boundaries. Exactly one
    distinct token must be present: none raises ``NoCategoryFound``, two or
    more distinct ones raise ``AmbiguousResponse``.
    """
    tokens = {m.group(0).upper() for m in _TOKEN_RE.finditer(response)}
    if not tokens:
        raise NoCategoryFound(f"no exposure category token in response {response!r}")
    if len(tokens) > 1:
        raise AmbiguousResponse(
            f"multiple exposure category tokens {sorted(tokens)} in response {response!r}"
        )
    return ExposureCategory(tokens.pop())


class ClassifierClient(Protocol):
    """Minimal client surface: one completion call plus a concurrency flag."""

    capability: str  # "serial" or "concurrent"

    def complete(self, prompt_text: str, decode_config: Mapping[str, object]) -> str:
        ...


class AnnotationRun:
    """All samples collected for one (model, occupation) pair."""

    def __init__(
        self,
        model_id: str,
        occupation_code: OccupationCode,
        samples: list[ExposureCategory],
        raw_responses: list[str],
    ) -> None:
        self.model_id = model_id
        self.occupation_code = occupation_code
        self.samples = samples
        self.raw_responses = raw_responses
        if len(samples) != len(raw_responses):
            raise ComputationError("samples and raw_responses must align one-to-one")


def annotate_nodes(
    client: ClassifierClient,
    nodes: Iterable[OccupationNode],
    *,
    model_id: str,
    rubric: str = DEFAULT_RUBRIC,
    n_samples: int = 8,
    max_retries: int = 2,
    in_flight: int = 1,
) -> list[AnnotationRun]:
    """Collect ``n_samples`` parsed categories per occupation on one work queue.

    Each (occupation, sample) job is an independent request, retried up to
    ``max_retries`` times on unparseable responses and transport failures.
    A ``"concurrent"`` client gets ``in_flight`` workers across all
    occupations, the calling thread among them; any other client runs the
    jobs in order on the calling thread. Results are reassembled by index;
    the first failed sample, an ``AnnotationError`` naming the model, the
    occupation and the sample, stops the jobs not yet started. Called from
    a job of another work queue, as ``annotate`` does for each model, the
    queue shares that queue's stop: a failure in one model stops them all.
    """
    if n_samples < 1:
        raise ComputationError(f"n_samples must be >= 1, got {n_samples}")
    if in_flight < 1:
        raise ComputationError(f"in_flight must be >= 1, got {in_flight}")
    nodes = list(nodes)
    prompts = [render_prompt(node, rubric) for node in nodes]

    def sample(job: int) -> tuple[ExposureCategory, str]:
        node, index = divmod(job, n_samples)
        code = nodes[node].code.raw
        last_error: Exception | None = None
        for attempt in range(max_retries + 1):
            try:
                raw = client.complete(
                    prompts[node], {"code": code, "sample": index, "attempt": attempt}
                )
                return parse_category(raw), raw
            except Exception as exc:  # unparseable response or transport failure
                last_error = exc
        raise AnnotationError(
            f"model {model_id!r}, occupation {code}, sample {index + 1}"
            f" of {n_samples}: failed after {max_retries + 1} attempts: {last_error}"
        ) from last_error

    results = _run_queue(sample, len(prompts) * n_samples, in_flight if _concurrent(client) else 1)
    chunks = [results[i : i + n_samples] for i in range(0, len(results), n_samples)]
    return [
        AnnotationRun(model_id, node.code, [cat for cat, _ in chunk], [raw for _, raw in chunk])
        for node, chunk in zip(nodes, chunks)
    ]


def _concurrent(client: ClassifierClient) -> bool:
    """Whether ``client`` declares itself safe to call from several threads."""
    return getattr(client, "capability", "serial") == "concurrent"


# (lock, failures) of the work queue whose job is running: a queue started
# inside that job shares them, and so stops when any queue of the tree fails.
_enclosing_queue: ContextVar[tuple[threading.Lock, list] | None] = ContextVar(
    "_enclosing_queue", default=None
)


def _run_queue(task: Callable[[int], object], n_jobs: int, workers: int) -> list:
    """``[task(0), ..., task(n_jobs - 1)]`` on the calling thread plus helpers.

    ``workers - 1`` helper threads (none for one worker, which runs the jobs
    in order) take job indices from one counter under a lock. The first
    failure, or an interrupt of the calling thread, stops every worker from
    taking a new job; it is re-raised once the helpers have joined. A queue
    run inside a job of another queue shares that queue's lock and failure
    list, so the first failure in either stops both, and both re-raise it.
    """
    stop = _enclosing_queue.get() or (threading.Lock(), [])
    lock, failures = stop
    results: list = [None] * n_jobs
    jobs = iter(range(n_jobs))

    def work() -> None:
        _enclosing_queue.set(stop)  # in this worker's own context, never the caller's
        while True:
            with lock:
                job = None if failures else next(jobs, None)
            if job is None:
                return
            try:
                results[job] = task(job)
            except BaseException as exc:
                with lock:
                    failures.append(exc)
                return

    helpers = [threading.Thread(target=work) for _ in range(min(workers, n_jobs) - 1)]
    for helper in helpers:
        helper.start()
    try:
        copy_context().run(work)
        for helper in helpers:
            helper.join()
    except BaseException as exc:  # interrupted outside a job: stop the helpers too
        with lock:
            failures.append(exc)
        for helper in helpers:
            helper.join()
        raise
    if failures:
        raise failures[0]
    return results


# --- deterministic mock client -------------------------------------------


class MockClient:
    """Answers from the request alone, so every answer is known in advance.

    ``answers`` is one list for every occupation (``cycle``) or one list per
    occupation code (``scripted``). Attempt ``k`` of sample ``i`` gets
    ``answers[(i + k) % len(answers)]``: each occupation starts at its first
    answer, and a retry moves that sample on to the next one.
    """

    # Serial keeps a mock run on the calling thread, its models one after
    # another, so the sample that a failed run reports never depends on timing.
    capability = "serial"

    def __init__(self, answers: Sequence[str] | Mapping[str, Sequence[str]]):
        self.answers = answers

    def complete(self, prompt_text: str, decode_config: Mapping[str, object]) -> str:
        answers = self.answers
        if isinstance(answers, Mapping):
            code = decode_config["code"]
            if code not in answers:
                raise InputFormatError(f"no scripted answers for occupation {code!r}")
            answers = answers[code]
        return answers[(decode_config["sample"] + decode_config["attempt"]) % len(answers)]


# Mock kind -> (required JSON type of its answers, type as worded in errors).
_MOCK_ANSWERS = {
    "cycle": (list, "a list"),
    "scripted": (dict, "an object mapping codes to lists"),
}


def load_mock_client(source: str | Path, taxonomy: Taxonomy | None = None) -> MockClient:
    """Build a mock client from its JSON configuration file.

    Recognized shapes: ``{"kind": "cycle", "answers": ["E1", ...]}`` (one
    list for every occupation) and ``{"kind": "scripted", "answers": {"2-06":
    ["E1", ...]}}`` (one list per code; the scripted kind needs a taxonomy
    to check that its codes exist). An empty answer list, and any other key,
    are refused.
    """
    config = json_object(source, "mock configuration")
    with located(source):
        kind = config.get("kind")
        if not isinstance(kind, str) or kind not in _MOCK_ANSWERS:
            raise InputFormatError(f"unknown mock client kind {kind!r}")
        expected, type_name = _MOCK_ANSWERS[kind]
        only_keys(config, {"kind", "answers"}, f"{kind} mock configuration")
        answers = config.get("answers")
        if not isinstance(answers, expected) or (
            kind == "scripted" and not all(isinstance(v, list) for v in answers.values())
        ):
            raise InputFormatError(f"{kind} mock needs 'answers' as {type_name}")
        if kind == "cycle":
            if not answers:
                raise InputFormatError("cycle mock needs at least one answer")
            return MockClient([str(a) for a in answers])
        if taxonomy is None:
            raise InputFormatError("scripted mock needs a taxonomy to check its codes")
        for code, listed in answers.items():
            if not listed:
                raise InputFormatError(f"empty answer list for occupation {code!r}")
            if code not in taxonomy:
                raise InputFormatError(f"unknown occupation code {code!r}")
        return MockClient(answers)


# --- annotation store -------------------------------------------------------


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class LogicalClock:
    """Deterministic stand-in clock: fixed epoch, one second per reading.

    Used for mock-backed runs so repeated runs produce byte-identical
    record files while still carrying a well-formed timestamp per record.
    """

    def __init__(self, start: str = "2000-01-01T00:00:00+00:00"):
        self._current = datetime.fromisoformat(start)
        self._lock = threading.Lock()

    def __call__(self) -> str:
        with self._lock:
            stamp = self._current
            self._current = stamp + timedelta(seconds=1)
        return stamp.isoformat(timespec="seconds")


class AnnotationStore:
    """Append-only JSON-lines record of annotation runs, rewritten atomically."""

    def __init__(self, path: Path, clock: Callable[[], str] = utc_now_iso) -> None:
        self.path = path
        self.clock = clock

    def append(self, runs: Iterable[AnnotationRun]) -> None:
        """Append one record per run: the stored text and the new records go
        through one atomic write, so a failed write leaves the store as it was."""
        stored = self.path.read_bytes().decode("utf-8") if self.path.exists() else ""
        runio.atomic_write_text(self.path, stored + "".join(map(self._record_line, runs)))

    def _record_line(self, run: AnnotationRun) -> str:
        record = {
            "model_id": run.model_id,
            "code": run.occupation_code.raw,
            "timestamp": self.clock(),
            "raw_responses": run.raw_responses,
            "samples": [s.value for s in run.samples],
        }
        return json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"


def read_annotation_store(source: str | Path) -> list[AnnotationRun]:
    """Parse a JSON-lines annotation record file back into runs.

    A record that is not an object, repeats a key, lacks a field, has a model
    id outside ``MODEL_COLUMNS``, a malformed code, an unknown category,
    non-string raw responses, no samples or a sample count that differs from
    its responses raises ``InputFormatError`` at ``path:line``.
    """
    runs: list[AnnotationRun] = []
    decode = json.JSONDecoder(object_pairs_hook=unique_keys).decode  # one for all lines
    with open_text(source) as handle, located(source):
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                runs.append(_record_to_run(decode(line)))
            except (KeyError, TypeError, ValueError, RecursionError, LmExposureError) as exc:
                raise InputFormatError(f"bad annotation record: {exc}", line=line_no) from None
    return runs


def _record_to_run(record: object) -> AnnotationRun:
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {record!r}")
    model_id, code, responses = record["model_id"], record["code"], record["raw_responses"]
    samples = record["samples"]
    if model_id not in MODEL_COLUMNS:
        raise ValueError(f"model {model_id!r} has no score column; use {list(MODEL_COLUMNS)}")
    if not isinstance(code, str):
        raise TypeError(f"code must be a string, got {code!r}")
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise TypeError(f"raw_responses must be a list of strings, got {responses!r}")
    if not isinstance(samples, list) or not samples:  # a model's score is a mean over samples
        raise ValueError(f"samples must be a non-empty list, got {samples!r}")
    # AnnotationRun checks that samples and responses align one-to-one.
    return AnnotationRun(
        model_id=model_id,
        occupation_code=OccupationCode.parse(code),
        samples=[ExposureCategory(v) for v in samples],
        raw_responses=responses,
    )
