"""Rubric-based exposure annotation through a pluggable classifier client.

A classifier client is anything with a ``complete(prompt_text, decode_config)``
method returning response text and a ``capability`` attribute declaring
itself ``"serial"`` or ``"concurrent"``. The harness renders one prompt per
occupation, requests ``n_samples`` independent completions, parses each
response into one of the four exposure categories, and retries unparseable
or failed requests per sample before giving up on the whole run.

Live model adapters are out-of-tree shims satisfying the same interface;
this module ships only deterministic mock clients for reproducible runs.
"""

from __future__ import annotations

import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor, as_completed
from datetime import datetime, timedelta, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol, Sequence, runtime_checkable

from .errors import ComputationError, InputFormatError, LmExposureError, located, open_text
from .scores import MODEL_COLUMNS
from .taxonomy import OccupationCode, OccupationNode, Taxonomy


class ExposureCategory(Enum):
    """Rubric label for how much a language model could speed up an occupation."""

    E0 = "E0"  # no useful exposure
    E1 = "E1"  # halving of completion time already feasible via plain text interfaces
    E2 = "E2"  # halving feasible with extra application work or domain tuning
    E3 = "E3"  # halving additionally requires image capabilities

    @classmethod
    def from_token(cls, token: str) -> "ExposureCategory":
        return cls(token.upper())


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

_PROMPT_TEMPLATE = """[language: {language_tag}]
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


class RubricPrompt(NamedTuple):
    """Deterministic prompt payload for one occupation."""

    occupation_title: str
    occupation_description: str
    rubric_text: str
    language_tag: str = "zh"

    def text(self) -> str:
        return _PROMPT_TEMPLATE.format(
            language_tag=self.language_tag,
            title=self.occupation_title,
            description=self.occupation_description,
            rubric=self.rubric_text,
        )


def render_prompt(
    node: OccupationNode, rubric: str = DEFAULT_RUBRIC, language_tag: str = "zh"
) -> RubricPrompt:
    """Build the annotation prompt for one occupation node.

    Occupations with empty descriptions cannot be asked about and raise
    ``EmptyDescriptionError``.
    """
    if not node.description.strip():
        raise EmptyDescriptionError(
            f"occupation {node.code.raw!r} has an empty description"
        )
    return RubricPrompt(
        occupation_title=node.title,
        occupation_description=node.description,
        rubric_text=rubric,
        language_tag=language_tag,
    )


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
    return ExposureCategory.from_token(tokens.pop())


@runtime_checkable
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


def _collect_sample(
    client: ClassifierClient,
    prompt_text: str,
    decode_config: Mapping[str, object],
    max_retries: int,
) -> tuple[ExposureCategory, str]:
    attempts = max_retries + 1
    last_error: Exception | None = None
    for _ in range(attempts):
        try:
            raw = client.complete(prompt_text, decode_config)
            return parse_category(raw), raw
        except Exception as exc:  # unparseable response or transport failure
            last_error = exc
    raise AnnotationError(
        f"sample failed after {attempts} attempts: {last_error}"
    ) from last_error


def annotate_occupation(
    client: ClassifierClient, node: OccupationNode, *, model_id: str, **kwargs
) -> AnnotationRun:
    """Collect the samples of one occupation; see ``annotate_nodes``."""
    return annotate_nodes(client, [node], model_id=model_id, **kwargs)[0]


def annotate_nodes(
    client: ClassifierClient,
    nodes: Iterable[OccupationNode],
    *,
    model_id: str,
    rubric: str = DEFAULT_RUBRIC,
    language_tag: str = "zh",
    n_samples: int = 8,
    max_retries: int = 2,
    in_flight: int = 1,
    decode_config: Mapping[str, object] | None = None,
) -> list[AnnotationRun]:
    """Collect ``n_samples`` parsed categories per occupation on one work queue.

    Each (occupation, sample) job is an independent request, retried up to
    ``max_retries`` times on unparseable responses and transport failures.
    A ``"concurrent"`` client gets ``in_flight`` workers across all
    occupations, any other client one worker taking the jobs in order.
    Results are reassembled by index; the first failed sample cancels the
    jobs not yet started.
    """
    if n_samples < 1:
        raise ComputationError(f"n_samples must be >= 1, got {n_samples}")
    nodes = list(nodes)
    prompts = [render_prompt(node, rubric, language_tag).text() for node in nodes]
    config = dict(decode_config or {})
    concurrent = getattr(client, "capability", "serial") == "concurrent"
    with ThreadPoolExecutor(max_workers=max(1, in_flight) if concurrent else 1) as pool:
        futures = [
            pool.submit(_collect_sample, client, prompt, config, max_retries)
            for prompt in prompts
            for _ in range(n_samples)
        ]
        try:
            for future in as_completed(futures):
                future.result()
        except BaseException:  # a failed sample or an interrupt: drop the queue
            pool.shutdown(cancel_futures=True)
            raise
    results = [future.result() for future in futures]
    chunks = [results[i : i + n_samples] for i in range(0, len(results), n_samples)]
    return [
        AnnotationRun(model_id, node.code, [cat for cat, _ in chunk], [raw for _, raw in chunk])
        for node, chunk in zip(nodes, chunks)
    ]


# --- deterministic mock clients -------------------------------------------


class CycleMockClient:
    """Cycles through a fixed answer list across calls."""

    capability = "serial"

    def __init__(self, answers: Sequence[str]):
        if not answers:
            raise InputFormatError("cycle mock needs at least one answer")
        self.answers = list(answers)
        self._calls = 0

    def complete(self, prompt_text: str, decode_config: Mapping[str, object]) -> str:
        answer = self.answers[self._calls % len(self.answers)]
        self._calls += 1
        return answer


class ScriptedMockClient:
    """Answers from a per-occupation script.

    The script maps occupation codes to answer lists; because the client
    interface only sees prompt text, the occupation is recovered by matching
    the known titles against the rendered prompt, which always carries the
    title on its own line. Each occupation's list is cycled independently.
    """

    capability = "serial"

    def __init__(self, answers_by_code: Mapping[str, Sequence[str]], taxonomy: Taxonomy):
        self._by_title: dict[str, list[str]] = {}
        self._calls: dict[str, int] = {}
        for code, answers in answers_by_code.items():
            if not answers:
                raise InputFormatError(f"empty answer list for occupation {code!r}")
            if code not in taxonomy:
                raise InputFormatError(f"unknown occupation code {code!r}")
            title = taxonomy.node(code).title
            if title in self._by_title:  # prompts carry only the title
                other = next(c for c in answers_by_code if taxonomy.node(c).title == title)
                raise InputFormatError(
                    f"scripted codes {other!r} and {code!r} share the title {title!r}"
                )
            self._by_title[title] = list(answers)
            self._calls[title] = 0

    def complete(self, prompt_text: str, decode_config: Mapping[str, object]) -> str:
        for line in prompt_text.splitlines():
            if line.startswith("Occupation title: "):
                title = line[len("Occupation title: "):]
                break
        else:
            raise InputFormatError("prompt carries no occupation title line")
        if title not in self._by_title:
            raise InputFormatError(f"no scripted answers for occupation titled {title!r}")
        answers = self._by_title[title]
        index = self._calls[title]
        self._calls[title] = index + 1
        return answers[index % len(answers)]


# Mock kind -> (key holding its answers, required JSON type, type as worded in errors).
_MOCK_ANSWERS = {
    "fixed": ("answer", str, "a string"),
    "cycle": ("answers", list, "a list"),
    "scripted": ("answers", dict, "an object mapping codes to lists"),
}


def load_mock_client(
    source: str | Path, taxonomy: Taxonomy | None = None
) -> ClassifierClient:
    """Build a mock client from its JSON configuration file.

    Recognized shapes: ``{"kind": "fixed", "answer": "E1"}`` (a cycle of
    one answer), ``{"kind": "cycle", "answers": [...]}`` and
    ``{"kind": "scripted", "answers": {"2-06": ["E1", ...]}}`` (the scripted
    kind needs a taxonomy to resolve codes to titles).
    """
    with located(source):
        try:
            with open_text(source) as handle:
                config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid mock configuration JSON: {exc}") from None
        kind = config.get("kind") if isinstance(config, dict) else None
        if not isinstance(kind, str) or kind not in _MOCK_ANSWERS:
            raise InputFormatError(f"unknown mock client kind {kind!r}")
        key, expected, type_name = _MOCK_ANSWERS[kind]
        answers = config.get(key)
        if not isinstance(answers, expected) or (
            kind == "scripted" and not all(isinstance(v, list) for v in answers.values())
        ):
            raise InputFormatError(f"{kind} mock needs {key!r} as {type_name}")
        if kind != "scripted":
            return CycleMockClient([answers] if kind == "fixed" else [str(a) for a in answers])
        if taxonomy is None:
            raise InputFormatError(
                "scripted mock configuration needs a taxonomy to map codes to titles"
            )
        return ScriptedMockClient(answers, taxonomy)


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
    """Append-only JSON-lines record of annotation runs."""

    def __init__(self, path: Path, clock: Callable[[], str] = utc_now_iso) -> None:
        self.path = path
        self.clock = clock

    def append(self, runs: Iterable[AnnotationRun]) -> None:
        """Append one record per run in a single buffered write."""
        lines = [self._record_line(run) for run in runs]
        payload = "".join(lines)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()

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

    A record that is not an object, lacks a field, has a model id outside
    ``MODEL_COLUMNS``, a malformed code, an unknown category, non-string raw
    responses or a sample count that differs from its responses raises
    ``InputFormatError`` at ``path:line``.
    """
    runs: list[AnnotationRun] = []
    with open_text(source) as handle, located(source):
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                runs.append(_record_to_run(json.loads(line)))
            except (KeyError, TypeError, ValueError, LmExposureError) as exc:
                raise InputFormatError(f"bad annotation record: {exc}", line=line_no) from None
    return runs


def _record_to_run(record: object) -> AnnotationRun:
    if not isinstance(record, dict):
        raise TypeError(f"expected a JSON object, got {record!r}")
    model_id, code, responses = record["model_id"], record["code"], record["raw_responses"]
    if model_id not in MODEL_COLUMNS:
        raise ValueError(f"model {model_id!r} has no score column; use {list(MODEL_COLUMNS)}")
    if not isinstance(code, str):
        raise TypeError(f"code must be a string, got {code!r}")
    if not isinstance(responses, list) or not all(isinstance(r, str) for r in responses):
        raise TypeError(f"raw_responses must be a list of strings, got {responses!r}")
    # AnnotationRun checks that samples and responses align one-to-one.
    return AnnotationRun(
        model_id=model_id,
        occupation_code=OccupationCode.parse(code),
        samples=[ExposureCategory(v) for v in record["samples"]],
        raw_responses=responses,
    )
