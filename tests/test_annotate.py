"""Prompt rendering, response parsing, sampling harness, mocks, store."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from lmexposure.annotate import (
    AmbiguousResponse,
    AnnotationError,
    AnnotationStore,
    CycleMockClient,
    EmptyDescriptionError,
    ExposureCategory,
    LogicalClock,
    NoCategoryFound,
    ScriptedMockClient,
    annotate_nodes,
    annotate_occupation,
    load_mock_client,
    parse_category,
    read_annotation_store,
    render_prompt,
)
from lmexposure.errors import InputFormatError
from lmexposure.taxonomy import load_taxonomy

E0, E1, E2, E3 = ExposureCategory


def _node(title="Teachers", description="Prepares and delivers lessons."):
    tx = load_taxonomy(
        io.StringIO(
            "code,title,description,excluded\n"
            f'2,Pros,top,false\n2-08,{title},"{description}",false\n'
        )
    )
    return tx.node("2-08")


# --- prompts -----------------------------------------------------------------


def test_prompt_contains_each_part_once():
    node = _node()
    rubric = "RUBRIC-BODY-MARKER"
    text = render_prompt(node, rubric).text()
    assert text.count("Teachers") == 1
    assert text.count("Prepares and delivers lessons.") == 1
    assert text.count("RUBRIC-BODY-MARKER") == 1
    assert "E0" in text and "E3" in text  # output-format instruction


def test_prompt_is_deterministic():
    node = _node()
    assert render_prompt(node).text() == render_prompt(node).text()


def test_empty_description_refused():
    with pytest.raises(EmptyDescriptionError):
        render_prompt(_node(description="  "))


# --- parsing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "response,expected",
    [
        ("The answer is E2.", E2),
        ("e1", E1),
        ("Final: E0\n", E0),
        ("E3 fits best because of image work", E3),
        ("I say E1, definitely E1", E1),  # repeated token is still unambiguous
    ],
)
def test_parse_single_token(response, expected):
    assert parse_category(response) == expected


@pytest.mark.parametrize("response", ["E1 or maybe E3", "e0/e2"])
def test_parse_ambiguous(response):
    with pytest.raises(AmbiguousResponse):
        parse_category(response)


@pytest.mark.parametrize("response", ["unclear", "", "E4", "E15", "WE1", "e1x"])
def test_parse_no_category(response):
    with pytest.raises(NoCategoryFound):
        parse_category(response)


# --- sampling harness ---------------------------------------------------------


def test_constant_mock_eight_samples():
    run = annotate_occupation(CycleMockClient(["E1"]), _node(), model_id="m", n_samples=8)
    assert run.samples == [E1] * 8
    assert run.raw_responses == ["E1"] * 8


def test_cycle_mock_order_preserved():
    run = annotate_occupation(
        CycleMockClient(["E1", "E0"]), _node(), model_id="m", n_samples=8
    )
    assert run.samples == [E1, E0, E1, E0, E1, E0, E1, E0]


def test_retry_exhaustion_fails_run():
    client = CycleMockClient(["nonsense"])
    with pytest.raises(AnnotationError):
        annotate_occupation(client, _node(), model_id="m", n_samples=1, max_retries=2)


def test_retry_then_success_never_inflates_samples():
    client = CycleMockClient(["nonsense", "nonsense", "E2"])
    run = annotate_occupation(client, _node(), model_id="m", n_samples=2, max_retries=2)
    assert run.samples == [E2, E2]
    assert len(run.raw_responses) == 2


def test_transport_failures_retried():
    class Flaky:
        capability = "serial"

        def __init__(self):
            self.calls = 0

        def complete(self, prompt_text, decode_config):
            self.calls += 1
            if self.calls % 2 == 1:
                raise ConnectionError("transient")
            return "E0"

    run = annotate_occupation(Flaky(), _node(), model_id="m", n_samples=3, max_retries=1)
    assert run.samples == [E0, E0, E0]


def test_deterministic_client_gives_pure_runs():
    a = annotate_occupation(CycleMockClient(["E2", "E1"]), _node(), model_id="m", n_samples=5)
    b = annotate_occupation(CycleMockClient(["E2", "E1"]), _node(), model_id="m", n_samples=5)
    assert a.samples == b.samples
    assert a.raw_responses == b.raw_responses


def test_n_samples_must_be_positive():
    with pytest.raises(Exception):
        annotate_occupation(CycleMockClient(["E1"]), _node(), model_id="m", n_samples=0)


def test_concurrent_dispatch_reassembles_by_index():
    class SlowCounting:
        capability = "concurrent"

        def __init__(self):
            self._lock = threading.Lock()
            self.calls = 0
            self.in_flight = 0
            self.max_in_flight = 0

        def complete(self, prompt_text, decode_config):
            with self._lock:
                self.calls += 1
                self.in_flight += 1
                self.max_in_flight = max(self.max_in_flight, self.in_flight)
                call = self.calls
            time.sleep(0.002 * (8 - call % 8))  # later calls finish sooner
            with self._lock:
                self.in_flight -= 1
            return f"E{call % 2}"

    client = SlowCounting()
    run = annotate_occupation(client, _node(), model_id="m", n_samples=8, in_flight=4)
    assert client.max_in_flight > 1
    assert len(run.samples) == 8
    for sample, raw in zip(run.samples, run.raw_responses):
        assert sample == parse_category(raw)
    assert sorted(r[-1] for r in run.raw_responses) == ["0"] * 4 + ["1"] * 4


def _leaf_nodes(titles):
    rows = "".join(f"2-{i:02d},{t},Does {t.lower()}.,false\n" for i, t in enumerate(titles, 1))
    return load_taxonomy(
        io.StringIO("code,title,description,excluded\n2,Pros,top,false\n" + rows)
    ).leaves()


def test_in_flight_spans_occupations():
    class Gated:
        """Holds every call until ``width`` calls have been in flight at once."""

        capability = "concurrent"

        def __init__(self, width):
            self.width = width
            self.in_flight = 0
            self.peak = 0
            self._cond = threading.Condition()

        def complete(self, prompt_text, decode_config):
            with self._cond:
                self.in_flight += 1
                self.peak = max(self.peak, self.in_flight)
                self._cond.notify_all()
                self._cond.wait_for(lambda: self.peak >= self.width, timeout=0.5)
                self.in_flight -= 1
            return "E2" if "Title B" in prompt_text else "E1"

    client = Gated(4)
    nodes = _leaf_nodes(["Title A", "Title B", "Title C"])
    runs = annotate_nodes(client, nodes, model_id="m", n_samples=2, in_flight=4)
    assert client.peak == 4
    assert [run.occupation_code for run in runs] == [node.code for node in nodes]
    assert [run.samples for run in runs] == [[E1, E1], [E2, E2], [E1, E1]]


def test_failed_sample_cancels_the_queue():
    class FailsFirstTitle:
        capability = "concurrent"

        def __init__(self):
            self._lock = threading.Lock()
            self.calls = 0

        def complete(self, prompt_text, decode_config):
            with self._lock:
                self.calls += 1
            time.sleep(0.001)
            return "unclear" if "Title 0" in prompt_text else "E1"

    client = FailsFirstTitle()
    nodes = _leaf_nodes([f"Title {i}" for i in range(30)])
    with pytest.raises(AnnotationError):
        annotate_nodes(client, nodes, model_id="m", n_samples=8, max_retries=2, in_flight=4)
    # 30 x 8 samples queued; the run stops once the first sample fails.
    assert client.calls < 60


# --- scripted mock and config loading ------------------------------------------


def _two_node_taxonomy():
    return load_taxonomy(
        io.StringIO(
            "code,title,description,excluded\n"
            "2,Pros,top,false\n"
            "2-06,Economists,Does economics.,false\n"
            "2-08,Teachers,Teaches.,false\n"
        )
    )


def test_scripted_mock_routes_by_occupation():
    tx = _two_node_taxonomy()
    client = ScriptedMockClient(
        {"2-06": ["E1"], "2-08": ["E0", "E2"]}, tx
    )
    run_a = annotate_occupation(client, tx.node("2-06"), model_id="m", n_samples=3)
    run_b = annotate_occupation(client, tx.node("2-08"), model_id="m", n_samples=3)
    assert run_a.samples == [E1, E1, E1]
    assert run_b.samples == [E0, E2, E0]


def test_scripted_mock_without_entry_fails():
    tx = _two_node_taxonomy()
    client = ScriptedMockClient({"2-06": ["E1"]}, tx)
    with pytest.raises(AnnotationError):
        annotate_occupation(client, tx.node("2-08"), model_id="m", n_samples=1)


def test_load_mock_client_kinds(tmp_path):
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps({"kind": "fixed", "answer": "E1"}))
    client = load_mock_client(fixed)  # a fixed answer is a cycle of one
    assert isinstance(client, CycleMockClient) and client.answers == ["E1"]

    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"kind": "cycle", "answers": ["E1", "E0"]}))
    assert isinstance(load_mock_client(cycle), CycleMockClient)

    scripted = tmp_path / "scripted.json"
    scripted.write_text(json.dumps({"kind": "scripted", "answers": {"2-06": ["E1"]}}))
    assert isinstance(
        load_mock_client(scripted, _two_node_taxonomy()), ScriptedMockClient
    )
    with pytest.raises(InputFormatError):
        load_mock_client(scripted)  # scripted needs the taxonomy

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "quantum"}))
    with pytest.raises(InputFormatError):
        load_mock_client(bad)


# --- store ---------------------------------------------------------------------


def test_store_roundtrip_and_determinism(tmp_path):
    runs = [
        annotate_occupation(CycleMockClient(["E1"]), _node(), model_id="glm", n_samples=4),
        annotate_occupation(CycleMockClient(["E0", "E2"]), _node(), model_id="gpt4", n_samples=4),
    ]
    path_a = tmp_path / "a.jsonl"
    path_b = tmp_path / "b.jsonl"
    AnnotationStore(path_a, clock=LogicalClock()).append(runs)
    AnnotationStore(path_b, clock=LogicalClock()).append(runs)
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = read_annotation_store(path_a)
    assert [r.model_id for r in loaded] == ["glm", "gpt4"]
    assert loaded[0].samples == runs[0].samples
    assert loaded[1].raw_responses == runs[1].raw_responses

    record = json.loads(path_a.read_text().splitlines()[0])
    assert record["timestamp"] == "2000-01-01T00:00:00+00:00"


def test_store_appends(tmp_path):
    path = tmp_path / "s.jsonl"
    store = AnnotationStore(path, clock=LogicalClock())
    run = annotate_occupation(CycleMockClient(["E3"]), _node(), model_id="glm", n_samples=2)
    store.append([run])
    store.append([run])
    assert len(read_annotation_store(path)) == 2


def test_store_rejects_garbage(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"model_id": "m"}\n')
    with pytest.raises(InputFormatError):
        read_annotation_store(path)
