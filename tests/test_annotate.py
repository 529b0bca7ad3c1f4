"""Prompt rendering, response parsing, sampling harness, mocks, store."""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
import time

import pytest

from lmexposure.annotate import (
    AmbiguousResponse,
    AnnotationError,
    AnnotationStore,
    EmptyDescriptionError,
    ExposureCategory,
    LogicalClock,
    MockClient,
    NoCategoryFound,
    _run_queue,
    annotate_nodes,
    load_mock_client,
    parse_category,
    read_annotation_store,
    render_prompt,
)
from lmexposure.errors import ComputationError, InputFormatError
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
    text = render_prompt(node, rubric)
    assert text.count("Teachers") == 1
    assert text.count("Prepares and delivers lessons.") == 1
    assert text.count("RUBRIC-BODY-MARKER") == 1
    assert "E0" in text and "E3" in text  # output-format instruction


def test_prompt_is_deterministic():
    node = _node()
    assert render_prompt(node) == render_prompt(node)


def test_prompt_bytes_are_pinned():
    # perfbench's latency shim keys its answers and latencies on the prompt's
    # SHA-256, so an edit to the template or the default rubric must be deliberate.
    digest = hashlib.sha256(render_prompt(_node()).encode("utf-8")).hexdigest()
    assert digest == "6a3e609c03f6b4aa26c0510c4f38458208f92d01eb0b0d99c36fb06aa18d048c"


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
    run = annotate_nodes(MockClient(["E1"]), [_node()], model_id="m", n_samples=8)[0]
    assert run.samples == [E1] * 8
    assert run.raw_responses == ["E1"] * 8


def test_cycle_mock_order_preserved():
    run = annotate_nodes(MockClient(["E1", "E0"]), [_node()], model_id="m", n_samples=8)[0]
    assert run.samples == [E1, E0, E1, E0, E1, E0, E1, E0]


def test_retry_exhaustion_fails_run():
    client = MockClient(["nonsense"])
    node = _node()
    message = f"model 'm', occupation {node.code.raw}, sample 1 of 1: failed after 3 attempts"
    with pytest.raises(AnnotationError, match=message):
        annotate_nodes(client, [node], model_id="m", n_samples=1, max_retries=2)


def test_retry_then_success_never_inflates_samples():
    client = MockClient(["nonsense", "nonsense", "E2"])
    run = annotate_nodes(client, [_node()], model_id="m", n_samples=2, max_retries=2)[0]
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

    run = annotate_nodes(Flaky(), [_node()], model_id="m", n_samples=3, max_retries=1)[0]
    assert run.samples == [E0, E0, E0]


def test_deterministic_client_gives_pure_runs():
    a = annotate_nodes(MockClient(["E2", "E1"]), [_node()], model_id="m", n_samples=5)[0]
    b = annotate_nodes(MockClient(["E2", "E1"]), [_node()], model_id="m", n_samples=5)[0]
    assert a.samples == b.samples
    assert a.raw_responses == b.raw_responses


def test_n_samples_must_be_positive():
    with pytest.raises(Exception):
        annotate_nodes(MockClient(["E1"]), [_node()], model_id="m", n_samples=0)


@pytest.mark.parametrize("in_flight", [0, -3])
def test_in_flight_must_be_positive(in_flight):
    with pytest.raises(ComputationError, match="in_flight"):
        annotate_nodes(MockClient(["E1"]), [_node()], model_id="m", in_flight=in_flight)


def test_serial_client_runs_in_order_on_the_calling_thread():
    class Recording:
        capability = "serial"

        def __init__(self):
            self.calls = []

        def complete(self, prompt_text, decode_config):
            title = prompt_text.split("Occupation title: ")[1].split("\n")[0]
            self.calls.append((title, threading.get_ident(), threading.active_count()))
            return "E1"

    client = Recording()
    threads_before = threading.active_count()
    nodes = _leaf_nodes(["Title A", "Title B", "Title C"])
    annotate_nodes(client, nodes, model_id="m", n_samples=2, in_flight=8)
    assert [title for title, _, _ in client.calls] == ["Title A"] * 2 + ["Title B"] * 2 + [
        "Title C"
    ] * 2
    assert {ident for _, ident, _ in client.calls} == {threading.get_ident()}
    assert {count for _, _, count in client.calls} == {threads_before}


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
    run = annotate_nodes(client, [_node()], model_id="m", n_samples=8, in_flight=4)[0]
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


def test_interrupt_on_the_calling_thread_stops_the_queue():
    calling_thread = threading.get_ident()

    class InterruptedOnCaller:
        capability = "concurrent"

        def __init__(self):
            self._lock = threading.Lock()
            self.calls = 0

        def complete(self, prompt_text, decode_config):
            with self._lock:
                self.calls += 1
            if threading.get_ident() == calling_thread:
                raise KeyboardInterrupt
            time.sleep(0.001)
            return "E1"

    client = InterruptedOnCaller()
    threads_before = threading.active_count()
    nodes = _leaf_nodes([f"Title {i}" for i in range(30)])
    with pytest.raises(KeyboardInterrupt):
        annotate_nodes(client, nodes, model_id="m", n_samples=8, in_flight=4)
    assert client.calls < 60
    assert threading.active_count() == threads_before  # the helpers have joined


class Echo:
    """Answers with the category named by the occupation's number."""

    capability = "concurrent"

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt_text, decode_config):
        with self._lock:
            self.calls += 1
        title = prompt_text.split("Occupation title: ")[1].split("\n")[0]
        return f"E{int(title.split()[-1]) % 4}"


def test_work_queue_takes_each_job_once_under_contention():
    client = Echo()
    nodes = _leaf_nodes([f"Title {i}" for i in range(40)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = annotate_nodes(client, nodes, model_id="m", n_samples=25, in_flight=16)
    finally:
        sys.setswitchinterval(interval)
    # A job taken twice adds a call; a job skipped leaves a hole in the results.
    assert client.calls == 40 * 25
    assert [run.samples for run in runs] == [[ExposureCategory(f"E{i % 4}")] * 25 for i in range(40)]


def test_queues_of_several_models_take_each_job_once_under_contention():
    clients = [Echo() for _ in range(3)]
    nodes = _leaf_nodes([f"Title {i}" for i in range(40)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        per_model = _run_queue(
            lambda i: annotate_nodes(
                clients[i], nodes, model_id=f"m{i}", n_samples=10, in_flight=8
            ),
            3,
            3,
        )
    finally:
        sys.setswitchinterval(interval)
    # Three queues of eight workers share one lock and one failure list.
    assert [client.calls for client in clients] == [40 * 10] * 3
    assert [[run.model_id for run in runs] for runs in per_model] == [
        [f"m{i}"] * 40 for i in range(3)
    ]
    for runs in per_model:
        assert [run.samples for run in runs] == [
            [ExposureCategory(f"E{i % 4}")] * 10 for i in range(40)
        ]


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
    client = MockClient({"2-06": ["E1"], "2-08": ["E0", "E2"]})
    run_a = annotate_nodes(client, [tx.node("2-06")], model_id="m", n_samples=3)[0]
    run_b = annotate_nodes(client, [tx.node("2-08")], model_id="m", n_samples=3)[0]
    assert run_a.samples == [E1, E1, E1]
    assert run_b.samples == [E0, E2, E0]


def test_scripted_mock_without_entry_fails():
    tx = _two_node_taxonomy()
    client = MockClient({"2-06": ["E1"]})
    with pytest.raises(AnnotationError, match="no scripted answers for occupation '2-08'"):
        annotate_nodes(client, [tx.node("2-08")], model_id="m", n_samples=1)


def test_cycle_mock_restarts_at_each_occupation():
    client = MockClient(["E1", "E0", "E2"])
    runs = annotate_nodes(client, _leaf_nodes(["A", "B"]), model_id="m", n_samples=2)
    assert [run.samples for run in runs] == [[E1, E0], [E1, E0]]


def test_mock_retry_moves_only_that_sample_to_the_next_answer():
    client = MockClient(["x", "E1", "E2"])
    run = annotate_nodes(client, [_node()], model_id="m", n_samples=3, max_retries=1)[0]
    # Sample 0 retries onto answer 1; samples 1 and 2 keep their own answers.
    assert run.samples == [E1, E1, E2]


def test_each_request_names_its_code_sample_and_attempt():
    class Recording:
        capability = "serial"

        def __init__(self):
            self.configs = []

        def complete(self, prompt_text, decode_config):
            self.configs.append(dict(decode_config))
            first_try_of_sample_1 = decode_config["sample"] == 1 and not decode_config["attempt"]
            return "unclear" if first_try_of_sample_1 else "E1"

    client = Recording()
    nodes = _leaf_nodes(["Title A", "Title B"])
    annotate_nodes(client, nodes, model_id="m", n_samples=2, max_retries=2)
    assert {frozenset(config) for config in client.configs} == {
        frozenset({"code", "sample", "attempt"})
    }
    assert [(c["code"], c["sample"], c["attempt"]) for c in client.configs] == [
        ("2-01", 0, 0), ("2-01", 1, 0), ("2-01", 1, 1),
        ("2-02", 0, 0), ("2-02", 1, 0), ("2-02", 1, 1),
    ]


def test_a_sample_that_exhausts_its_retries_sent_attempts_0_to_max_retries():
    attempts = []

    class Unclear:
        capability = "serial"

        def complete(self, prompt_text, decode_config):
            attempts.append((decode_config["sample"], decode_config["attempt"]))
            return "unclear"

    with pytest.raises(AnnotationError, match="sample 1 of 2: failed after 4 attempts"):
        annotate_nodes(Unclear(), [_node()], model_id="m", n_samples=2, max_retries=3)
    assert attempts == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_load_mock_client_kinds(tmp_path):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"kind": "cycle", "answers": ["E1", "E0"]}))
    client = load_mock_client(cycle)
    assert isinstance(client, MockClient) and client.answers == ["E1", "E0"]

    scripted = tmp_path / "scripted.json"
    scripted.write_text(json.dumps({"kind": "scripted", "answers": {"2-06": ["E1"]}}))
    client = load_mock_client(scripted, _two_node_taxonomy())
    assert isinstance(client, MockClient) and client.answers == {"2-06": ["E1"]}
    with pytest.raises(InputFormatError, match="needs a taxonomy to check its codes"):
        load_mock_client(scripted)

    for config, message in (
        ({"kind": "quantum"}, "unknown mock client kind 'quantum'"),
        ({"kind": "fixed", "answer": "E1"}, "unknown mock client kind 'fixed'"),
        ({"kind": "cycle", "answers": []}, "cycle mock needs at least one answer"),
        ({"kind": "scripted", "answers": {"2-06": []}}, "empty answer list for occupation '2-06'"),
        ({"kind": "scripted", "answers": {"2-07": ["E1"]}}, "unknown occupation code '2-07'"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        with pytest.raises(InputFormatError, match=message):
            load_mock_client(bad, _two_node_taxonomy())


# --- store ---------------------------------------------------------------------


def test_store_roundtrip_and_determinism(tmp_path):
    runs = [
        annotate_nodes(MockClient(["E1"]), [_node()], model_id="glm", n_samples=4)[0],
        annotate_nodes(MockClient(["E0", "E2"]), [_node()], model_id="gpt4", n_samples=4)[0],
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
    run = annotate_nodes(MockClient(["E3"]), [_node()], model_id="glm", n_samples=2)[0]
    store.append([run])
    store.append([run])
    assert len(read_annotation_store(path)) == 2


def test_store_rejects_garbage(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text('{"model_id": "m"}\n')
    with pytest.raises(InputFormatError):
        read_annotation_store(path)
