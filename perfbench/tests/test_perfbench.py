"""Self-tests of the benchmark: inputs, client shim, statistics, tracing, checks."""

from __future__ import annotations

import json
import random
import sys
import threading
import types
from collections import Counter
from pathlib import Path

import pytest

import checks
import gen
import latency_shim
import run
import stats
import tracer


# --- seeded input generator ---------------------------------------------------


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.make_full_taxonomy_inputs(seed, tmp_path / name)
        gen.make_outcome_file(seed, tmp_path / name / "salary.csv")
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert set(a) == set(c) and all(a[k] != c[k] for k in a)
    # Nothing was written outside the output directories.
    assert {p.name for p in tmp_path.iterdir()} == {"a", "b", "c"}


def test_generated_taxonomy_has_the_full_synthetic_shape():
    rows = gen.full_taxonomy_rows(random.Random(3))
    by_level = Counter(code.count("-") for code, *_ in rows)
    assert by_level == {0: 8, 1: 79, 2: 449, 3: 1636}
    excluded = {code for code, _, _, flag in rows if flag == "true"}
    leaves = [c for c, *_ in rows if c.count("-") == 3 and c.split("-")[0] not in excluded]
    assert len(leaves) == gen.FULL_LEAVES


def test_medium_shape_matches_the_bundled_score_table():
    fixture = Path(__file__).resolve().parents[2] / "src/lmexposure/fixtures/medium63_scores.csv"
    codes = [line.split(",", 1)[0] for line in fixture.read_text().splitlines()[1:]]
    assert codes == gen.medium63_codes()


# --- latency shim -------------------------------------------------------------


def _prompts(n):
    return [f"[language: zh]\nOccupation title: Job {i}\nOccupation description: d{i}\n" for i in range(n)]


def test_shim_answers_do_not_depend_on_thread_interleaving(monkeypatch):
    monkeypatch.setattr(latency_shim, "MEDIAN_S", 0.0005)
    prompts = _prompts(6)
    calls = [(p, i) for p in prompts for i in range(latency_shim.N_SAMPLES + 1)]

    def run_all(order, threads):
        recorder = latency_shim.CallRecorder()
        client = latency_shim.LatencyClient("gpt4", 5, recorder)
        got = Counter()
        lock = threading.Lock()
        queue = list(order)

        def worker():
            while True:
                with lock:
                    if not queue:
                        return
                    prompt, _ = queue.pop()
                text = client.complete(prompt, {})
                with lock:
                    got[(prompt, text)] += 1

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in pool)
        return got, recorder.summary()

    serial, _ = run_all(calls, 1)
    shuffled = calls[:]
    random.Random(0).shuffle(shuffled)
    concurrent, summary = run_all(shuffled, 8)
    assert concurrent == serial
    assert summary["calls"] == len(calls)
    assert summary["unparseable"] == len(prompts)
    assert 1 <= summary["peak_in_flight"] <= 8
    for prompt in prompts:
        texts = {t for (p, t), n in serial.items() if p == prompt}
        # One unparseable answer; every other call gets the same parseable text.
        assert len(texts) == 2 and latency_shim.UNPARSEABLE in texts


def test_shim_latency_is_seeded_log_normal():
    prompt = _prompts(1)[0]
    values = [latency_shim.latency(1, "glm", prompt, i) for i in range(2000)]
    assert values == [latency_shim.latency(1, "glm", prompt, i) for i in range(2000)]
    median = sorted(values)[len(values) // 2]
    assert 0.009 < median < 0.011


def test_annotation_store_is_the_same_serial_and_concurrent(monkeypatch):
    annotate = pytest.importorskip("lmexposure.annotate")
    taxonomy = pytest.importorskip("lmexposure.taxonomy")
    monkeypatch.setattr(latency_shim, "MEDIAN_S", 0.0005)
    fixture = Path(__file__).resolve().parents[2] / "src/lmexposure/fixtures/taxonomy_medium63.csv"
    nodes = taxonomy.load_taxonomy(fixture).leaves()[:12]

    def samples(in_flight):
        client = latency_shim.LatencyClient("glm", 9, latency_shim.CallRecorder())
        runs = annotate.annotate_nodes(client, nodes, model_id="glm", in_flight=in_flight)
        return [(r.samples, r.raw_responses) for r in runs], client.recorder.summary()

    serial, _ = samples(1)
    concurrent, summary = samples(8)
    assert concurrent == serial
    assert summary["calls"] == 12 * 9 and summary["peak_in_flight"] == 8


# --- statistics and tracing ---------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90, 90.0, 10)
    assert stats.tail(list(range(11))) == (0, 100 / 11, 10)
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = stats.tail(list(range(39)))
    assert sum(v > value for v in range(39)) == beyond == 10


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert tracer.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_tracer_opens_spans_only_where_a_call_crosses_layers():
    inner = _module("fake_inner", "def leaf(x):\n    return x + 1\n\ndef mid(x):\n    return leaf(x) * 2\n")
    outer = _module("fake_outer", "def top(x):\n    return inner.mid(x) + inner.leaf(0)\n")
    outer.inner = inner
    original = inner.mid

    t = tracer.Tracer()
    t.install({"inner": inner, "outer": outer}, [inner, outer])
    try:
        assert outer.top(1) == 5
    finally:
        t.uninstall()
    # inner.leaf called from inner.mid stays inside its layer and opens no span.
    assert [(s["name"], s["parent"]) for s in t.spans] == [
        ("outer.top", None), ("inner.mid", 0), ("inner.leaf", 0),
    ]
    assert inner.mid is original


def test_importtime_parser():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:        50 |         50 |     numpy.core",
        "import time:        10 |         60 |   numpy",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:         5 |         25 |     scipy.special",
        "import time:         5 |         90 |   pkg.mod",
        "import time:         1 |         91 | pkg",
    ])
    assert run.parse_importtime(text) == pytest.approx((100 + 91) / 1e6)
    assert run.parse_importtime(text, ("numpy",)) == pytest.approx((60 + 20) / 1e6)
    assert run.parse_importtime(text, ("numpy",), outside=("scipy",)) == pytest.approx(60 / 1e6)
    assert run.parse_importtime(text, ("scipy",)) == pytest.approx(25 / 1e6)


# --- output checks --------------------------------------------------------------


def test_any_changed_byte_fails_the_golden_check(tmp_path):
    out = tmp_path / "pass"
    out.mkdir()
    report = out / "pair.json"
    report.write_text('{\n  "p_value": 0.012345678912345,\n  "r": 0.5\n}\n')
    manifest = {"outputs": {"report": checks.sha256_bytes(report.read_bytes())}}
    (out / "pair.json.manifest.json").write_text(json.dumps(manifest))
    workload = types.SimpleNamespace(name="demo_chain", inputs={})
    golden = {"seed": 1, "digests": {"demo_chain": {"pair.json": checks.output_digest(report)}}}
    ctx = checks.Context(workload, tmp_path, 1, golden)
    argv = ["stats", "--out", str(report)]
    assert checks.check_command(ctx, "stats_pair", argv, out) == []

    # The last digits of an unrounded p-value may move; the manifest is rewritten to match.
    report.write_text('{\n  "p_value": 0.012345678912399,\n  "r": 0.5\n}\n')
    manifest["outputs"]["report"] = checks.sha256_bytes(report.read_bytes())
    (out / "pair.json.manifest.json").write_text(json.dumps(manifest))
    assert checks.check_command(ctx, "stats_pair", argv, out) == []

    for original, changed in (("0.5", "0.6"), ("\n}", " }"), ("0123456789", "0123456780")):
        report.write_text(report.read_text().replace(original, changed, 1))
        manifest["outputs"]["report"] = checks.sha256_bytes(report.read_bytes())
        (out / "pair.json.manifest.json").write_text(json.dumps(manifest))
        assert checks.check_command(ctx, "stats_pair", argv, out), changed
        report.write_text(report.read_text().replace(changed, original, 1))


def test_manifest_must_match_the_output(tmp_path):
    out = tmp_path
    target = out / "levels.csv"
    target.write_text("code,score\n")
    (out / "levels.csv.manifest.json").write_text(json.dumps({"outputs": {"a": "0" * 64}}))
    ctx = checks.Context(types.SimpleNamespace(name="demo_chain", inputs={}), tmp_path, 2, None)
    problems = checks.check_command(ctx, "aggregate", ["aggregate", "--out", str(target)], out)
    assert problems == ["aggregate: manifest digests do not match the outputs"]


# --- reference pairing ---------------------------------------------------------


def test_reference_pairs_each_process_with_the_runs_beside_it(tmp_path, monkeypatch):
    reference = run.Reference(tmp_path, tmp_path / "reference.log")
    runs = iter([0.4, 0.6, 0.5, 0.45])

    def fake_time() -> float:
        reference.samples.append(next(runs))
        return reference.samples[-1]

    monkeypatch.setattr(reference, "time", fake_time)
    jobs = [
        lambda: {"seconds": 1.0, "cpu": 1.0},
        lambda: {"seconds": 2.0, "cpu": 3.0},  # helper threads: busy is capped at the wall time
        lambda: {"seconds": 6.0, "cpu": 0.5},  # mostly waiting on latency
    ]
    records = reference.paired(jobs)
    # Jobs 0 and 1 lie between the runs 0.4 and 0.6, job 2 between 0.6 and 0.5.
    assert [r["ref"] for r in records] == pytest.approx([0.5, 0.5, 0.55])
    factor = run.REFERENCE_S / 0.5
    assert records[0]["scaled"] == pytest.approx(1.0 * factor)
    assert records[1]["scaled"] == pytest.approx(2.0 * factor)
    # Only the processor time is scaled; the 5.5 s of waiting is not.
    assert records[2]["scaled"] == pytest.approx(5.5 + 0.5 * run.REFERENCE_S / 0.55)
    # The next call starts from the last reference run instead of a new one.
    [record] = reference.paired([lambda: {"seconds": 1.0, "cpu": 1.0}])
    assert record["ref"] == pytest.approx((0.5 + 0.45) / 2)
    assert reference.samples == [0.4, 0.6, 0.5, 0.45]
