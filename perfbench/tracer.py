"""Traced in-process run: per-layer self times and counts.

Run by ``run.py --trace 1`` as its own interpreter, with the package and this
directory on ``PYTHONPATH``::

    python perfbench/tracer.py --workload NAME --seed N --seconds S \
        --work DIR --fix FIXTURES --result FILE --spans FILE

It calls ``lmexposure.cli.main(argv)`` for each command of the workload,
alternating untraced passes and passes traced from outside: the public
functions and methods of every module are replaced by wrappers that record
a span (name, start, end, parent) where a call crosses from one layer into
another, and count work at the same boundaries. Spans stay in memory and are
written to the ``--spans`` file, one list per traced pass, when the run ends.

Spans are recorded on the main thread only; calls made on worker threads are
counted but open no span, so a layer's self time is its own thread's time.
Generator functions are left unwrapped: their work runs when the caller
iterates, and is the caller's.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import Counter
from enum import Enum
from pathlib import Path

import stats
import workloads

# Medians over this many traced passes are steady; more only add checking time.
MAX_TRACED_PASSES = 10

LAYERS = ("cli", "runio", "taxonomy", "annotate", "scores", "aggregate", "labor_stats", "econ_model")

# Per-layer metric -> the spans whose self times it sums.
SELF_TIME_METRICS = {
    "runio.atomic_write_text_s": ("runio.atomic_write_text",),
    "runio.write_manifest_s": ("runio.write_manifest",),
    "taxonomy.load_taxonomy_s": ("taxonomy.load_taxonomy",),
    "taxonomy.aggregate_up_s": ("taxonomy.aggregate_up",),
    "scores.read_score_table_s": ("scores.read_score_table",),
    "scores.records_from_runs_s": ("scores.records_from_runs",),
    "scores.render_score_table_s": ("scores.render_score_table",),
    "aggregate.from_csv_s": ("aggregate.IntensityMatrix.from_csv", "aggregate.DemographicShares.from_csv"),
    "aggregate.industry_exposure_s": ("aggregate.industry_exposure",),
    "aggregate.demographic_exposure_s": ("aggregate.demographic_exposure",),
    "labor_stats.correlation_panel_s": ("labor_stats.correlation_panel",),
    "labor_stats.scatter_report_s": ("labor_stats.scatter_report",),
    "econ_model.load_scenario_s": ("econ_model.load_scenario",),
    "econ_model.contour_grid_s": ("econ_model.contour_grid",),
    "annotate.annotate_nodes_s": ("annotate.annotate_nodes",),
    "annotate.store_append_s": ("annotate.AnnotationStore.append",),
    "annotate.read_store_s": ("annotate.read_annotation_store",),
}

COUNT_METRICS = (
    "runio.bytes_written",
    "runio.bytes_hashed",
    "taxonomy.nodes_loaded",
    "scores.rows_read",
    "labor_stats.pearson_calls",
    "econ_model.aggregate_growth_calls",
    "econ_model.sector_cell_ops",
    "annotate.calls",
    "annotate.retries",
)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


class CallMeter:
    """Stands in for a classifier client: times and counts every call."""

    def __init__(self, client, tracer: "Tracer"):
        self._client = client
        self._tracer = tracer
        self.capability = getattr(client, "capability", "serial")

    def complete(self, prompt_text, decode_config):
        tracer = self._tracer
        with tracer.lock:
            tracer.in_flight += 1
            tracer.peak_in_flight = max(tracer.peak_in_flight, tracer.in_flight)
        start = time.perf_counter()
        try:
            return self._client.complete(prompt_text, decode_config)
        finally:
            elapsed = time.perf_counter() - start
            with tracer.lock:
                tracer.in_flight -= 1
                tracer.call_seconds.append(elapsed)


def _written(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"runio.bytes_written": len(text.encode("utf-8"))}


# Counts taken at a layer boundary from a call's arguments and result.
HOOKS = {
    "runio.atomic_write_text": lambda a, k, r: _written(a, k),
    "runio.sha256_file": lambda a, k, r: {"runio.bytes_hashed": os.path.getsize(a[0])},
    "taxonomy.load_taxonomy": lambda a, k, r: {"taxonomy.nodes_loaded": len(r.index)},
    "scores.read_score_table": lambda a, k, r: {"scores.rows_read": len(r.rows)},
    "labor_stats.pearson": lambda a, k, r: {"labor_stats.pearson_calls": 1},
    "econ_model.aggregate_growth": lambda a, k, r: {"econ_model.aggregate_growth_calls": 1},
    "econ_model.contour_grid": lambda a, k, r: {
        "econ_model.sector_cell_ops": len(a[0]) * len(a[2]) * len(a[3])
    },
    "annotate.annotate_nodes": lambda a, k, r: {"annotate.samples": sum(len(x.samples) for x in r)},
}


class Tracer:
    """Installs and removes the wrappers; holds one pass's spans and counts."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self._main = threading.main_thread()
        self._stack: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.call_seconds: list[float] = []
        self.in_flight = 0
        self.peak_in_flight = 0

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        meter = name == "annotate.annotate_nodes"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if meter:
                args = (CallMeter(args[0], tracer),) + args[1:]
            stack = tracer._stack
            if threading.current_thread() is tracer._main and (not stack or stack[-1]["layer"] != layer):
                span = {
                    "id": len(tracer.spans),
                    "parent": stack[-1]["id"] if stack else None,
                    "name": name,
                    "layer": layer,
                    "start": time.perf_counter(),
                    "end": None,
                }
                tracer.spans.append(span)
                stack.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span["end"] = time.perf_counter()
                    stack.pop()
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                with tracer.lock:
                    tracer.counts.update(hook(args, kwargs, result))
            return result

        return wrapper

    def _targets(self, modules):
        """(owner, attribute, span name, function, kind) for every public callable."""
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(value):
                        yield module, attr, f"{layer}.{attr}", value, None
                elif (
                    inspect.isclass(value)
                    and value.__module__ == module.__name__
                    and not issubclass(value, (Enum, BaseException))
                    and not getattr(value, "_is_protocol", False)
                ):
                    for meth, raw in list(vars(value).items()):
                        if meth.startswith("_"):
                            continue
                        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                        fn = raw.__func__ if kind else raw
                        if (
                            inspect.isfunction(fn)
                            and fn.__qualname__ == f"{attr}.{meth}"
                            and not inspect.isgeneratorfunction(fn)
                        ):
                            yield value, meth, f"{layer}.{attr}.{meth}", fn, kind

    def install(self, modules: dict[str, object], namespaces: list[object]) -> None:
        for owner, attr, name, fn, kind in list(self._targets(modules)):
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                original = vars(owner)[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, kind(wrapper) if kind else wrapper)
                continue
            # Replace every module-level reference, including from-imports.
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        self._patches.append((namespace, key, value))
                        setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def pass_metrics(self) -> dict[str, float]:
        own = self_times(self.spans)
        by_name: Counter = Counter()
        by_layer: Counter = Counter()
        inclusive: Counter = Counter()
        for span in self.spans:
            by_name[span["name"]] += own[span["id"]]
            by_layer[span["layer"]] += own[span["id"]]
            inclusive[span["name"]] += span["end"] - span["start"]
        metrics: dict[str, float] = {"cli.main_s": inclusive["cli.main"]}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = by_layer[layer]
        for metric, names in SELF_TIME_METRICS.items():
            metrics[metric] = sum(by_name[n] for n in names)
        calls = len(self.call_seconds)
        samples = self.counts["annotate.samples"]
        self.counts["annotate.calls"] = calls
        self.counts["annotate.retries"] = calls - samples
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        annotate_wall = inclusive["annotate.annotate_nodes"]
        call_ms = sorted(s * 1000.0 for s in self.call_seconds)
        metrics["annotate.useful_ratio"] = samples / calls if calls else 0.0
        metrics["annotate.peak_in_flight"] = self.peak_in_flight
        metrics["annotate.mean_in_flight"] = (
            math.fsum(self.call_seconds) / annotate_wall if annotate_wall else 0.0
        )
        metrics["annotate.call_p50_ms"] = statistics.median(call_ms) if call_ms else 0.0
        metrics["annotate.call_tail_ms"] = stats.tail(call_ms)[0] if call_ms else 0.0
        return metrics


def _run_pass(cli, commands) -> dict:
    record = []
    start = time.perf_counter()
    for name, argv in commands:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed command, not a failed run
            print(f"{name}: {exc!r}", file=sys.stderr)
            code = 1
        record.append({"name": name, "argv": argv, "code": code, "seconds": time.perf_counter() - t0})
    return {"wall": time.perf_counter() - start, "commands": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--fix", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = workloads.set_up(args.workload, args.seed, args.work / "inputs")
    cli = importlib.import_module("lmexposure.cli")
    modules = {layer: importlib.import_module(f"lmexposure.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sorted(sys.modules.items()) if n == "lmexposure" or n.startswith("lmexposure.")]
    tracer = Tracer()

    passes: list[dict] = []
    all_spans: list[list[dict]] = []

    def one_pass(kind: str) -> None:
        out = args.work / f"tpass{len(passes)}"
        out.mkdir(parents=True)
        commands = workload.commands(args.fix, out)
        if kind == "traced":
            tracer.reset()
            tracer.install(modules, namespaces)
            try:
                result = _run_pass(cli, commands)
            finally:
                tracer.uninstall()
            result["metrics"] = tracer.pass_metrics()
            all_spans.append(tracer.spans)
        else:
            result = _run_pass(cli, commands)
        result.update(kind=kind, dir=str(out))
        passes.append(result)

    # The first pass fills lazy imports and caches; it is checked but not timed.
    one_pass("warmup")
    begin = time.perf_counter()
    kinds = ("traced", "untraced")
    while len(passes) < 3 or (
        len(passes) <= 2 * MAX_TRACED_PASSES
        and stats.fits_another(begin, len(passes) - 1, args.seconds)
    ):
        one_pass(kinds[(len(passes) - 1) % 2])

    args.spans.write_text(json.dumps(all_spans), encoding="utf-8")
    traced = [p for p in passes if p["kind"] == "traced"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    # Counts repeat exactly from pass to pass; report one that was observed.
    exact = set(COUNT_METRICS) | {"annotate.peak_in_flight"}
    metrics = {
        name: (statistics.median_low if name in exact else statistics.median)(
            p["metrics"][name] for p in traced
        )
        for name in traced[0]["metrics"]
    }
    metrics["trace.traced_pass_s"] = statistics.median(p["wall"] for p in traced)
    metrics["trace.untraced_pass_s"] = statistics.median(p["wall"] for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.traced_pass_s"] - metrics["trace.untraced_pass_s"]
    args.result.write_text(json.dumps({"passes": passes, "metrics": metrics}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
