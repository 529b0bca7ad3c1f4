#!/usr/bin/env python3
"""lmexposure benchmark: run one workload, check its outputs, print metrics.

Run from the repository root (the package is taken from ``src/``)::

    python3 perfbench/run.py --workload demo_chain --seed 1 --seconds 36 --trace 0

``--trace 0`` runs each command as ``python -m lmexposure.cli ...`` in its own
interpreter, so start-up is included, and reports the end-to-end metrics.
Their times are given at reference host speed: a fixed reference interpreter
is timed next to the measured processes (``Reference``), and each measured
time is scaled by ``REFERENCE_S`` over the reference time beside it.
``--trace 1`` reports the per-layer metrics instead: an ``-X importtime``
breakdown and a traced in-process run (``tracer.py``). Either way every
output is checked (``checks.py``), and the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The metrics are described in ``perfbench/README.md``.

``--write-golden`` runs one pass and records the output digests of the seed
in ``golden.json``; use it only when outputs are meant to change.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import stats
import workloads

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEED = 1
SETUP_IMPORTS = 8
# The reference process: a fresh interpreter that imports the numerical stack
# the package is built on, and nothing from the repository. Each measured
# process is scaled by REFERENCE_S / (reference time beside it), which removes
# the host's drift in speed; REFERENCE_S is the reference's typical time on
# the 2-core host where the benchmark was written. Only the part of a process's
# wall time it spent on a processor is scaled; time spent waiting (on the
# latency of the annotation client, say) does not depend on the host's speed.
REFERENCE_CODE = "import numpy, scipy.special"
REFERENCE_S = 0.5
# A reference run follows every this many measured processes.
REFERENCE_EVERY = 2
IMPORTTIME_RUNS = 3
COMMAND_TIMEOUT_S = 100.0
TRACE_TIMEOUT_S = 150.0
EXPECTED_SHIM_CALLS = workloads.ANNOTATE_SAMPLES + 3 * 63  # one retry per (model, occupation)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Harness:
    """Paths and environment of one benchmark run inside a checkout."""

    def __init__(self, root: Path, workload_name: str, seed: int):
        self.src = root / "src"
        self.fix = self.src / "lmexposure" / "fixtures"
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload_name}-{seed}-{os.getpid()}"
        self.workload = workloads.set_up(workload_name, seed, self.work / "inputs")
        self.env = dict(os.environ)
        self.env.pop("PYTHONPATH", None)
        self.env.update(self.workload.env)
        self.env["PYTHONPATH"] = os.pathsep.join([str(self.src), str(BENCH_DIR / "client")])
        golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else None
        self.ctx = checks.Context(self.workload, self.fix, seed, golden)


def run_process(argv: list[str], env: dict, cwd: Path, log: Path, timeout: float):
    """Run to completion; returns (exit code, wall seconds, resource usage)."""
    with open(log, "ab") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=handle, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage


class Reference:
    """Times the reference process between measured processes.

    A reference run precedes the first process and follows every
    ``REFERENCE_EVERY`` processes; each process is paired with the mean of the
    reference runs just before and just after it. The last reference run is
    reused as the first of the next call.
    """

    def __init__(self, cwd: Path, log: Path):
        self.argv = [sys.executable, "-c", REFERENCE_CODE]
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.cwd, self.log = cwd, log
        self.samples: list[float] = []

    def time(self) -> float:
        code, elapsed, _ = run_process(self.argv, self.env, self.cwd, self.log, COMMAND_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"the reference process failed; see {self.log}")
        self.samples.append(elapsed)
        return elapsed

    def paired(self, jobs) -> list[dict]:
        """Run each job (a callable returning a dict with ``seconds``) in turn.

        A job's record also holds ``cpu``, its processor seconds. Adds ``ref``,
        the paired reference time, and ``scaled``, the seconds at reference
        speed, to each record.
        """
        before = self.samples[-1] if self.samples else self.time()
        records, pending = [], []
        for i, job in enumerate(jobs):
            pending.append(job())
            if len(pending) == REFERENCE_EVERY or i == len(jobs) - 1:
                after = self.time()
                for record in pending:
                    record["ref"] = (before + after) / 2
                    busy = min(record["cpu"], record["seconds"])
                    record["scaled"] = record["seconds"] + busy * (REFERENCE_S / record["ref"] - 1.0)
                records += pending
                pending, before = [], after
        return records


def cpu_seconds(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def check_pass(h: Harness, out: Path, commands: list[dict], shim_stats: dict | None) -> list[str]:
    """Problems found in one pass; each failed command is listed once."""
    h.ctx.shim_answers = shim_stats["answers"] if shim_stats else None
    failed = []
    for cmd in commands:
        if cmd["code"] != 0:
            problems = [f"{cmd['name']}: exit code {cmd['code']}"]
        else:
            problems = checks.check_command(h.ctx, cmd["name"], cmd["argv"], out)
            if shim_stats and cmd["name"] == "annotate":
                got = (shim_stats["calls"], shim_stats["unparseable"])
                if got != (EXPECTED_SHIM_CALLS, 3 * 63):
                    problems.append(f"annotate: client saw {got[0]} calls, {got[1]} unparseable")
        if problems:
            failed.append("; ".join(problems))
    return failed


def end_to_end(h: Harness, seconds: float, write_golden: bool) -> dict:
    py = sys.executable
    logs = h.work / "logs"
    logs.mkdir(parents=True)
    reference = Reference(h.work, logs / "reference.log")
    setup_cmd = [py, "-c", "import lmexposure.cli"]
    # One untimed run of each first, so byte-code compilation is not counted.
    run_process(setup_cmd, h.env, h.work, logs / "setup.log", COMMAND_TIMEOUT_S)
    run_process(reference.argv, reference.env, h.work, logs / "reference.log", COMMAND_TIMEOUT_S)

    def import_once() -> dict:
        code, elapsed, usage = run_process(setup_cmd, h.env, h.work, logs / "setup.log", COMMAND_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"importing lmexposure.cli failed; see {logs / 'setup.log'}")
        return {"seconds": elapsed, "cpu": cpu_seconds(usage)}

    setup = reference.paired([import_once] * SETUP_IMPORTS)

    passes, failures = [], []
    begin = time.perf_counter()
    while not passes or (stats.fits_another(begin, len(passes), seconds) and not write_golden):
        out = h.work / f"pass{len(passes)}"
        out.mkdir()
        env = dict(h.env)
        shim_file = out.parent / f"shim{len(passes)}.json"
        if h.workload.env:
            env["PERFBENCH_SHIM_STATS"] = str(shim_file)

        def command(name: str, argv: list[str]):
            def job() -> dict:
                code, elapsed, usage = run_process(
                    [py, "-m", "lmexposure.cli", *argv], env, out, logs / f"{name}.log",
                    COMMAND_TIMEOUT_S,
                )
                return {"name": name, "argv": argv, "code": code, "seconds": elapsed,
                        "cpu": cpu_seconds(usage), "rss": usage.ru_maxrss}
            return job

        commands = reference.paired(
            [command(name, argv) for name, argv in h.workload.commands(h.fix, out)]
        )
        shim_stats = json.loads(shim_file.read_text()) if shim_file.is_file() else None
        failures += check_pass(h, out, commands, shim_stats)
        passes.append(commands)
        if write_golden:
            record_golden(h, out)
        shutil.rmtree(out)

    def summary(key: str) -> dict:
        cmd_seconds = [c[key] for p in passes for c in p]
        walls = [math.fsum(c[key] for c in p) for p in passes]
        if h.workload.primary is None:
            primary = walls
        else:
            primary = [c[key] for p in passes for c in p if c["name"] == h.workload.primary]
        return {
            "setup_s": statistics.median(s[key] for s in setup),
            "wall_s": statistics.median(walls),
            "cmd_p50_s": statistics.median(cmd_seconds),
            "cmd_tail_s": stats.tail(cmd_seconds)[0],
            "samples_per_s": h.workload.samples / statistics.median(primary),
        }

    metrics = summary("scaled")
    metrics["peak_rss_mb"] = statistics.median(max(c["rss"] for c in p) for p in passes) / 1024
    raw = summary("seconds")
    n_cmds = sum(len(p) for p in passes)
    _, pct, beyond = stats.tail([c["scaled"] for p in passes for c in p])
    wall_q1, _, wall_q3 = stats.quartiles([math.fsum(c["scaled"] for c in p) for p in passes])
    notes = {
        "setup_s": f"median of {len(setup)} fresh `import lmexposure.cli`",
        "wall_s": f"q1 {wall_q1:.4f}, q3 {wall_q3:.4f}, {len(passes)} passes",
        "cmd_p50_s": f"{n_cmds} commands",
        "cmd_tail_s": f"p{pct:.1f} of {n_cmds} commands, {beyond} beyond",
        "samples_per_s": f"{h.workload.samples} samples per `{h.workload.primary or 'pass'}`",
        "peak_rss_mb": "largest command max-RSS, median over passes",
    }
    for name, value in raw.items():
        notes[name] += f"; {value:.6g} unscaled"
    q1, ref, q3 = stats.quartiles(reference.samples)
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "notes": notes,
        "header": f"reference process: median {ref:.4f} s, q1 {q1:.4f}, q3 {q3:.4f}, "
                  f"{len(reference.samples)} runs; times below are at {REFERENCE_S} s per reference run",
        "attempted": n_cmds,
        "failures": failures,
    }


def parse_importtime(text: str, prefixes: tuple[str, ...] = (), outside: tuple[str, ...] = ()) -> float:
    """Seconds from ``python -X importtime`` output.

    With no prefixes: the cumulative time of every top-level import. With
    prefixes: the cumulative time of each outermost import of a module equal
    to, or inside, one of the named packages, leaving out imports made from
    inside the packages named by ``outside``.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), cumulative))

    def inside(module: str, packages: tuple[str, ...]) -> bool:
        return any(module == p or module.startswith(p + ".") for p in packages)

    total = 0
    # Children are printed before their parent; walk backwards to see parents first.
    ancestors: list[tuple[int, str]] = []
    for depth, module, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if not prefixes:
            hit = depth == 0
        else:
            hit = inside(module, prefixes) and not any(
                inside(a, prefixes + outside) for _, a in ancestors
            )
        if hit:
            total += cumulative
        ancestors.append((depth, module))
    return total / 1e6


def traced(h: Harness, seconds: float) -> dict:
    py = sys.executable
    logs = h.work / "logs"
    logs.mkdir(parents=True)
    # One untimed import first, so byte-code compilation is not counted.
    run_process([py, "-c", "import lmexposure.cli"], h.env, h.work, logs / "setup.log", COMMAND_TIMEOUT_S)
    imports = {"import.process_s": [], "import.total_s": [], "import.numpy_s": [], "import.scipy_s": []}
    for _ in range(IMPORTTIME_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [py, "-X", "importtime", "-c", "import lmexposure.cli"],
            env=h.env, cwd=h.work, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        imports["import.process_s"].append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"importing lmexposure.cli failed:\n{proc.stderr[-2000:]}")
        imports["import.total_s"].append(parse_importtime(proc.stderr))
        imports["import.numpy_s"].append(parse_importtime(proc.stderr, ("numpy",), outside=("scipy",)))
        imports["import.scipy_s"].append(parse_importtime(proc.stderr, ("scipy",)))

    result_file = h.work / "trace_result.json"
    code, _, _ = run_process(
        [py, str(BENCH_DIR / "tracer.py"), "--workload", h.workload.name, "--seed", str(h.seed),
         "--seconds", str(seconds), "--work", str(h.work), "--fix", str(h.fix),
         "--result", str(result_file), "--spans", str(h.work.parent / f"spans-{h.workload.name}.json")],
        h.env, h.work, logs / "tracer.log", TRACE_TIMEOUT_S,
    )
    if code != 0:
        raise SystemExit(f"traced run failed:\n{(logs / 'tracer.log').read_text()[-3000:]}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    failures, attempted = [], 0
    for p in result["passes"]:
        attempted += len(p["commands"])
        failures += check_pass(h, Path(p["dir"]), p["commands"], None)
        shutil.rmtree(p["dir"])
    metrics = {name: statistics.median(values) for name, values in imports.items()}
    metrics.update(result["metrics"])
    return {
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()},
        "notes": {},
        "attempted": attempted,
        "failures": failures,
    }


LAYER_UNITS = {
    "annotate.useful_ratio": "ratio",
    "annotate.peak_in_flight": "requests",
    "annotate.mean_in_flight": "requests",
    "runio.bytes_written": "bytes",
    "runio.bytes_hashed": "bytes",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(name, "count")


def record_golden(h: Harness, out: Path) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    if golden.get("seed", h.seed) != h.seed:
        raise SystemExit(f"golden.json holds seed {golden['seed']}; record with that seed")
    golden["seed"] = h.seed
    golden.setdefault("digests", {})[h.workload.name] = checks.golden_digests(
        h.workload.commands(h.fix, out), out
    )
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lmexposure" / "cli.py").is_file():
        print(f"error: {root} holds no src/lmexposure/cli.py; run from the repository root",
              file=sys.stderr)
        return 2
    h = Harness(root, args.workload, args.seed)
    if args.write_golden:
        h.ctx.golden = None
    if args.trace:
        report = traced(h, args.seconds)
    else:
        report = end_to_end(h, args.seconds, args.write_golden)

    failed = len(report["failures"])
    for problem in report["failures"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{report['attempted']} commands, {failed} failed, "
          f"fail_ratio {failed / report['attempted']:.4f}")
    if report.get("header"):
        print(f"  {report['header']}")
    for name, metric in report["metrics"].items():
        note = report["notes"].get(name)
        print(f"  {name:36s} {metric['value']:14.6f} {metric['unit']}" + (f"  ({note})" if note else ""))
    if failed:
        print(f"work directory kept for inspection: {h.work}", file=sys.stderr)
    else:
        shutil.rmtree(h.work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
