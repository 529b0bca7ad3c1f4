"""``annotate``: E0-E3 rubric labels from a mock or live classifier client."""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from .. import MODEL_COLUMNS
from .. import annotate as ann
from .. import taxonomy as tax
from ..errors import EXIT_OK, ComputationError, ConfigError, InputFormatError, open_text
from ..runio import CLIENT_ENV_VAR
from . import RunConfig


def _load_live_client(spec: str, model_id: str) -> ann.ClassifierClient:
    """Import ``module:factory`` named by the environment and call it."""
    module_name, _, factory_name = spec.partition(":")
    if not module_name or not factory_name:
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} must look like 'package.module:factory', got {spec!r}"
        )
    if module_name.startswith("."):  # import_module has no package to resolve it against
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} names module {module_name!r}, which is relative, got {spec!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        # A module that the shim itself imports is missing: not the spec's fault.
        if exc.name is None or not f"{module_name}.".startswith(f"{exc.name}."):
            raise
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} names module {module_name!r}, which is not found, got {spec!r}"
        ) from None
    factory = getattr(module, factory_name, None)
    if factory is None:
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} names factory {factory_name!r}, which module {module_name!r}"
            f" lacks, got {spec!r}"
        )
    client = factory(model_id)
    if not callable(getattr(client, "complete", None)):
        raise InputFormatError(
            f"{CLIENT_ENV_VAR} names factory {factory_name!r}, which returned a"
            f" {type(client).__name__!r} with no callable 'complete', got {spec!r}"
        )
    return client


def cmd_annotate(args: argparse.Namespace) -> int:
    """Label every annotatable occupation with each model, then write the store.

    Every model's client is built before the first request. When every
    client is ``"concurrent"``, the models run side by side, each with its
    own ``--in-flight`` budget, as each model is a separate service; else
    they run one after another on this thread. The first sample of any model
    that exhausts ``--max-retries`` stops every model from starting a new
    request. Records follow ``--models`` order either way.
    """
    out = Path(args.out)
    live_spec = os.environ.get(CLIENT_ENV_VAR)
    model_ids = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = [m for m in model_ids if m not in MODEL_COLUMNS]
    # Checked before any client is built, so a bad option costs no annotation.
    for failed, message in (
        (out.exists(), f"annotation store {out} already exists; pass a new --out"),
        (not (args.mock or live_spec), f"no classifier client: pass --mock or set {CLIENT_ENV_VAR}"),
        (args.n_samples < 1, f"--n-samples must be at least 1, got {args.n_samples}"),
        (args.max_retries < 0, f"--max-retries must be at least 0, got {args.max_retries}"),
        (args.in_flight < 1, f"--in-flight must be at least 1, got {args.in_flight}"),
        (not model_ids, f"--models names no model: {args.models!r}"),
        (unknown, f"--models {unknown} have no score column; use {list(MODEL_COLUMNS)}"),
        (len(set(model_ids)) < len(model_ids), f"--models repeats a model: {args.models!r}"),
    ):
        if failed:
            raise ConfigError(message)
    config = RunConfig(args)
    taxonomy = config.read("taxonomy")
    rubric = ann.DEFAULT_RUBRIC
    if args.rubric:
        with open_text(config.add_input("rubric", args.rubric)) as handle:
            rubric = handle.read()
    mock = config.read("mock", taxonomy) if args.mock else None

    if args.level == "leaf":
        nodes = taxonomy.leaves()
    else:
        nodes = taxonomy.nodes_at_level(tax.Level[args.level.upper()])
    skipped = [n.code.raw for n in nodes if not n.description.strip()]
    if skipped:
        print(
            f"skipping {len(skipped)} occupations with empty descriptions",
            file=sys.stderr,
        )
    nodes = [n for n in nodes if n.description.strip()]
    if not nodes:
        raise ComputationError("no annotatable occupations at the requested level")

    if args.mock:
        clients = [mock] * len(model_ids)  # stateless
    else:
        clients = [_load_live_client(live_spec, model_id) for model_id in model_ids]
    side_by_side = all(ann._concurrent(client) for client in clients)
    per_model = ann._run_queue(
        lambda i: ann.annotate_nodes(
            clients[i],
            nodes,
            model_id=model_ids[i],
            rubric=rubric,
            n_samples=args.n_samples,
            max_retries=args.max_retries,
            in_flight=args.in_flight,
        ),
        len(model_ids),
        len(model_ids) if side_by_side else 1,
    )
    runs = [run for model_runs in per_model for run in model_runs]

    clock = ann.LogicalClock() if args.mock else ann.utc_now_iso
    store = ann.AnnotationStore(path=out, clock=clock)
    store.append(runs)
    config.outputs["annotations"] = out
    config.parameters.update(
        models=model_ids,
        n_samples=args.n_samples,
        max_retries=args.max_retries,
        level=args.level,
        client="mock" if args.mock else live_spec,
    )
    config.write_manifest()
    return EXIT_OK
