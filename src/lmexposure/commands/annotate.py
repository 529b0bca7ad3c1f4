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
    module = importlib.import_module(module_name)
    factory = getattr(module, factory_name)
    return factory(model_id)


def cmd_annotate(args: argparse.Namespace) -> int:
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
    taxonomy = tax.load_taxonomy(config.add_input("taxonomy", args.taxonomy))
    rubric = ann.DEFAULT_RUBRIC
    if args.rubric:
        with open_text(config.add_input("rubric", args.rubric)) as handle:
            rubric = handle.read()
    if args.mock:
        config.add_input("mock", args.mock)

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

    runs: list[ann.AnnotationRun] = []
    for model_id in model_ids:
        if args.mock:
            client = ann.load_mock_client(args.mock, taxonomy)
        else:
            client = _load_live_client(live_spec, model_id)
        runs.extend(
            ann.annotate_nodes(
                client,
                nodes,
                model_id=model_id,
                rubric=rubric,
                n_samples=args.n_samples,
                max_retries=args.max_retries,
                in_flight=args.in_flight,
            )
        )

    out.parent.mkdir(parents=True, exist_ok=True)
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
