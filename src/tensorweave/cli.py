"""Command-line surface: deltas, merge, weave, analyze, inspect.

Every command is a thin shim over the library; outputs are bitwise equal
to direct library calls. Logs go to stderr, data to files or stdout.
Exit codes: 0 success, 1 runtime or I/O error, 2 usage or validation
error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from pathlib import Path

from .analysis import AccuracyTable, best_lambda_histogram, sweep_emit
from .methods import _REGISTRY, MergeSpec, available_methods, registry_lookup
from .store import (
    CheckpointError,
    FingerprintMismatch,
    TensorMap,
    _Reader,
    _write_text,
    read_checkpoint,
    write_checkpoint,
)
from .vectors import TaskVector, add, compute_deltas, cosine_matrix
from .weave import PoolSpec, SearchSpace, default_search_space, weave

log = logging.getLogger("tensorweave")
# Each built-in method parameter -> the help of its flag, in registry order.
_METHOD_PARAMS = {p: f"{name}: {meaning}" for name, m in _REGISTRY.items() for p, meaning in m.params.items()}


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretrained", required=True, help="pre-trained checkpoint path")
    parser.add_argument("finetuned", nargs="+", help="fine-tuned checkpoint paths")


def _add_merge_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", default=None, help=f"one of: {', '.join(available_methods())}")
    parser.add_argument("--lambda", dest="lam", type=float, default=None, help="scaling factor")
    for param, help_text in _METHOD_PARAMS.items():
        parser.add_argument(f"--{param.replace('_', '-')}", type=float, default=None, help=help_text)
    parser.add_argument("--seed", type=int, default=None, help="seed for stochastic methods")
    parser.add_argument("--config", default=None, help="JSON config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorweave",
        description="Merge model checkpoints by pooling weights across a scaling-factor sweep.",
    )
    parser.add_argument("--log-level", default="warning", help="debug|info|warning|error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deltas", help="write one delta checkpoint per fine-tuned input")
    _add_io_flags(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("merge", help="merge once at a fixed scaling factor")
    _add_io_flags(p)
    _add_merge_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("weave", help="sweep scaling factors and pool the merged weights")
    _add_io_flags(p)
    _add_merge_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--pooling", default=None, help="avg|random|magmax (default avg)")
    p.add_argument("--lambda-range", default=None, help="'start:stop:step' or JSON list; default per method")
    p.add_argument(
        "--include-deltas",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="pool the raw task vectors together with the swept merges (default on)",
    )
    p.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")

    analyze = sub.add_parser("analyze", help="similarity, best-factor, and sweep analyses")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("cosine", help="pairwise cosine similarity of task vectors")
    p.add_argument("inputs", nargs="+", help="delta checkpoints (or fine-tuned ones with --pretrained)")
    p.add_argument("--pretrained", default=None, help="compute deltas against this checkpoint first")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = asub.add_parser("best-lambda", help="histogram of per-task best scaling factors")
    p.add_argument("--csv", required=True, help="CSV with header task,lambda,accuracy")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = asub.add_parser("sweep", help="emit one merged checkpoint per scaling factor")
    _add_io_flags(p)
    _add_merge_flags(p)
    p.add_argument("--lambda-range", default=None, help="'start:stop:step' or JSON list; default per method")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("inspect", help="list tensors and metadata of a checkpoint")
    p.add_argument("path")

    return parser


def _lambda_range(value) -> SearchSpace:
    return SearchSpace(tuple(value)) if isinstance(value, list) else SearchSpace.parse(str(value))


def _exact(kind: type):
    """Conversion to ``kind`` that refuses another JSON kind; numeric strings still convert."""
    def convert(value):
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if fraction or isinstance(value, bool) != (kind is bool):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    return convert


# Every option a config file may set: flag dest -> (config key, conversion,
# default). The conversion applies to the flag or config value, not the default.
_OPTIONS = {
    "method": ("method", str, None),
    "lam": ("lambda", _exact(float), 1.0),
    **{param: (param, _exact(float), None) for param in _METHOD_PARAMS},
    "seed": ("seed", _exact(int), 0),
    "lambda_range": ("lambda_range", _lambda_range, None),
    "pooling": ("pooling", str, "avg"),
    "include_deltas": ("include_deltas", _exact(bool), True),
    "threads": ("threads", _exact(int), 1),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return config


def _resolve_options(args: argparse.Namespace, config: dict) -> None:
    """Set each option of the command on ``args``: flag, else config, else default.

    A value that does not convert is a ValueError naming its flag or config key.
    """
    for dest, (key, convert, default) in _OPTIONS.items():
        if not hasattr(args, dest):
            continue
        if getattr(args, dest) is not None:
            value, source = getattr(args, dest), f"--{key.replace('_', '-')}"
        elif key in config:
            value, source = config[key], f"config key {key!r}"
        else:
            setattr(args, dest, default)
            continue
        try:
            setattr(args, dest, convert(value))
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge JSON integer overflows
            raise ValueError(f"{source}: {exc}") from None


def _merge_spec(args: argparse.Namespace) -> MergeSpec:
    if args.method is None:
        raise ValueError("--method is required (flag or config)")
    params = {key: getattr(args, key) for key in _METHOD_PARAMS if getattr(args, key) is not None}
    return MergeSpec(method=args.method, lam=args.lam, params=params, seed=args.seed)


def _read_inputs(
    args: argparse.Namespace, stack: contextlib.ExitStack | None = None
) -> tuple[TensorMap, list[TensorMap], list[str]]:
    """The pre-trained and fine-tuned checkpoints, and the task labels (file stems).

    Each checkpoint is loaded whole; with ``stack``, it is instead an open
    reader, closed with the stack, that reads each tensor when asked.
    """
    def load(path: str) -> TensorMap:
        return read_checkpoint(path) if stack is None else stack.enter_context(_Reader(path))

    log.info("reading pre-trained checkpoint %s", args.pretrained)
    pretrained = load(args.pretrained)
    finetuned, labels = [], []
    for path in args.finetuned:
        log.info("reading fine-tuned checkpoint %s", path)
        finetuned.append(load(path))
        labels.append(Path(path).stem)
    return pretrained, finetuned, labels


def _cmd_deltas(args: argparse.Namespace) -> int:
    pretrained, finetuned, labels = _read_inputs(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    used: set[str] = set()
    for vector in compute_deltas(pretrained, finetuned, labels=labels):
        stem = vector.source_name
        while stem in used:
            stem = f"{stem}_{vector.index}"
        used.add(stem)
        target = out_dir / f"{stem}.delta.safetensors"
        write_checkpoint(vector.delta, target)
        log.info("wrote %s", target)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    pretrained, finetuned, labels = _read_inputs(args)
    deltas = compute_deltas(pretrained, finetuned, labels=labels)
    merged = registry_lookup(spec.method)(deltas, spec)
    write_checkpoint(add(pretrained, merged), args.out)
    log.info("wrote %s", args.out)
    return 0


def _cmd_weave(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    pool_spec = PoolSpec(pooling=args.pooling, seed=spec.seed, include_deltas=args.include_deltas)
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")

    with contextlib.ExitStack() as stack:
        pretrained, finetuned, labels = _read_inputs(args, stack)
        final, report = weave(
            pretrained, finetuned, spec, space=args.lambda_range, pool_spec=pool_spec, labels=labels,
            threads=args.threads,
        )
    out = Path(args.out)
    write_checkpoint(final, out)
    report_path = out.with_suffix(".report.json")
    _write_text(report_path, report.to_json() + "\n")
    log.info("wrote %s and %s", out, report_path)
    return 0


def _cmd_analyze_cosine(args: argparse.Namespace) -> int:
    if args.pretrained is not None:
        pretrained = read_checkpoint(args.pretrained)
        finetuned = [read_checkpoint(p) for p in args.inputs]
        vectors = compute_deltas(pretrained, finetuned, labels=[Path(p).stem for p in args.inputs])
    else:
        vectors = [
            TaskVector(read_checkpoint(path), source_name=Path(path).stem, index=pos + 1)
            for pos, path in enumerate(args.inputs)
        ]
    _emit_json(cosine_matrix(vectors).to_json(), args.out)
    return 0


def _cmd_analyze_best_lambda(args: argparse.Namespace) -> int:
    table = AccuracyTable.from_csv(args.csv)
    _emit_json(best_lambda_histogram(table).to_json(), args.out)
    return 0


def _cmd_analyze_sweep(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    space = args.lambda_range or default_search_space(spec.method)
    with contextlib.ExitStack() as stack:
        pretrained, finetuned, labels = _read_inputs(args, stack)
        paths = sweep_emit(pretrained, finetuned, spec, space, args.out_dir, labels=labels)
    for path in paths:
        print(path)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    checkpoint = read_checkpoint(args.path)
    for name, tensor in checkpoint.items():
        shape = "x".join(str(s) for s in tensor.shape) or "scalar"
        print(f"{name}\t{tensor.stored_dtype}\t{shape}\t{tensor.size}")
    for key, value in sorted(checkpoint.metadata.items()):
        print(f"# {key} = {value}")
    print(f"{len(checkpoint)} tensors, {checkpoint.total_elements()} elements")
    return 0


def _emit_json(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        _write_text(out, text + "\n")
        log.info("wrote %s", out)


_COMMANDS = {
    ("deltas", None): _cmd_deltas,
    ("merge", None): _cmd_merge,
    ("weave", None): _cmd_weave,
    ("analyze", "cosine"): _cmd_analyze_cosine,
    ("analyze", "best-lambda"): _cmd_analyze_best_lambda,
    ("analyze", "sweep"): _cmd_analyze_sweep,
    ("inspect", None): _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    command = _COMMANDS[(args.command, getattr(args, "analysis", None))]
    try:
        _resolve_options(args, _load_config(getattr(args, "config", None)))
        return command(args)
    except (ValueError, CheckpointError, FingerprintMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
