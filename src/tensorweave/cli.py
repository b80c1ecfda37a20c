"""Command-line surface: deltas, merge, weave, analyze, inspect.

Every command is a thin shim over the library; outputs are bitwise equal
to direct library calls. A command that writes a model reads each input
tensor when it needs it and writes each output tensor once made, holding a
few tensors, not a model; ``merge`` is a one-factor sweep, writing the file
``analyze sweep`` writes for its lambda. Every command checks its inputs first (headers, or
``best-lambda``'s whole CSV), then claims its outputs, then reads tensors, so a faulty input
makes nothing. Logs go to stderr, data to files or stdout.
Exit codes: 0 success, 1 runtime or I/O error, 2 usage or validation
error.

Each tensor's working set is freed before the next one is made. The
console script, ``entrypoint``, first has glibc's malloc keep freed memory
in the process, so the next tensor reuses it rather than faulting fresh
pages in, and freezes the objects that start-up and the imports made, so
that the garbage collections at exit pass over them; ``main`` and the
library leave the allocator and the collector as they find them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import os
import sys
from pathlib import Path

from .analysis import AccuracyTable, best_lambda_histogram
from .methods import _REGISTRY, MergeSpec, available_methods
from .store import CheckpointError, FingerprintMismatch, _Entry, _Reader, _Replacement, _stream, _Writer
from .vectors import _check_deltas, _cosine, _each_task_vector, _task_labels
from .weave import _POOLINGS, PoolSpec, SearchSpace, _weave, _write_sweep, default_search_space, sweep_emit

log = logging.getLogger("tensorweave")
# Each built-in method parameter -> the help of its flag, in registry order.
_METHOD_PARAMS = {p: f"{name}: {meaning}" for name, m in _REGISTRY.items() for p, meaning in m.params.items()}


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretrained", required=True, help="pre-trained checkpoint path")
    parser.add_argument("finetuned", nargs="+", help="fine-tuned checkpoint paths")


def _add_options(parser: argparse.ArgumentParser, *dests: str) -> None:
    for dest in dests:
        parser.add_argument(_flag(_OPTIONS[dest][0]), dest=dest, default=None, **_OPTIONS[dest][3])


def _add_merge_flags(parser: argparse.ArgumentParser) -> None:
    _add_io_flags(parser)
    _add_options(parser, "method", "lam", *_METHOD_PARAMS, "seed")
    parser.add_argument("--config", default=None, help="JSON config file; flags take precedence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorweave",
        description="Merge model checkpoints by pooling weights across a scaling-factor sweep.",
    )
    parser.add_argument("--log-level", default="warning", help="debug|info|warning|error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deltas", help="write one delta checkpoint per fine-tuned input")
    p.set_defaults(run=_cmd_deltas)
    _add_io_flags(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("merge", help="merge once at a fixed scaling factor")
    p.set_defaults(run=_cmd_merge)
    _add_merge_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("weave", help="sweep scaling factors and pool the merged weights")
    p.set_defaults(run=_cmd_weave)
    _add_merge_flags(p)
    p.add_argument("--out", required=True)
    _add_options(p, "pooling", "lambda_range", "include_deltas", "threads")

    analyze = sub.add_parser("analyze", help="similarity, best-factor, and sweep analyses")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("cosine", help="pairwise cosine similarity of task vectors")
    p.set_defaults(run=_cmd_analyze_cosine)
    p.add_argument("inputs", nargs="+", help="delta checkpoints (or fine-tuned ones with --pretrained)")
    p.add_argument("--pretrained", default=None, help="compute deltas against this checkpoint first")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = asub.add_parser("best-lambda", help="histogram of per-task best scaling factors")
    p.set_defaults(run=_cmd_analyze_best_lambda)
    p.add_argument("--csv", required=True, help="CSV with header task,lambda,accuracy")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = asub.add_parser("sweep", help="emit one merged checkpoint per scaling factor")
    p.set_defaults(run=_cmd_analyze_sweep)
    _add_merge_flags(p)
    _add_options(p, "lambda_range")
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("inspect", help="list tensors and metadata of a checkpoint")
    p.set_defaults(run=_cmd_inspect)
    p.add_argument("path")

    return parser


def _lambda_range(value) -> SearchSpace:
    return SearchSpace(tuple(value)) if isinstance(value, list) else SearchSpace.parse(str(value))


def _exact(kind: type):
    """Conversion to ``kind`` that refuses another JSON kind; numeric strings still convert to numbers."""
    def convert(value):
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if fraction or isinstance(value, bool) != (kind is bool) or (kind is str and not isinstance(value, str)):
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)
    return convert


def _at_least_one(value) -> int:
    """Conversion to an int, as ``_exact(int)`` converts, that refuses one below 1."""
    count = _exact(int)(value)
    if count < 1:
        raise ValueError(f"must be at least 1, got {count}")
    return count


def _flag(key: str) -> str:
    return f"--{key.replace('_', '-')}"


# Every option a config file may set, in resolution order: flag dest -> (config key, conversion, default, argparse
# settings of the flag ``_flag(key)``, unset as None). The conversion applies to a flag or config value, not a default.
_OPTIONS = {
    "method": ("method", _exact(str), None, dict(help=f"one of: {', '.join(available_methods())}")),
    "lam": ("lambda", _exact(float), 1.0, dict(type=float, help="scaling factor")),
    **{param: (param, _exact(float), None, dict(type=float, help=text)) for param, text in _METHOD_PARAMS.items()},
    "seed": ("seed", _exact(int), 0, dict(type=int, help="seed for stochastic methods")),
    "lambda_range": ("lambda_range", _lambda_range, None,
                     dict(help="'start:stop:step' or JSON list; default per method")),
    "pooling": ("pooling", _exact(str), "avg", dict(help=f"{'|'.join(_POOLINGS)} (default avg)")),
    "include_deltas": ("include_deltas", _exact(bool), True, dict(action=argparse.BooleanOptionalAction,
                       help="pool the raw task vectors together with the swept merges (default on)")),
    "threads": ("threads", _at_least_one, 1, dict(type=int, help="worker threads (default 1)")),
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON; RecursionError: too deep
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return config


def _resolve_options(args: argparse.Namespace, config: dict) -> None:
    """Set each option of the command on ``args``: flag, else config, else default.

    A value that does not convert is a ValueError naming its flag or config key.
    """
    for dest, (key, convert, default, _) in _OPTIONS.items():
        if not hasattr(args, dest):
            continue
        if getattr(args, dest) is not None:
            value, source = getattr(args, dest), _flag(key)
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
    pretrained_path: str, finetuned_paths: list[str], stack: contextlib.ExitStack
) -> tuple[_Reader, list[_Reader], list[str]]:
    """The pre-trained and fine-tuned checkpoints, and the task labels (file stems): the one check of the inputs.

    Each checkpoint is an open reader, closed with ``stack``, whose header is checked now, and each fine-tuned
    one against the pre-trained one (``_task_labels``), before any output is claimed; tensors are read when asked.
    """
    log.info("reading pre-trained checkpoint %s", pretrained_path)
    pretrained = stack.enter_context(_Reader(pretrained_path))
    finetuned, labels = [], []
    for path in finetuned_paths:
        log.info("reading fine-tuned checkpoint %s", path)
        finetuned.append(stack.enter_context(_Reader(path)))
        labels.append(Path(path).stem)
    return pretrained, finetuned, _task_labels(pretrained, finetuned, labels)


def _cmd_deltas(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as stack:
        pretrained, finetuned, labels = _read_inputs(args.pretrained, args.finetuned, stack)
        stems: list[str] = []
        for index, stem in enumerate(labels, start=1):
            while stem in stems:
                stem = f"{stem}_{index}"
            stems.append(stem)
        targets = [Path(args.out_dir) / f"{stem}.delta.safetensors" for stem in stems]
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        # task vectors are float32 whatever the pre-trained model stores, and carry no metadata
        entries = [(name, _Entry("F32", entry.shape, 0)) for name, entry in pretrained.items()]
        writers = [stack.enter_context(_Writer(target, entries, {})) for target in targets]
        _stream(pretrained.names, lambda name: _each_task_vector(name, pretrained, finetuned, labels),
                [writer.write for writer in writers])
    log.info("wrote %s", ", ".join(map(str, targets)))
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    with contextlib.ExitStack() as stack:
        pretrained, finetuned, labels = _read_inputs(args.pretrained, args.finetuned, stack)
        _write_sweep(pretrained, finetuned, spec, SearchSpace((spec.lam,)), [args.out], labels)
    log.info("wrote %s", args.out)
    return 0


def _cmd_weave(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    pool_spec = PoolSpec(pooling=args.pooling, seed=spec.seed, include_deltas=args.include_deltas)

    with contextlib.ExitStack() as stack:  # the report is committed before the checkpoint, and with it
        pretrained, finetuned, labels = _read_inputs(args.pretrained, args.finetuned, stack)
        writer = stack.enter_context(_Writer(args.out, pretrained.items(), pretrained.metadata))
        emit = stack.enter_context(_json_output(Path(args.out).with_suffix(".report.json")))
        emit(_weave(pretrained, finetuned, spec, args.lambda_range, pool_spec, labels, args.threads,
                    writer.write).to_json())
    log.info("wrote %s", args.out)
    return 0


def _cmd_analyze_cosine(args: argparse.Namespace) -> int:
    with contextlib.ExitStack() as stack:  # the flats are filled tensor by tensor from the open readers
        if args.pretrained is not None:
            model, finetuned, labels = _read_inputs(args.pretrained, args.inputs, stack)
            produce = lambda name: (t.values for t in _each_task_vector(name, model, finetuned, labels))
        else:
            deltas = [stack.enter_context(_Reader(path)) for path in args.inputs]
            _check_deltas(deltas, "cosine_matrix")
            model, labels = deltas[0], [Path(path).stem for path in args.inputs]
            produce = lambda name: (delta.array(name) for delta in deltas)
        emit = stack.enter_context(_json_output(args.out))
        emit(_cosine(labels, model, produce).to_json())
    return 0


def _cmd_analyze_best_lambda(args: argparse.Namespace) -> int:
    histogram = best_lambda_histogram(AccuracyTable.from_csv(args.csv))
    with _json_output(args.out) as emit:
        emit(histogram.to_json())
    return 0


def _cmd_analyze_sweep(args: argparse.Namespace) -> int:
    spec = _merge_spec(args)
    space = args.lambda_range or default_search_space(spec.method)
    with contextlib.ExitStack() as stack:
        pretrained, finetuned, labels = _read_inputs(args.pretrained, args.finetuned, stack)
        paths = sweep_emit(pretrained, finetuned, spec, space, args.out_dir, labels=labels)
    for path in paths:
        print(path)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with _Reader(args.path) as reader:
        for name in reader.names:  # every tensor is read and checked, one at a time, before anything is printed
            reader.tensor(name)
        for name, entry in reader.items():
            shape = "x".join(str(s) for s in entry.shape) or "scalar"
            print(f"{name}\t{entry.stored_dtype}\t{shape}\t{entry.size}")
        for key, value in sorted(reader.metadata.items()):
            print(f"# {key} = {value}")
        print(f"{len(reader.names)} tensors, {sum(entry.size for _, entry in reader.items())} elements")
    return 0


@contextlib.contextmanager
def _json_output(out: str | Path | None):
    """A context giving what writes a command's JSON text and a newline: to stdout, or to ``out``, claimed on entry."""
    if out is None:
        yield print
    else:
        with _Replacement(out, b"") as output:
            yield lambda text: output.append((text + "\n").encode("utf-8"))
        log.info("wrote %s", out)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    level = getattr(logging, args.log_level.upper(), None)  # a level is an int: logging.BASIC_FORMAT is not one
    logging.basicConfig(
        stream=sys.stderr,
        level=level if type(level) is int else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _resolve_options(args, _load_config(getattr(args, "config", None)))
        return args.run(args)
    except (ValueError, CheckpointError, FingerprintMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed memory in the process, so each tensor's working set reuses the last one's.

    By default glibc returns a large free block to the system (its mmap and
    trim thresholds) and faults it in again for the next tensor. Raising the
    mmap threshold to 32 MiB and the trim threshold to 64 MiB keeps those
    blocks on the heap. Elsewhere than glibc this does nothing;
    if glibc refuses the mmap threshold, both keep their defaults, which is
    only slower; the trim threshold alone measured slower than the defaults.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name, as off glibc
        return
    if not (libc or "").startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD; 0 means refused
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def entrypoint() -> None:
    """The console script: ``main`` in a process whose allocator keeps freed memory for the next tensor, and whose
    collector has frozen the objects the imports made (``gc.freeze``), so that the collections at exit skip them.
    """
    _keep_freed_memory()
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
