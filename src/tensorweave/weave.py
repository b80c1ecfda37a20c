"""Sweep-and-pool merge driver.

Instead of searching for one good scaling factor, the driver runs the
merge function at every factor in a search space, pools the resulting
weights per parameter (optionally together with the raw task vectors),
and adds the pooled delta back onto the pre-trained weights. For external
evaluation, ``sweep_emit`` adds back each factor's merge instead, one
checkpoint per factor, from the same per-tensor sweep.

``weave`` works on one tensor at a time, from its inputs: the tensor's
task vectors, the merge kernel's base, the members the pooling needs and
the pooled delta are made, used and released before the next tensor.
Each woven tensor goes to a sink in name order: ``weave`` returns them
as a float32 model, and the CLI writes each one to its file, holding no
whole output. The pre-trained values are read through ``.array(name)``.
The tensor's task vectors come from ``vectors._task_vectors``, the one
producer of task vectors: it reads each fine-tuned tensor through
``.read(name, out=row)`` into its row of one float32 block, makes them
in place, and checks the block as one ``Tensor``. Loaded maps are held
whole by the caller, but the CLI passes open readers, which read each
input tensor when it is woven. Beyond that, each worker thread holds a
small multiple of tasks x the tensor in flight: its pre-trained values
and task vectors, the kernel's float64 base and intermediates, and the
top member. The other members are cast block by block, 32K elements at a
time, when the pooling reaches them: ``avg`` adds each into a float64
block, ``random`` stacks one block of every member, and ``magmax`` casts
none, since a member that ties the top one in magnitude has its bits.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .methods import MergeSpec, _accumulate, _builtin, _largest_magnitude, _member_maps, _sweep, registry_lookup
from .rng import _blocks, _check_seed, stream_key, uniform01
from .store import Tensor, TensorMap, _Replacement, _stream, _Writer
from .vectors import TaskVector, _check_deltas, _rebased, _task_labels, _task_vectors

__all__ = [
    "SearchSpace",
    "PoolSpec",
    "WeaveReport",
    "default_search_space",
    "build_augmented",
    "pool",
    "weave",
    "sweep_emit",
]

_POOLINGS = ("avg", "random", "magmax")
_DEFAULT_STEP = 0.1
_MAX_FACTORS = 100_000  # a range of more is likely a mistyped step; a million factors take seconds to list


@dataclass(frozen=True)
class SearchSpace:
    """Ordered scaling factors to sweep: real numbers (not booleans), strictly increasing, all positive."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in self.lambdas):
            raise ValueError(f"scaling factors must be numbers, got {list(self.lambdas)}")
        try:
            object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        except OverflowError:
            raise ValueError("scaling factors must be finite, got an integer too large for a float") from None
        if not self.lambdas:
            raise ValueError("search space must not be empty")
        for value in self.lambdas:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"scaling factors must be positive and finite, got {value}")
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("scaling factors must be strictly increasing")

    @classmethod
    def parse(cls, text: str) -> "SearchSpace":
        """Parse 'start:stop:step' (inclusive within 1e-9, a step of at least 1e-12) or a JSON list."""
        text = text.strip()
        if text.startswith("["):
            try:
                values = json.loads(text)
            except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
                raise ValueError(f"invalid scaling-factor list: {exc}") from exc
            return cls(tuple(values))
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'start:stop:step' or a JSON list, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"invalid scaling-factor range {text!r}: {exc}") from exc
        if step <= 0 or stop < start:  # NaN passes both
            raise ValueError(f"range {text!r} must have step > 0 and stop >= start")
        if not all(map(math.isfinite, (start, stop, step, (stop - start) / step))):
            raise ValueError(f"range {text!r} must have a finite start, stop and step, and a finite number of factors")
        count = math.floor((stop - start) / step + 1e-9) + 1  # counted before any is listed
        if step < 1e-12 or count > _MAX_FACTORS:  # a finer step than the factors' 12 decimals would repeat them
            raise ValueError(f"range {text!r} must have a step of at least 1e-12 and at most {_MAX_FACTORS} factors")
        return cls(tuple(round(start + i * step, 12) for i in range(count)))


def default_search_space(method: str) -> SearchSpace:
    """The method's default sweep: its registered range at step 0.1."""
    start, stop = registry_lookup(method).lambda_range
    return SearchSpace.parse(f"{start!r}:{stop!r}:{_DEFAULT_STEP!r}")


@dataclass(frozen=True)
class PoolSpec:
    """How to aggregate the member weights per parameter.

    include_deltas=True pools the raw task vectors together with the
    swept merges; False pools the swept merges only. seed feeds the
    per-element draws of ``random`` and is ignored by the others.
    """

    pooling: str = "avg"
    seed: int = 0
    include_deltas: bool = True

    def __post_init__(self) -> None:
        if self.pooling not in _POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r}; available: {', '.join(_POOLINGS)}")
        _check_seed(self.seed)
        if not isinstance(self.include_deltas, bool):
            raise ValueError(f"include_deltas must be a bool, got {self.include_deltas!r}")


@dataclass(frozen=True)
class WeaveReport:
    method: str
    lambdas: tuple[float, ...]
    pooling: str
    include_deltas: bool
    n_tasks: int
    n_members: int
    element_counts: dict[str, int]
    wall_time_s: float

    def to_json_dict(self) -> dict:
        return {**asdict(self), "lambdas": list(self.lambdas)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def build_augmented(
    deltas: Sequence[TaskVector],
    merge_fn,
    spec_template: MergeSpec,
    space: SearchSpace,
) -> list[TensorMap]:
    """The merged delta at every scaling factor, in sweep order.

    Each merge evaluates its factor-free part once per tensor and
    rescales; the result is identical to merging from scratch per factor.
    """
    return _member_maps(deltas, _builtin(merge_fn), spec_template, space.lambdas)


def _pool(name: str, raw: list[np.ndarray], top: np.ndarray, members: Callable[[slice], Iterator[np.ndarray]],
          count: int, pooling: str, seed: int) -> np.ndarray:
    """Tensor ``name``'s ``count`` members pooled: the ``raw`` task vectors, then the sweep's, whose ``part`` is
    ``members(part)``, ending with ``top``. Each pooling takes only the members it needs; ties resolve to the
    lowest member index.

    ``magmax`` draws no sweep member but ``top``. ``avg`` and ``random`` go block by block, each block's members
    cast when reached: ``avg`` sums them one at a time in float64, and ``random`` stacks one block of every
    member.
    """
    if pooling == "magmax":
        # |f32(lam * base)| never shrinks as lam grows and keeps base's sign, so a member that ties top has its bits
        return _largest_magnitude([*raw, top])
    pooled = np.empty(top.size, dtype=np.float32)
    if pooling == "avg":
        for part in _blocks(top.size):
            block = _accumulate(itertools.chain((r[part] for r in raw), members(part)))
            np.divide(block, count, out=pooled[part], dtype=np.float64, casting="same_kind")  # rounded once
        return pooled
    draws = uniform01(stream_key(seed, name, lane=0), top.size)
    for part in _blocks(top.size):
        stack = np.stack([*(r[part] for r in raw), *members(part)])
        picked = np.minimum((draws[part] * count).astype(np.int64), count - 1)
        pooled[part] = stack[picked, np.arange(stack.shape[1])]
    return pooled


def pool(members: Sequence[TensorMap], spec: PoolSpec) -> TensorMap:
    """Aggregate member maps per parameter; member order is significant.

    Pass members with raw deltas first (task order) and swept merges
    after (sweep order) so that selection tie-breaks are reproducible.
    """
    _check_deltas(members, "pool", "member")
    out = {}
    for name, tensor in members[0].items():
        *raw, top = [m.array(name).ravel() for m in members]
        pooled = _pool(name, raw, top, lambda part: iter([top[part]]), len(members), spec.pooling, spec.seed)
        out[name] = pooled.reshape(tensor.shape)
    return TensorMap(out)


def _sweep_each(pretrained: TensorMap, finetuned: Sequence[TensorMap], labels: list[str], spec: MergeSpec,
                space: SearchSpace, finish: Callable, what: str, sinks: Sequence[Callable], threads: int = 1) -> None:
    """Each tensor's deltas ``finish(name, flats, top, members)``, re-based onto its pre-trained values, to ``sinks``
    by ``store._stream`` in name order: ``finish`` makes them of the flat task vectors and ``methods._sweep``'s members
    (an overflowing member is an error, whatever it uses), and an overflowing sum names ``what``.
    """
    def produce(name: str) -> Iterator[Tensor]:
        pre = pretrained.array(name)
        flats = list(_task_vectors(name, pre, finetuned, labels).values.reshape(len(finetuned), -1))
        deltas = finish(name, flats, *_sweep(name, flats, range(1, len(flats) + 1), spec, space.lambdas))
        return (_rebased(name, pre, delta.reshape(pre.shape), pretrained[name].stored_dtype, what) for delta in deltas)

    _stream(pretrained.names, produce, sinks, threads)


def weave(
    pretrained: TensorMap,
    finetuned: Sequence[TensorMap],
    spec_template: MergeSpec,
    space: SearchSpace | None = None,
    pool_spec: PoolSpec | None = None,
    labels: Sequence[str] | None = None,
    threads: int = 1,
) -> tuple[TensorMap, WeaveReport]:
    """Sweep, pool, and re-base: the end-to-end merged model.

    Computes task vectors, runs the merge at every scaling factor in
    ``space`` (the method default if omitted), pools per parameter
    according to ``pool_spec``, and returns pretrained + pooled delta
    along with a run report. ``threads`` workers (at least 1) weave
    tensors in parallel; the output does not depend on their number.
    Inputs are read by tensor name (``names``, ``metadata``, ``[name]`` for the
    shape and stored dtype, ``.array(name)`` or ``.read(name, out=buffer)`` for the
    values), one tensor at a time, so an open checkpoint reader serves as an input.
    """
    tensors: dict[str, Tensor] = {}
    labels = _task_labels(pretrained, finetuned, labels)
    report = _weave(pretrained, finetuned, spec_template, space, pool_spec, labels, threads, tensors.__setitem__)
    return TensorMap(tensors, metadata=pretrained.metadata), report


def _weave(pretrained: TensorMap, finetuned: Sequence[TensorMap], spec_template: MergeSpec, space: SearchSpace | None,
           pool_spec: PoolSpec | None, labels: list[str], threads: int, sink) -> WeaveReport:
    """``weave`` of checked ``labels``, giving each tensor to ``sink(name, tensor)`` in name order, timing the sink."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    started = time.perf_counter()
    space = space if space is not None else default_search_space(spec_template.method)
    pool_spec = pool_spec if pool_spec is not None else PoolSpec()
    raw = len(finetuned) if pool_spec.include_deltas else 0  # how many task vectors are pooled
    n_members = len(space.lambdas) + raw

    def pooled(name: str, flats: list[np.ndarray], top: np.ndarray, members) -> tuple[np.ndarray]:
        return (_pool(name, flats[:raw], top, members, n_members, pool_spec.pooling, pool_spec.seed),)

    _sweep_each(pretrained, finetuned, labels, spec_template, space, pooled, "pre-trained plus pooled delta", [sink],
                threads)
    return WeaveReport(
        method=spec_template.method,
        lambdas=space.lambdas,
        pooling=pool_spec.pooling,
        include_deltas=pool_spec.include_deltas,
        n_tasks=len(finetuned),
        n_members=n_members,
        element_counts={name: entry.size for name, entry in pretrained.items()},
        wall_time_s=time.perf_counter() - started,
    )


def sweep_emit(
    pretrained: TensorMap,
    finetuned: Sequence[TensorMap],
    spec_template: MergeSpec,
    space: SearchSpace,
    out_dir: str | Path,
    labels: Sequence[str] | None = None,
) -> list[Path]:
    """Write pretrained + merge(deltas, lam) per factor, plus a manifest.

    Files are named ``<method>_lambda<value>.safetensors``; the manifest
    ``manifest.json`` lists them with their factors. Returns the
    checkpoint paths in sweep order.

    Every factor's file is filled one tensor at a time, in name order: the
    tensor's task vectors and kernel base are made once, and each factor's
    re-based tensor is appended to its file. So above its inputs (nothing,
    for the CLI's checkpoint readers) a sweep holds O(tasks x largest
    tensor), and no output file is held open between writes. The
    files replace their targets only once every tensor is written: an
    error, named for the first faulty tensor, leaves no new file or manifest.
    """
    out_dir = Path(out_dir)
    labels = _task_labels(pretrained, finetuned, labels)  # checked before the folder is made
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{spec_template.method}_lambda{lam!r}.safetensors" for lam in space.lambdas]
    manifest = {
        "spec": spec_template.to_json_dict(),
        "lambdas": list(space.lambdas),
        "files": [{"lambda": lam, "path": path.name} for lam, path in zip(space.lambdas, paths)],
    }
    _write_sweep(pretrained, finetuned, spec_template, space, paths, labels,
                 (out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n"))
    return paths


def _write_sweep(pretrained: TensorMap, finetuned: Sequence[TensorMap], spec: MergeSpec, space: SearchSpace,
                 paths: Sequence[str | Path], labels: list[str], manifest: tuple[Path, str] | None = None) -> None:
    """pretrained + merge(deltas, lam) at each factor, written to ``paths``, and the ``manifest`` (path, text)
    if given: ``sweep_emit``'s files, committed together. ``labels`` are ``_task_labels``' checked ones.
    """
    with contextlib.ExitStack() as stack:  # commits every file on success, removes them all on an error
        writers = [stack.enter_context(_Writer(path, pretrained.items(), pretrained.metadata)) for path in paths]
        if manifest is not None:  # written now, so that a failed write commits no checkpoint
            stack.enter_context(_Replacement(manifest[0], manifest[1].encode("utf-8")))
        _sweep_each(pretrained, finetuned, labels, spec, space, lambda name, flats, top, members: members(slice(None)),
                    "base plus delta", [writer.write for writer in writers])
