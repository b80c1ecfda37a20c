"""Sweep-and-pool merge driver.

Instead of searching for one good scaling factor, the driver runs the
merge function at every factor in a search space, pools the resulting
weights per parameter (optionally together with the raw task vectors),
and adds the pooled delta back onto the pre-trained weights.

``weave`` works on one tensor at a time, from its inputs: the tensor's
task vectors, the merge kernel's base, the members the pooling needs and
the pooled delta are made, used and released before the next tensor.
Each woven tensor goes to a sink in name order: ``weave`` returns them
as a float32 model, and the CLI writes each one to its file, holding no
whole output. The pre-trained values are read through ``.array(name)``,
and each fine-tuned tensor through ``.read(name)``, into a fresh buffer
that its task vector is made in: loaded maps are held whole by the
caller, but the CLI passes open readers, which read each input tensor when
it is woven. Beyond that, each worker thread holds a small multiple of
tasks x the tensor in flight: its pre-trained values and task vectors, the
kernel's float64 base and intermediates, and the top member. The other
members are cast block by block, 32K elements at a time, when the pooling
reaches them: ``avg`` adds each into a float64 block, ``random`` stacks
one block of every member, and ``magmax`` casts none, since a member that
ties the top one in magnitude has its bits.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .methods import MergeSpec, _accumulate, _builtin, _largest_magnitude, _member_maps, _sweep, registry_lookup
from .rng import _blocks, _check_seed, stream_key, uniform01
from .store import Tensor, TensorMap, _stream
from .vectors import TaskVector, _check_deltas, _rebased, _task_labels, _task_vectors

__all__ = [
    "SearchSpace",
    "PoolSpec",
    "WeaveReport",
    "default_search_space",
    "build_augmented",
    "pool",
    "weave",
]

_POOLINGS = ("avg", "random", "magmax")
_DEFAULT_STEP = 0.1


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
        """Parse 'start:stop:step' (inclusive within 1e-9) or a JSON list."""
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
        return cls(_spaced(start, stop, step))


def _spaced(start: float, stop: float, step: float) -> tuple[float, ...]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 12) for i in range(count))


def default_search_space(method: str) -> SearchSpace:
    """The method's default sweep: its registered range at step 0.1."""
    start, stop = registry_lookup(method).lambda_range
    return SearchSpace(_spaced(start, stop, _DEFAULT_STEP))


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


def _tensor_sweep(
    name: str, pretrained: TensorMap, finetuned: Sequence[TensorMap], labels: Sequence[str], spec: MergeSpec,
    space: SearchSpace,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, Callable[[slice], Iterator[np.ndarray]]]:
    """Tensor ``name``'s sweep from the inputs: the pre-trained values, each task vector (flat),
    the checked top-factor member and ``members(part)``, every member's ``part`` in sweep order, each cast when
    reached (flat).

    An overflowing member is an error, whatever uses the sweep.
    """
    pre = pretrained.array(name)
    flats = [tv.values.ravel() for tv in _task_vectors(name, pre, finetuned, labels)]
    return (pre, flats, *_sweep(name, flats, range(1, len(flats) + 1), spec, space.lambdas))


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
    shape and stored dtype, ``.array(name)`` or a fresh copy by ``.read(name)`` for
    the values), one tensor at a time, so an open checkpoint reader serves as an input.
    """
    tensors: dict[str, Tensor] = {}
    report = _weave(pretrained, finetuned, spec_template, space, pool_spec, labels, threads, tensors.__setitem__)
    return TensorMap(tensors, metadata=pretrained.metadata), report


def _weave(pretrained: TensorMap, finetuned: Sequence[TensorMap], spec_template: MergeSpec, space: SearchSpace | None,
           pool_spec: PoolSpec | None, labels: Sequence[str] | None, threads: int, sink) -> WeaveReport:
    """``weave``, giving each tensor to ``sink(name, tensor)`` in name order; the report's time includes the sink's."""
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    started = time.perf_counter()
    space = space if space is not None else default_search_space(spec_template.method)
    pool_spec = pool_spec if pool_spec is not None else PoolSpec()
    labels = _task_labels(pretrained, finetuned, labels)
    n_members = len(space.lambdas) + (len(finetuned) if pool_spec.include_deltas else 0)

    def weave_one(name: str) -> tuple[Tensor]:
        pre, flats, top, members = _tensor_sweep(name, pretrained, finetuned, labels, spec_template, space)
        raw = flats if pool_spec.include_deltas else []
        pooled = _pool(name, raw, top, members, n_members, pool_spec.pooling, pool_spec.seed)
        return (_rebased(name, pre, pooled.reshape(pre.shape), pretrained[name].stored_dtype,
                         "pre-trained plus pooled delta"),)

    _stream(pretrained.names, weave_one, [sink], threads)
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
