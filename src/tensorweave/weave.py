"""Sweep-and-pool merge driver.

Instead of searching for one good scaling factor, the driver runs the
merge function at every factor in a search space, pools the resulting
weights per parameter (optionally together with the raw task vectors),
and adds the pooled delta back onto the pre-trained weights.

``weave`` works on one tensor at a time, from its inputs: the tensor's
task vectors, the merge kernel's base, the members the pooling needs and
the pooled delta are made, used and released before the next tensor.
The output is held whole as a float32 model. The inputs' values are read
through ``.array(name)`` only: loaded maps are held whole by the caller,
but the CLI passes open checkpoint readers, which read each input tensor
when it is woven, so no whole input model is held. Above the output, each
worker thread holds a small multiple of (tasks + members) x the tensor in
flight: its pre-trained values and task vectors (one fine-tuned tensor
read at a time), the kernel's float64 base and intermediates, and one
member cast at a time (``avg`` adds each into a float64 sum; ``magmax``
casts only the top member, since a member that ties it has its bits).
Only ``random`` stacks a copy of all members.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .methods import MergeSpec, sweep_base_kernel
from .methods import _accumulate, _largest_magnitude, _member, _member_maps, _method, _scaled, _tensor_base
from .rng import stream_key, uniform01
from .store import Tensor, TensorMap, require_compatible
from .vectors import TaskVector, _task_delta, _task_labels

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
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid scaling-factor list: {exc}") from exc
            return cls(tuple(values))
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected 'start:stop:step' or a JSON list, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"invalid scaling-factor range {text!r}: {exc}") from exc
        if step <= 0 or stop < start:
            raise ValueError(f"range {text!r} must have step > 0 and stop >= start")
        return cls(_spaced(start, stop, step))


def _spaced(start: float, stop: float, step: float) -> tuple[float, ...]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(round(start + i * step, 12) for i in range(count))


def default_search_space(method: str) -> SearchSpace:
    """The method's default sweep: its registered range at step 0.1."""
    start, stop = _method(method).lambda_range
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
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


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
    return _member_maps(deltas, sweep_base_kernel(merge_fn), spec_template, space.lambdas)


def _pool_flat(name: str, flats: Iterable[np.ndarray], count: int, pooling: str, seed: int) -> np.ndarray:
    """Pool the ``count`` members that ``flats`` yields in member order.

    ``avg`` consumes them one at a time. ``magmax`` may be given only the
    members that can set a pick.
    """
    if pooling == "avg":
        return (_accumulate(flats) / count).astype(np.float32)
    flats = list(flats)
    if pooling == "magmax":  # ties resolve to the lowest member index
        return _largest_magnitude(flats)
    stack = np.stack(flats)
    draws = uniform01(stream_key(seed, name, lane=0), stack.shape[1])
    picked = np.minimum((draws * count).astype(np.int64), count - 1)
    return stack[picked, np.arange(stack.shape[1])]


def pool(members: Sequence[TensorMap], spec: PoolSpec) -> TensorMap:
    """Aggregate member maps per parameter; member order is significant.

    Pass members with raw deltas first (task order) and swept merges
    after (sweep order) so that selection tie-breaks are reproducible.
    """
    if not members:
        raise ValueError("pool needs at least one member")
    for pos, member in enumerate(members[1:], start=2):
        require_compatible(members[0], member, label=f"member {pos}")
    out = {}
    for name, tensor in members[0].items():
        flats = [m.array(name).ravel() for m in members]
        out[name] = _pool_flat(name, flats, len(flats), spec.pooling, spec.seed).reshape(tensor.shape)
    return TensorMap(out)


def _tensor_sweep(
    name: str, pretrained: TensorMap, finetuned: Sequence[TensorMap], labels: Sequence[str], kernel,
    spec: MergeSpec, space: SearchSpace,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Tensor ``name``'s sweep from the inputs: the pre-trained values, each task vector
    (flat), the kernel's float64 base and the checked top-factor member (flat).

    An overflowing member is an error, whatever uses the sweep.
    """
    pre = pretrained.array(name)
    flats = [_task_delta(label, name, ft.array(name), pre).values.ravel() for label, ft in zip(labels, finetuned)]
    base = _tensor_base(name, flats, range(1, len(flats) + 1), kernel, spec)
    return pre, flats, base, _member(name, space.lambdas, base).values


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
    Inputs are read by tensor name (``names``, ``metadata``, ``[name]``
    for the shape and stored dtype, ``.array(name)`` for the values), one
    tensor at a time, so an open checkpoint reader serves as an input.
    """
    started = time.perf_counter()
    if not finetuned:
        raise ValueError("weave needs at least one fine-tuned checkpoint")
    kernel = _method(spec_template.method).kernel
    space = space if space is not None else default_search_space(spec_template.method)
    pool_spec = pool_spec if pool_spec is not None else PoolSpec()
    labels = _task_labels(pretrained, finetuned, labels)
    n_members = len(space.lambdas) + (len(finetuned) if pool_spec.include_deltas else 0)

    def weave_one(name: str) -> tuple[str, Tensor]:
        pre, flats, base, top = _tensor_sweep(name, pretrained, finetuned, labels, kernel, spec_template, space)
        # |f32(lam * base)| never shrinks as lam grows and keeps base's sign, so a member
        # that ties the top one has its bits: magmax pooling needs no other member
        if pool_spec.pooling == "magmax":
            sweep = [top]
        else:  # cast one member at a time, in sweep order
            sweep = itertools.chain((_scaled(lam, base) for lam in space.lambdas[:-1]), [top])
        raw = flats if pool_spec.include_deltas else []
        pooled = _pool_flat(name, itertools.chain(raw, sweep), n_members, pool_spec.pooling, pool_spec.seed)
        with np.errstate(over="ignore"):  # an overflow leaves Inf, which the Tensor check reports
            rebased = pre + pooled.reshape(pre.shape)
        error = f"tensor {name!r}: pre-trained plus pooled delta overflows float32"
        return name, Tensor(rebased, pretrained[name].stored_dtype, error)

    names = pretrained.names
    with ThreadPoolExecutor(max_workers=threads) as executor:  # the executor rejects threads < 1
        results = dict(executor.map(weave_one, names))

    final = TensorMap(results, metadata=pretrained.metadata)
    report = WeaveReport(
        method=spec_template.method,
        lambdas=space.lambdas,
        pooling=pool_spec.pooling,
        include_deltas=pool_spec.include_deltas,
        n_tasks=len(finetuned),
        n_members=n_members,
        element_counts={name: pretrained[name].size for name in names},
        wall_time_s=time.perf_counter() - started,
    )
    return final, report
