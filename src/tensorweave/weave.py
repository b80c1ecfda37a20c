"""Sweep-and-pool merge driver.

Instead of searching for one good scaling factor, the driver runs the
merge function at every factor in a search space, pools the resulting
weights per parameter (optionally together with the raw task vectors),
and adds the pooled delta back onto the pre-trained weights. Pooling
streams tensor by tensor: the member slices for one tensor are
materialized, pooled, and released before the next. The inputs, every
task vector and the output are held whole, so peak memory is 2 x tasks + 2
whole models plus, per worker thread, a small multiple of (members +
tasks) x the tensor in flight: its members, the kernel's float64
intermediates and the pooling's working copy.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .methods import MergeSpec, default_lambda_range, registry_lookup, sweep_base_kernel
from .methods import _accumulate, _member, _member_maps, _tensor_members
from .rng import stream_key, uniform01
from .store import CheckpointError, Tensor, TensorMap, require_compatible
from .vectors import TaskVector, compute_deltas

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
_FALLBACK_RANGE = (0.1, 1.0)
_DEFAULT_STEP = 0.1


@dataclass(frozen=True)
class SearchSpace:
    """Ordered scaling factors to sweep; strictly increasing, all positive."""

    lambdas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
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
            if not isinstance(values, list) or not all(isinstance(v, (int, float)) for v in values):
                raise ValueError("scaling-factor list must contain only numbers")
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
    """The method's default sweep: its registered range at step 0.1.

    Methods without a registered range fall back to 0.1..1.0.
    """
    registered = default_lambda_range(method)
    start, stop = registered if registered is not None else _FALLBACK_RANGE
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
        return {
            "method": self.method,
            "lambdas": list(self.lambdas),
            "pooling": self.pooling,
            "include_deltas": self.include_deltas,
            "n_tasks": self.n_tasks,
            "n_members": self.n_members,
            "element_counts": dict(self.element_counts),
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def build_augmented(
    deltas: Sequence[TaskVector],
    merge_fn,
    spec_template: MergeSpec,
    space: SearchSpace,
) -> list[TensorMap]:
    """The merged delta at every scaling factor, in sweep order.

    Built-in merges evaluate their factor-free part once per tensor and
    rescale; the result is identical to merging from scratch per factor.
    """
    return _member_maps(deltas, merge_fn, sweep_base_kernel(merge_fn), spec_template, space.lambdas)


def _pool_flat(name: str, flats: list[np.ndarray], pooling: str, seed: int) -> np.ndarray:
    count = len(flats)
    if pooling == "avg":
        return (_accumulate(flats) / count).astype(np.float32)
    stack = np.stack(flats)
    if pooling == "random":
        draws = uniform01(stream_key(seed, name, lane=0), stack.shape[1])
        picked = np.minimum((draws * count).astype(np.int64), count - 1)
    else:  # magmax: ties resolve to the lowest member index
        picked = np.argmax(np.abs(stack), axis=0)
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
        out[name] = _pool_flat(name, flats, spec.pooling, spec.seed).reshape(tensor.shape)
    return TensorMap(out)


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
    along with a run report.
    """
    started = time.perf_counter()
    if not finetuned:
        raise ValueError("weave needs at least one fine-tuned checkpoint")
    merge_fn = registry_lookup(spec_template.method)
    space = space if space is not None else default_search_space(spec_template.method)
    pool_spec = pool_spec if pool_spec is not None else PoolSpec()
    deltas = compute_deltas(pretrained, finetuned, labels=labels)
    kernel = sweep_base_kernel(merge_fn)

    def weave_one(name: str) -> tuple[str, Tensor]:
        members = _tensor_members(name, deltas, merge_fn, kernel, spec_template, space.lambdas)
        flats = [tv.delta.array(name).ravel() for tv in deltas] if pool_spec.include_deltas else []
        pooled = _pool_flat(name, flats + members, pool_spec.pooling, pool_spec.seed)
        pre = pretrained[name]
        with np.errstate(over="ignore"):  # an overflow leaves Inf, which the Tensor check reports
            rebased = pre.values + pooled.reshape(pre.shape)
        error = f"tensor {name!r}: pre-trained plus pooled delta overflows float32"
        try:
            return name, Tensor(rebased, pre.stored_dtype, error)
        except CheckpointError:
            # |f32(lam * base)| grows with lam, so the first member to fail has the smallest such lam
            for lam, member in zip(space.lambdas, members):
                _member(name, lam, member)
            raise

    names = pretrained.names
    if threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=threads) as executor:
            results = dict(executor.map(weave_one, names))
    else:
        results = dict(weave_one(name) for name in names)

    final = TensorMap(results, metadata=pretrained.metadata)
    n_members = len(space.lambdas) + (len(deltas) if pool_spec.include_deltas else 0)
    report = WeaveReport(
        method=spec_template.method,
        lambdas=space.lambdas,
        pooling=pool_spec.pooling,
        include_deltas=pool_spec.include_deltas,
        n_tasks=len(deltas),
        n_members=n_members,
        element_counts={name: pretrained[name].size for name in names},
        wall_time_s=time.perf_counter() - started,
    )
    return final, report
