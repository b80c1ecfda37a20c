"""Built-in merge functions behind a uniform registry.

A merge function maps (task vectors, spec) to a single merged delta map.
All built-ins work tensor by tensor, which the sweep engine relies on for
streaming: merging a sub-map equals the sub-map of the full merge.
Registered extensions must preserve that property: a sweep calls a merge
without a base kernel (every registered extension) once per tensor per
scaling factor, on a one-tensor slice of the task vectors.

Elementwise arithmetic accumulates in float64 and rounds once to float32
per element, so results are independent of chunking and thread count and
can be checked bit-for-bit against a scalar reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .rng import stream_key, uniform01
from .store import Tensor, TensorMap, require_compatible
from .vectors import TaskVector

__all__ = [
    "MergeSpec",
    "MergeFn",
    "task_arithmetic",
    "dare",
    "ties",
    "breadcrumbs",
    "magmax",
    "registry_lookup",
    "register_merge",
    "available_methods",
    "default_lambda_range",
    "sweep_base_kernel",
]

MergeFn = Callable[[Sequence[TaskVector], "MergeSpec"], TensorMap]


@dataclass(frozen=True)
class MergeSpec:
    """Merge-method identifier plus its hyperparameters.

    lam is the scaling factor applied to the merged delta; seed drives
    the per-element dropout of ``dare`` and is ignored elsewhere.
    """

    method: str
    lam: float = 1.0
    params: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be a positive finite scalar, got {self.lam}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        method = _REGISTRY.get(self.method)
        if method is not None and method.params is not None:
            unknown = sorted(set(self.params) - method.params)
            if unknown:
                raise ValueError(f"{self.method} does not accept parameter(s): {', '.join(unknown)}")
            method.check(self)

    def _require(self, key: str) -> float:
        if key not in self.params:
            raise ValueError(f"{self.method} requires parameter {key!r}")
        value = float(self.params[key])
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        return value

    def with_lambda(self, lam: float) -> "MergeSpec":
        return replace(self, lam=lam)

    def to_json_dict(self) -> dict:
        return {"method": self.method, "lambda": self.lam, "params": dict(self.params), "seed": self.seed}


def _check_deltas(deltas: Sequence[TaskVector]) -> None:
    if not deltas:
        raise ValueError("merge needs at least one task vector")
    for pos, tv in enumerate(deltas[1:], start=2):
        require_compatible(deltas[0].delta, tv.delta, label=f"task vector {pos}")


def _accumulate(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum, float64 accumulation in task order."""
    acc = np.zeros(parts[0].shape, dtype=np.float64)
    for part in parts:
        np.add(acc, part, out=acc)
    return acc


# A base kernel computes the factor-free part of a merge for one tensor,
# from (tensor name, per-task flat float32 slices, task indices, spec),
# in float64. The merged tensor at factor lam is (lam * base) rounded to
# float32, so a sweep evaluates the expensive part once and rescales.
_BaseKernel = Callable[[str, list[np.ndarray], Sequence[int], MergeSpec], np.ndarray]


def _tensor_members(
    name: str,
    deltas: Sequence[TaskVector],
    merge_fn: MergeFn | None,
    kernel: _BaseKernel | None,
    spec: MergeSpec,
    lambdas: Sequence[float],
) -> list[np.ndarray]:
    """Tensor ``name`` merged at each factor in ``lambdas``, as flat float32.

    With a base kernel, the base is computed once and rescaled per factor.
    Without one, ``merge_fn`` runs on the one-tensor slice of the task
    vectors at every factor. A member that overflows float32 holds Inf,
    which ``_member`` reports.
    """
    if kernel is not None:
        flats = [tv.delta.array(name).ravel() for tv in deltas]
        base = kernel(name, flats, [tv.index for tv in deltas], spec)
        with np.errstate(over="ignore"):
            return [(lam * base).astype(np.float32) for lam in lambdas]
    slices = [
        TaskVector(TensorMap({name: tv.delta[name]}), source_name=tv.source_name, index=tv.index)
        for tv in deltas
    ]
    return [merge_fn(slices, spec.with_lambda(lam)).array(name).ravel() for lam in lambdas]


def _member(name: str, lam: float, values: np.ndarray) -> Tensor:
    """Tensor ``name`` merged at ``lam``; from finite task vectors, only an overflow is non-finite."""
    return Tensor(values, error=f"tensor {name!r}: merged delta at lambda {lam} overflows float32")


def _member_maps(deltas: Sequence[TaskVector], merge_fn: MergeFn | None, kernel: _BaseKernel | None,
                 spec: MergeSpec, lambdas: Sequence[float]) -> list[TensorMap]:
    """The merged delta map at each factor in ``lambdas``, in order; see ``_tensor_members``."""
    _check_deltas(deltas)
    shapes = {name: tensor.shape for name, tensor in deltas[0].delta.items()}
    per_tensor = {name: _tensor_members(name, deltas, merge_fn, kernel, spec, lambdas) for name in shapes}
    return [
        TensorMap({name: _member(name, lam, per_tensor[name][pos].reshape(shape)) for name, shape in shapes.items()})
        for pos, lam in enumerate(lambdas)
    ]


def _ta_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    return _accumulate(flats)


def _dare_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    p = spec._require("drop_rate")
    inv_keep = 1.0 / (1.0 - p)
    masked = []
    for index, flat in zip(indices, flats):
        draws = uniform01(stream_key(spec.seed, name, lane=index), flat.size)
        masked.append(
            np.where(draws >= p, flat.astype(np.float64) * inv_keep, 0.0).astype(np.float32)
        )
    return _accumulate(masked)


def _check_dare(spec: MergeSpec) -> None:
    p = spec._require("drop_rate")
    if not 0 <= p < 1:
        raise ValueError(f"drop_rate must be in [0, 1), got {p}")


def task_arithmetic(deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
    """lam * sum of the task vectors."""
    return _member_maps(deltas, None, _ta_base, spec, (spec.lam,))[0]


def dare(deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
    """Per-element Bernoulli dropout with 1/(1-p) rescaling, then the scaled sum.

    Each task vector is masked independently; draws come from
    (seed, task index, tensor name, element index), so masks do not
    depend on execution order.
    """
    return _member_maps(deltas, None, _dare_base, spec, (spec.lam,))[0]


def _trim_count(fraction: float, size: int) -> int:
    # ceil(fraction * size), snapping float noise from decimal fractions
    # to the intended integer; at least one survivor for non-empty tensors.
    if size == 0:
        return 0
    return min(size, max(1, math.ceil(fraction * size - 1e-9)))


def _top_mask(mag: np.ndarray, count: int, ties_low: bool = True) -> np.ndarray:
    """Mask of the ``count`` largest entries of ``mag``, selected by partition.

    Every entry above the ``count``-th largest value is selected, and the
    slots left over go to the entries equal to that value. Tie rules:

    - ``ties_low`` (``ties``; the small side of ``breadcrumbs`` on ``-mag``):
      the lowest flat indices win, the first ``count`` of a stable sort by
      descending value;
    - otherwise (the large side of ``breadcrumbs``): the highest flat
      indices win, the last ``count`` of a stable sort by ascending value.

    ``mag`` must hold no NaN, which finite tensors guarantee.
    """
    size = mag.size
    if count <= 0:
        return np.zeros(size, dtype=bool)
    if count >= size:
        return np.ones(size, dtype=bool)
    threshold = np.partition(mag, size - count)[size - count]
    mask = mag > threshold
    need = count - int(np.count_nonzero(mask))
    tied = np.flatnonzero(mag == threshold)
    mask[tied[:need] if ties_low else tied[tied.size - need :]] = True
    return mask


def _ties_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    k = spec._require("keep_fraction")
    keep = _trim_count(k, flats[0].size)
    trimmed = [np.where(_top_mask(np.abs(flat), keep), flat, np.float32(0.0)) for flat in flats]

    elected = np.sign(_accumulate(trimmed))

    # agree_sum starts at +0.0 and never becomes -0.0 (x + -x rounds to
    # +0.0), so adding the signed zeros that values * agrees leaves for
    # disagreeing elements changes no bit; where no value agrees, the sum
    # is still +0.0 and dividing it by 1 gives the mean's +0.0 fallback
    agree_sum = np.zeros(flats[0].size, dtype=np.float64)
    agree_count = np.zeros(flats[0].size, dtype=np.int64)
    for values in trimmed:
        agrees = np.sign(values) == elected
        np.add(agree_sum, values * agrees, out=agree_sum)
        np.add(agree_count, agrees, out=agree_count)
    return np.divide(agree_sum, np.maximum(agree_count, 1), out=agree_sum)


def _check_ties(spec: MergeSpec) -> None:
    k = spec._require("keep_fraction")
    if not 0 < k <= 1:
        raise ValueError(f"keep_fraction must be in (0, 1], got {k}")


def ties(deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
    """Trim to the top-k fraction by magnitude, elect a sign, merge agreeing values.

    Per tensor: each task vector keeps its ceil(k*n) largest-magnitude
    elements (ties keep the lower flat index). The elected sign per
    element is the sign of the sum of trimmed values. The output is the
    mean of trimmed values matching the elected sign, scaled by lam.
    """
    return _member_maps(deltas, None, _ties_base, spec, (spec.lam,))[0]


def _breadcrumbs_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    beta, gamma = spec._require("beta"), spec._require("gamma")
    size = flats[0].size
    n_small = int(math.floor(beta * size + 1e-9))
    n_large = int(math.floor(gamma * size + 1e-9))
    masked = []
    for flat in flats:
        mag = np.abs(flat)
        dropped = _top_mask(-mag, n_small) | _top_mask(mag, n_large, ties_low=False)
        masked.append(np.where(dropped, np.float32(0.0), flat))
    return _accumulate(masked)


def _check_breadcrumbs(spec: MergeSpec) -> None:
    beta, gamma = spec._require("beta"), spec._require("gamma")
    if not (0 <= beta < 1 and 0 <= gamma < 1 and beta + gamma < 1):
        raise ValueError(
            f"beta and gamma must each be in [0, 1) with beta + gamma < 1, "
            f"got beta={beta} gamma={gamma}"
        )


def breadcrumbs(deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
    """Mask out the smallest and largest magnitudes, then the scaled sum.

    Per task vector and tensor, floor(beta*n) smallest-magnitude and
    floor(gamma*n) largest-magnitude elements are zeroed. Magnitude ties
    drop the lower flat index first on the small side and the higher flat
    index first on the large side.
    """
    return _member_maps(deltas, None, _breadcrumbs_base, spec, (spec.lam,))[0]


def _magmax_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    stack = np.stack(flats)
    winner = np.argmax(np.abs(stack), axis=0)
    return stack[winner, np.arange(stack.shape[1])].astype(np.float64)


def magmax(deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
    """Per element, lam times the delta whose magnitude is largest.

    Magnitude ties select the smallest task index.
    """
    return _member_maps(deltas, None, _magmax_base, spec, (spec.lam,))[0]


@dataclass(frozen=True)
class _Method:
    """Everything known about one merge method name.

    Built-ins carry their base kernel, the parameter names they accept
    and a check of the values; registered extensions carry neither and
    accept any parameters.
    """

    fn: MergeFn
    lambda_range: tuple[float, float] | None = None
    kernel: _BaseKernel | None = None
    params: frozenset[str] | None = None
    check: Callable[[MergeSpec], None] = lambda spec: None


_REGISTRY: dict[str, _Method] = {
    "task_arithmetic": _Method(task_arithmetic, (0.1, 1.0), _ta_base, frozenset()),
    "dare": _Method(dare, (0.1, 1.0), _dare_base, frozenset({"drop_rate"}), _check_dare),
    "ties": _Method(ties, (0.1, 1.5), _ties_base, frozenset({"keep_fraction"}), _check_ties),
    "breadcrumbs": _Method(
        breadcrumbs, (0.1, 1.0), _breadcrumbs_base, frozenset({"beta", "gamma"}), _check_breadcrumbs
    ),
    "magmax": _Method(magmax, (0.1, 1.0), _magmax_base, frozenset()),
}


def sweep_base_kernel(merge_fn: MergeFn) -> _BaseKernel | None:
    """The factor-free per-tensor kernel behind a merge function, if any.

    Sweeps use it to evaluate the merge once per tensor and rescale per
    factor; functions without one are called at every factor. A name
    re-registered with a custom function has no kernel.
    """
    return next((m.kernel for m in _REGISTRY.values() if m.fn is merge_fn and m.kernel), None)


def register_merge(name: str, fn: MergeFn, lambda_range: tuple[float, float] | None = None) -> None:
    """Register a merge function; extensions plug in through here.

    The entry replaces any earlier one of that name, built-in or not.
    """
    _REGISTRY[name] = _Method(fn, lambda_range)


def registry_lookup(name: str) -> MergeFn:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown merge method {name!r}; available: {', '.join(available_methods())}"
        )
    return _REGISTRY[name].fn


def available_methods() -> list[str]:
    return sorted(_REGISTRY)


def default_lambda_range(name: str) -> tuple[float, float] | None:
    """The registered default scaling-factor range, if any."""
    method = _REGISTRY.get(name)
    return method.lambda_range if method is not None else None
