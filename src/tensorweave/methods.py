"""The merge methods and their registry: the five built-ins are the full set.

A method is one record, and the record is its merge function: it maps
(task vectors, spec) to a single merged delta map, and it holds the
method's name, default factor range, base kernel and parameters. The
spec's method selects the base kernel, so a function refuses a spec for
another method. Every method works tensor by tensor, which the sweep engine
relies on for streaming: merging a sub-map equals the sub-map of the full
merge. ``_sweep`` alone runs kernels and makes merged deltas, for all callers.

Elementwise arithmetic accumulates in float64 and rounds once to float32
per element, so results are independent of chunking and thread count and
can be checked bit-for-bit against a scalar reference.
"""

from __future__ import annotations

import math
import numbers
import types
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .rng import _blocks, _check_seed, stream_key, uniform01
from .store import CheckpointError, TensorMap
from .vectors import TaskVector, _check_deltas

__all__ = [
    "MergeSpec",
    "task_arithmetic",
    "dare",
    "ties",
    "breadcrumbs",
    "magmax",
    "registry_lookup",
    "available_methods",
]

@dataclass(frozen=True)
class MergeSpec:
    """Merge-method identifier plus its hyperparameters.

    lam is the scaling factor applied to the merged delta; seed drives
    the per-element dropout of ``dare`` and is ignored elsewhere. Each
    parameter the method declares must be given and finite; the spec
    keeps its own read-only copy of ``params``, every value a float.
    """

    method: str
    lam: float = 1.0
    params: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_is_finite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be a positive finite scalar, got {self.lam}")
        _check_seed(self.seed)
        method = registry_lookup(self.method)
        unknown = sorted(self.params.keys() - method.params)
        if unknown:
            raise ValueError(f"{self.method} does not accept parameter(s): {', '.join(unknown)}")
        for key in method.params:
            if key not in self.params:
                raise ValueError(f"{self.method} requires parameter {key!r}")
            if not _is_finite(self.params[key]):
                raise ValueError(f"{key} must be finite, got {self.params[key]}")
        object.__setattr__(self, "params", types.MappingProxyType({k: float(v) for k, v in self.params.items()}))
        method.check(self)

    def __reduce__(self):  # a mapping proxy does not pickle, so pickle and deepcopy rebuild the spec from a dict
        return MergeSpec, (self.method, self.lam, dict(self.params), self.seed)

    def to_json_dict(self) -> dict:
        return {"method": self.method, "lambda": self.lam, "params": dict(self.params), "seed": self.seed}


def _is_finite(value) -> bool:
    """Whether ``value`` is a real number that is finite as a float; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _bit_select(mask: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Per element, ``a`` where ``mask`` holds, else +0.0: a flat float32 array and a bool mask.

    The mask becomes an all-ones or all-zeros word, and the pick is integer
    arithmetic on the float32 bits, ``a & m``, without a branch. It gives
    ``np.where``'s bits at a fraction of its time on a mask that is not
    mostly one way.
    """
    m = np.subtract(0, mask.view(np.uint8), dtype=np.int32).view(np.uint32)
    return np.bitwise_and(a.view(np.uint32), m, out=m).view(np.float32)


def _accumulate(parts: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise sum, float64 accumulation in order from +0.0; ``parts`` is consumed one at a time."""
    parts = iter(parts)
    acc = np.add(0.0, next(parts), dtype=np.float64)
    for part in parts:
        np.add(acc, part, out=acc)
    return acc


# A base kernel computes the factor-free part of a merge for one tensor,
# from (tensor name, per-task flat float32 slices, task indices, spec),
# in float64. The merged tensor at factor lam is (lam * base) rounded to
# float32, so a sweep evaluates the expensive part once and rescales.
_BaseKernel = Callable[[str, list[np.ndarray], Sequence[int], MergeSpec], np.ndarray]


def _sweep(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec,
           lambdas: Sequence[float]) -> tuple[np.ndarray, Callable[[slice], Iterator[np.ndarray]]]:
    """Tensor ``name``'s merged deltas at ``lambdas`` (flat float32): the checked top-factor member, and
    ``members(part)``, which gives every member's ``part`` in sweep order, each cast when reached.

    The spec's method picks the base kernel, which runs once; the member at
    ``lam`` is ``lam * base`` rounded to float32. An overflow inside the
    kernel (``dare``'s rescale) leaves Inf or NaN. ``|f32(lam * base)|``
    never shrinks as ``lam`` grows, so no member overflows unless the top
    one does; only then are the others cast, to name the smallest lambda
    that overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        base = registry_lookup(spec.method).kernel(name, flats, indices, spec)
        top = _scaled(base, lambdas[-1])
        if not np.isfinite(top).all():
            lam = next(lam for lam in lambdas if not np.isfinite(_scaled(base, lam)).all())
            raise CheckpointError(f"tensor {name!r}: merged delta at lambda {lam} overflows float32")

    def members(part: slice) -> Iterator[np.ndarray]:
        yield from (_scaled(base[part], lam) for lam in lambdas[:-1])
        yield top[part]
    return top, members


def _scaled(values: np.ndarray, factor: float) -> np.ndarray:
    """``f32(factor * values)`` in one pass: each product is made in float64 and rounded once into float32."""
    return np.multiply(values, factor, out=np.empty(values.shape, np.float32), dtype=np.float64, casting="same_kind")


def _member_maps(deltas: Sequence[TaskVector], method: _Method, spec: MergeSpec,
                 lambdas: Sequence[float]) -> list[TensorMap]:
    """The merged delta map at each factor in ``lambdas``, in order, by ``method``, which ``spec`` must be for."""
    if spec.method != method.name:
        raise ValueError(f"merge function {method.name} was given a spec for method {spec.method}")
    _check_deltas([tv.delta for tv in deltas], "merge")
    indices = [tv.index for tv in deltas]
    per_tensor = {}
    for name, tensor in deltas[0].delta.items():
        _, members = _sweep(name, [tv.delta.array(name).ravel() for tv in deltas], indices, spec, lambdas)
        per_tensor[name] = [member.reshape(tensor.shape) for member in members(slice(None))]
    return [TensorMap({name: members[pos] for name, members in per_tensor.items()}) for pos in range(len(lambdas))]


@dataclass(frozen=True, eq=False)
class _Method:
    """One merge method, called as its merge function: its name, default factor range, base kernel, parameters
    (name -> meaning, the help of the CLI flag) and a check; like a function, it compares by identity.
    """

    name: str
    lambda_range: tuple[float, float]
    kernel: _BaseKernel
    params: dict[str, str]
    check: Callable[[MergeSpec], None] = lambda spec: None

    def __post_init__(self) -> None:
        object.__setattr__(self, "__doc__", self.kernel.__doc__)

    def __call__(self, deltas: Sequence[TaskVector], spec: MergeSpec) -> TensorMap:
        return _member_maps(deltas, self, spec, (spec.lam,))[0]

    def __reduce__(self) -> str:
        return self.name


def _ta_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    """lam * sum of the task vectors."""
    return _accumulate(flats)


def _dare_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    """Per-element Bernoulli dropout with 1/(1-p) rescaling, then the scaled sum.

    Each task vector is masked independently; draws come from
    (seed, task index, tensor name, element index), so masks do not
    depend on execution order.
    """
    # the task indices are the draws' lanes: a repeated one would repeat a mask
    if len(set(indices)) != len(indices) or min(indices) < 1:
        raise ValueError(f"dare needs distinct task indices of at least 1, got {list(indices)}")
    p = spec.params["drop_rate"]
    inv_keep = 1.0 / (1.0 - p)
    return _accumulate(  # one masked task vector at a time
        _bit_select(uniform01(stream_key(spec.seed, name, lane=index), flat.size) >= p, _scaled(flat, inv_keep))
        for index, flat in zip(indices, flats)
    )


def _check_dare(spec: MergeSpec) -> None:
    p = spec.params["drop_rate"]
    if not 0 <= p < 1:
        raise ValueError(f"drop_rate must be in [0, 1), got {p}")


task_arithmetic = _Method("task_arithmetic", (0.1, 1.0), _ta_base, {})


dare = _Method("dare", (0.1, 1.0), _dare_base, {"drop_rate": "drop probability in [0,1)"}, _check_dare)


def _trim_count(fraction: float, size: int) -> int:
    # ceil(fraction * size), snapping float noise from decimal fractions
    # to the intended integer; at least one survivor for non-empty tensors.
    if size == 0:
        return 0
    return min(size, max(1, math.ceil(fraction * size - 1e-9)))


def _magnitude_bits(flat: np.ndarray) -> np.ndarray:
    """The ``uint32`` bits of ``|flat|`` (flat float32). For non-negative floats that are not NaN, the bits
    order as the values do and are equal where they are equal, ``+0.0`` being every zero's magnitude."""
    return np.abs(flat).view(np.uint32)


def _top_mask(bits: np.ndarray, count: int, ties_low: bool = True) -> np.ndarray:
    """Mask of the ``count`` largest entries of ``bits``, selected by partition: the ``uint32`` bits of
    non-negative magnitudes (``_magnitude_bits``), or their complement ``~bits`` for the smallest magnitudes.

    Every entry above the ``count``-th largest value is selected, and the
    slots left over go to the entries equal to that value. Tie rules:

    - ``ties_low`` (``ties``; the small side of ``breadcrumbs`` on ``~bits``):
      the lowest flat indices win, the first ``count`` of a stable sort by
      descending value;
    - otherwise (the large side of ``breadcrumbs``): the highest flat
      indices win, the last ``count`` of a stable sort by ascending value.

    The magnitudes must not be NaN, which finite tensors guarantee; then
    the bits give the magnitudes' order and ties, and partition faster.
    """
    size = bits.size
    if count <= 0:
        return np.zeros(size, dtype=bool)
    if count >= size:
        return np.ones(size, dtype=bool)
    threshold = np.partition(bits, size - count)[size - count]
    mask = bits > threshold
    need = count - int(np.count_nonzero(mask))
    tied = np.flatnonzero(bits == threshold)
    mask[tied[:need] if ties_low else tied[tied.size - need :]] = True
    return mask


def _ties_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    """Trim to the top-k fraction by magnitude, elect a sign, merge agreeing values.

    Per tensor: each task vector keeps its ceil(k*n) largest-magnitude
    elements (ties keep the lower flat index). The elected sign per
    element is the sign of the sum of trimmed values. The output is the
    mean of trimmed values matching the elected sign, scaled by lam.
    """
    k = spec.params["keep_fraction"]
    size = flats[0].size
    keep = _trim_count(k, size)
    trimmed = [_bit_select(_top_mask(_magnitude_bits(flat), keep), flat) for flat in flats]

    # the election and the mean go block by block, so each pass reads operands still in cache
    base = np.empty(size, dtype=np.float64)
    for part in _blocks(size):
        block = [values[part] for values in trimmed]
        elected = np.sign(_accumulate(block), out=np.empty(part.stop - part.start, np.float32))  # +1.0, -1.0 or 0.0
        agree_sum, count = base[part], np.zeros(part.stop - part.start, np.int32)
        agree_sum.fill(0.0)
        for values in block:
            # a value agrees where it has the elected sign, so where values * elected (exact) is > 0. Where the
            # elected sign is 0, only zeros would agree; counted or not, they leave the mean +0.0. agree_sum
            # starts at +0.0 and never becomes -0.0 (x + -x rounds to +0.0), so adding the signed zeros that
            # values * agrees leaves where a value disagrees changes no bit; where none agrees, the sum is
            # still +0.0 and dividing it by 1 gives the mean's +0.0 fallback
            agrees = values * elected > 0
            agree_sum += values * agrees
            count += agrees
        np.divide(agree_sum, np.maximum(count, 1), out=agree_sum)
    return base


def _check_ties(spec: MergeSpec) -> None:
    k = spec.params["keep_fraction"]
    if not 0 < k <= 1:
        raise ValueError(f"keep_fraction must be in (0, 1], got {k}")


ties = _Method("ties", (0.1, 1.5), _ties_base, {"keep_fraction": "kept fraction in (0,1]"}, _check_ties)


def _breadcrumbs_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    """Mask out the smallest and largest magnitudes, then the scaled sum.

    Per task vector and tensor, floor(beta*n) smallest-magnitude and
    floor(gamma*n) largest-magnitude elements are zeroed. Magnitude ties
    drop the lower flat index first on the small side and the higher flat
    index first on the large side.
    """
    beta, gamma = spec.params["beta"], spec.params["gamma"]
    size = flats[0].size
    n_small = int(math.floor(beta * size + 1e-9))
    n_large = int(math.floor(gamma * size + 1e-9))

    def masked(flat: np.ndarray) -> np.ndarray:
        bits = _magnitude_bits(flat)
        return _bit_select(~(_top_mask(~bits, n_small) | _top_mask(bits, n_large, ties_low=False)), flat)
    return _accumulate(map(masked, flats))  # one masked task vector at a time


def _check_breadcrumbs(spec: MergeSpec) -> None:
    beta, gamma = spec.params["beta"], spec.params["gamma"]
    if not (0 <= beta < 1 and 0 <= gamma < 1 and beta + gamma < 1):
        raise ValueError(
            f"beta and gamma must each be in [0, 1) with beta + gamma < 1, "
            f"got beta={beta} gamma={gamma}"
        )


breadcrumbs = _Method("breadcrumbs", (0.1, 1.0), _breadcrumbs_base, {"beta": "small-magnitude drop fraction",
                      "gamma": "large-magnitude drop fraction"}, _check_breadcrumbs)


def _largest_magnitude(flats: Sequence[np.ndarray]) -> np.ndarray:
    """Per element of flat float32 arrays, the value of largest magnitude; ties keep the earliest array, signed
    zeros too.

    Integer arithmetic on the ``int32`` bits, with no branch (``np.where`` costs several times as much on so random
    a mask) and two scratch arrays: a finite magnitude ``bits & 0x7FFFFFFF`` is at most ``0x7F7FFFFF``, so
    ``(best - mag) >> 31`` is all ones exactly where a later array is larger, and ``picked ^= (bits ^ picked) & mask``.
    """
    picked = flats[0].view(np.int32).copy()
    best = picked & 0x7FFFFFFF
    mag, mask = np.empty_like(best), np.empty_like(best)
    for flat in flats[1:]:
        bits = flat.view(np.int32)
        np.bitwise_and(bits, 0x7FFFFFFF, out=mag)
        np.right_shift(np.subtract(best, mag, out=mask), 31, out=mask)
        np.maximum(best, mag, out=best)
        np.bitwise_and(np.bitwise_xor(bits, picked, out=mag), mask, out=mag)
        np.bitwise_xor(picked, mag, out=picked)
    return picked.view(np.float32)


def _magmax_base(name: str, flats: list[np.ndarray], indices: Sequence[int], spec: MergeSpec) -> np.ndarray:
    """Per element, lam times the delta whose magnitude is largest.

    Magnitude ties select the smallest task index.
    """
    return _largest_magnitude(flats).astype(np.float64)


magmax = _Method("magmax", (0.1, 1.0), _magmax_base, {})


_REGISTRY: dict[str, _Method] = {m.name: m for m in (task_arithmetic, dare, ties, breadcrumbs, magmax)}


def sweep_base_kernel(merge_fn: _Method) -> _BaseKernel:
    """The factor-free per-tensor kernel behind a built-in merge function.

    Nothing in the package calls it, since sweeps run the kernel through ``_sweep``; only
    the benchmark's traced run (``perfbench/traced.py``) and tests do. Raises ValueError for any other function.
    """
    return _builtin(merge_fn).kernel


def _builtin(merge_fn: _Method) -> _Method:
    """A built-in merge function as its record; ValueError for any other function."""
    if not (isinstance(merge_fn, _Method) and _REGISTRY.get(merge_fn.name) is merge_fn):
        raise ValueError(f"{merge_fn!r} is not a built-in merge function")
    return merge_fn


def registry_lookup(name: str) -> _Method:
    if name not in _REGISTRY:
        raise ValueError(f"unknown merge method {name!r}; available: {', '.join(available_methods())}")
    return _REGISTRY[name]


def available_methods() -> list[str]:
    return sorted(_REGISTRY)
