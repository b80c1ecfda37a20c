"""Seeded synthetic checkpoints for the benchmark workloads.

Every input file is a pure function of (workload, seed). Each fine-tuned
checkpoint is ``pretrained + shared + task_i``: the shared component is
common to all tasks and the per-task component is heavy-tailed (Student-t,
3 degrees of freedom), which gives realistic sign conflicts between tasks.
Tensors stored F16 get a coarse value grid, so their task-vector
magnitudes are dense with ties; F32 tensors have almost no ties.

Files are written by this module, not by the package under test, so the
input bytes do not change when the package's writer changes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROBE = "probe.weight"
PROBE_SHAPE = (16, 16)

# (std of the pre-trained values, scale of the shared and per-task deltas).
# F16 tensors sit on a coarser grid at the larger scale; see the self-test
# for the tie densities these give.
_SCALES = {"F32": (0.02, 2e-3), "F16": (0.2, 1e-3)}
_NP = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2")}


@dataclass(frozen=True)
class TensorDef:
    name: str
    shape: tuple[int, ...]
    dtype: str  # stored dtype, F32 or F16
    norm: bool = False  # centred on 1.0, like a normalisation weight

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64))


@dataclass(frozen=True)
class Workload:
    name: str
    index: int  # salt for the seed streams; fixed per workload
    n_tasks: int
    tensors: tuple[TensorDef, ...]
    method: str
    params: tuple[tuple[str, float], ...]  # merge hyperparameters, CLI flag spelling with "_"
    n_lambdas: int  # size of the method's default sweep 0.1, 0.2, ... at step 0.1
    pooling: str | None  # None for ``analyze sweep``
    threads: int | None

    @property
    def is_sweep(self) -> bool:
        return self.pooling is None

    @property
    def lambdas(self) -> list[float]:
        return [round(0.1 * i, 12) for i in range(1, self.n_lambdas + 1)]

    def cli_seed(self, seed: int) -> int:
        """The ``--seed`` the program receives, derived from the benchmark seed."""
        return (seed * 0x9E3779B1 + self.index) % (1 << 32)

    def cli_args(self, seed: int, inputs: list[Path], out: Path) -> list[str]:
        """Arguments of the ``tensorweave`` command that runs this workload."""
        head = ["analyze", "sweep"] if self.is_sweep else ["weave"]
        flags = ["--method", self.method]
        for key, value in self.params:
            flags += ["--" + key.replace("_", "-"), repr(value)]
        if not self.is_sweep:
            flags += ["--pooling", self.pooling, "--threads", str(self.threads)]
        flags += ["--seed", str(self.cli_seed(seed)), "--pretrained", str(inputs[0])]
        flags += ["--out-dir" if self.is_sweep else "--out", str(out)]
        return head + flags + [str(p) for p in inputs[1:]]


def _with_probe(tensors: list[TensorDef]) -> tuple[TensorDef, ...]:
    return tuple(tensors) + (TensorDef(PROBE, PROBE_SHAPE, "F32"),)


def _square_layers(n_f16: int) -> tuple[TensorDef, ...]:
    """Eight 1024x512 matrices, the last ``n_f16`` of them stored F16."""
    return _with_probe(
        [TensorDef(f"layers.{i}.weight", (1024, 512), "F16" if i >= 8 - n_f16 else "F32") for i in range(8)]
    )


def _transformer(blocks: int = 32, width: int = 128, vocab: int = 2048) -> tuple[TensorDef, ...]:
    defs = [TensorDef("embed.weight", (vocab, width), "F16")]
    for b in range(blocks):
        p = f"blocks.{b}."
        defs += [
            TensorDef(p + "attn.qkv.weight", (3 * width, width), "F16"),
            TensorDef(p + "attn.qkv.bias", (3 * width,), "F32"),
            TensorDef(p + "attn.proj.weight", (width, width), "F16"),
            TensorDef(p + "attn.proj.bias", (width,), "F32"),
            TensorDef(p + "mlp.fc1.weight", (4 * width, width), "F16"),
            TensorDef(p + "mlp.fc1.bias", (4 * width,), "F32"),
            TensorDef(p + "mlp.fc2.weight", (width, 4 * width), "F16"),
            TensorDef(p + "mlp.fc2.bias", (width,), "F32"),
            TensorDef(p + "ln1.weight", (width,), "F32", norm=True),
            TensorDef(p + "ln1.bias", (width,), "F32"),
            TensorDef(p + "ln2.weight", (width,), "F32", norm=True),
            TensorDef(p + "ln2.bias", (width,), "F32"),
        ]
    return _with_probe(defs)


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
# weave_ties: the ties top-k kernel is most of the time; half the tensors are
#   tie-free (F32), half tie-dense (F16); runs at 2 threads.
# weave_many: many small tensors and 8 tasks; pooling, reads, deltas and
#   per-tensor overhead dominate while the kernel is nearly free.
# sweep_dare: analyze sweep writes 10 checkpoints, draws dare masks and holds
#   every sweep member at once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weave_ties",
            index=1,
            n_tasks=4,
            tensors=_square_layers(n_f16=4),
            method="ties",
            params=(("keep_fraction", 0.2),),
            n_lambdas=15,
            pooling="avg",
            threads=2,
        ),
        Workload(
            name="weave_many",
            index=2,
            n_tasks=8,
            tensors=_transformer(),
            method="task_arithmetic",
            params=(),
            n_lambdas=10,
            pooling="magmax",
            threads=1,
        ),
        Workload(
            name="sweep_dare",
            index=3,
            n_tasks=2,
            tensors=_square_layers(n_f16=0),
            method="dare",
            params=(("drop_rate", 0.9),),
            n_lambdas=10,
            pooling=None,
            threads=None,
        ),
    )
}


def _stream(seed: int, workload: Workload, tensor: int, role: int) -> np.random.Generator:
    # role 0: pre-trained values, 1: shared delta, 2 + i: delta of task i
    return np.random.default_rng([seed, workload.index, tensor, role])


def _tensor_values(seed: int, workload: Workload, pos: int, t: TensorDef, role: int) -> np.ndarray:
    std, scale = _SCALES[t.dtype]
    if role == 0:
        values = _stream(seed, workload, pos, 0).normal(0.0, std, t.size)
        if t.norm:
            values += 1.0
        return values
    return _stream(seed, workload, pos, role).standard_t(3, t.size) * scale


def _encode(tensors: dict[str, tuple[str, tuple[int, ...], bytes]]) -> bytes:
    header: dict[str, object] = {}
    cursor = 0
    for name in sorted(tensors):
        dtype, shape, blob = tensors[name]
        header[name] = {"dtype": dtype, "shape": list(shape), "data_offsets": [cursor, cursor + len(blob)]}
        cursor += len(blob)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join([struct.pack("<Q", len(encoded)), encoded, *(tensors[n][2] for n in sorted(tensors))])


def _to_stored(values: np.ndarray, t: TensorDef) -> bytes:
    return values.astype(np.float32).astype(_NP[t.dtype]).reshape(t.shape).tobytes()


def input_names(workload: Workload) -> list[str]:
    """File names in CLI order: the pre-trained checkpoint, then the tasks."""
    return ["pretrained.safetensors"] + [f"task{i + 1}.safetensors" for i in range(workload.n_tasks)]


def generate(workload: Workload, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's checkpoints into ``out_dir``; returns them in CLI order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pre = [_tensor_values(seed, workload, pos, t, 0) for pos, t in enumerate(workload.tensors)]
    # fine-tuned = stored(pre) + shared + task, so deltas are relative to the stored base
    pre = [v.astype(np.float32).astype(_NP[t.dtype]).astype(np.float64) for v, t in zip(pre, workload.tensors)]
    shared = [_tensor_values(seed, workload, pos, t, 1) for pos, t in enumerate(workload.tensors)]
    paths = [out_dir / n for n in input_names(workload)]
    for task, path in enumerate(paths):  # task 0 is the pre-trained checkpoint
        tensors = {}
        for pos, t in enumerate(workload.tensors):
            values = pre[pos]
            if task:
                values = values + shared[pos] + _tensor_values(seed, workload, pos, t, 1 + task)
            tensors[t.name] = (t.dtype, t.shape, _to_stored(values, t))
        path.write_bytes(_encode(tensors))
    return paths
