"""Regenerate the committed checkpoint fixtures. Run from this directory."""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from tensorweave import Tensor, TensorMap, write_checkpoint

HERE = Path(__file__).parent
SHAPES = {
    "encoder.layer0.weight": (4, 3),
    "encoder.layer0.bias": (3,),
    "head.weight": (2, 3),
    "logit_scale": (),
}
# file name -> (seed, tensor stored as F16, dtype policy)
CHECKPOINTS = {
    "pretrained.safetensors": (1, None, "force_f32"),
    "task_cars.safetensors": (2, None, "force_f32"),
    "task_mnist.safetensors": (3, None, "force_f32"),
    # keep one F16 payload to exercise widening on load
    "task_half.safetensors": (4, "head.weight", "keep"),
}


def build(seed: int, half_name: str | None = None) -> TensorMap:
    rng = random.Random(seed)
    tensors = {}
    for name, shape in SHAPES.items():
        count = int(np.prod(shape, dtype=np.int64))
        values = np.array([rng.uniform(-1, 1) for _ in range(count)], dtype=np.float32)
        if name == half_name:
            values = values.astype(np.float16).astype(np.float32)
            tensors[name] = Tensor(values.reshape(shape), stored_dtype="F16")
        else:
            tensors[name] = values.reshape(shape)
    return TensorMap(tensors, metadata={"fixture": f"seed{seed}"})


def main() -> None:
    for file_name, (seed, half_name, dtype_policy) in CHECKPOINTS.items():
        write_checkpoint(build(seed, half_name), HERE / file_name, dtype_policy=dtype_policy)
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
