"""Regenerate the committed checkpoint fixtures. Run from this directory."""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

import numpy as np

from tensorweave import Tensor, TensorMap

HERE = Path(__file__).parent
SHAPES = {
    "encoder.layer0.weight": (4, 3),
    "encoder.layer0.bias": (3,),
    "head.weight": (2, 3),
    "logit_scale": (),
}
# file name -> (seed, tensor stored as F16)
CHECKPOINTS = {
    "pretrained.safetensors": (1, None),
    "task_cars.safetensors": (2, None),
    "task_mnist.safetensors": (3, None),
    # one F16 payload to exercise widening on load
    "task_half.safetensors": (4, "head.weight"),
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


def write(tensor_map: TensorMap, path: Path) -> None:
    """Write each tensor in its stored dtype (the library writes only F32), laid out as the library lays out a file:
    names in order, contiguous offsets, header JSON with sorted keys and no spaces."""
    header, payload = {}, b""
    for name, tensor in tensor_map.items():
        data = tensor.values.astype({"F32": "<f4", "F16": "<f2"}[tensor.stored_dtype]).tobytes()
        header[name] = {"dtype": tensor.stored_dtype, "shape": list(tensor.shape),
                        "data_offsets": [len(payload), len(payload) + len(data)]}
        payload += data
    if tensor_map.metadata:
        header["__metadata__"] = tensor_map.metadata
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + payload)


def main() -> None:
    for file_name, (seed, half_name) in CHECKPOINTS.items():
        write(build(seed, half_name), HERE / file_name)
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
