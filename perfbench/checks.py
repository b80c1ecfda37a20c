"""What a correct run of a workload produces, and the checks of one CLI output.

Three independent sources fix the expected output:

* the scalar oracle in ``tests/oracles.py`` gives the probe tensor bit for bit;
* the package's own in-process call at one thread (``weave(threads=1)`` or
  ``sweep_emit``) gives the SHA-256 of every output file;
* the workload definition gives the names, shapes and stored dtypes.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import tensorweave as tw

from workloads import PROBE, Workload

WEAVE_OUT = "woven.safetensors"
WEAVE_REPORT = "woven.report.json"


def load_oracles(root: Path):
    """Import ``tests/oracles.py`` from the checkout without editing it."""
    spec = importlib.util.spec_from_file_location("tensorweave_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def read_probe(path: Path) -> list[float]:
    """The probe tensor of an input file, decoded without the package reader."""
    with open(path, "rb") as handle:
        (header_len,) = struct.unpack("<Q", handle.read(8))
        entry = json.loads(handle.read(header_len))[PROBE]
        if entry["dtype"] != "F32":
            raise ValueError(f"{path}: probe tensor is {entry['dtype']}, generated as F32")
        begin, end = entry["data_offsets"]
        handle.seek(8 + header_len + begin)
        return [float(v) for v in np.frombuffer(handle.read(end - begin), dtype="<f4")]


def merge_spec(w: Workload, seed: int) -> tw.MergeSpec:
    """The spec the CLI builds from the workload's flags."""
    return tw.MergeSpec(w.method, params=dict(w.params), seed=w.cli_seed(seed))


def pool_spec(w: Workload, seed: int) -> tw.PoolSpec:
    """The pooling the CLI uses; ``avg`` stands in for the sweep, which pools nothing."""
    return tw.PoolSpec(pooling=w.pooling or "avg", seed=w.cli_seed(seed))


def sweep_file(w: Workload, lam: float) -> str:
    return f"{w.method}_lambda{round(lam, 12)!r}.safetensors"


def read_inputs(paths: list[Path]) -> tuple[tw.TensorMap, list[tw.TensorMap], list[str]]:
    return tw.read_checkpoint(paths[0]), [tw.read_checkpoint(p) for p in paths[1:]], [p.stem for p in paths[1:]]


def oracle_probes(w: Workload, seed: int, inputs: list[Path], oracles) -> dict[str, bytes]:
    """Expected float32 bytes of the probe tensor in each output checkpoint."""
    base = read_probe(inputs[0])
    tasks = [read_probe(p) for p in inputs[1:]]
    params = dict(w.params)
    if not w.is_sweep:
        woven = oracles.weave_naive(
            {PROBE: base}, [{PROBE: t} for t in tasks], w.method, params, w.cli_seed(seed),
            w.lambdas, w.pooling, include_deltas=True,
        )
        return {WEAVE_OUT: np.array(woven[PROBE], dtype=np.float32).tobytes()}
    deltas = [[float(np.float32(t[p]) - np.float32(base[p])) for p in range(len(base))] for t in tasks]
    merge = oracles.MERGES[w.method]
    out = {}
    for lam in w.lambdas:
        merged = merge(deltas, lam, seed=w.cli_seed(seed), tensor_name=PROBE,
                       task_indices=list(range(1, len(tasks) + 1)), **params)
        values = [float(np.float32(b) + np.float32(m)) for b, m in zip(base, merged)]
        out[sweep_file(w, lam)] = np.array(values, dtype=np.float32).tobytes()
    return out


@dataclass(frozen=True)
class Expected:
    files: dict[str, str]  # output file name -> SHA-256 of the in-process output
    probes: dict[str, bytes]  # checkpoint name -> oracle bytes of the probe tensor
    n_members: int


def reference(w: Workload, seed: int, inputs: list[Path], ref_dir: Path, oracles) -> Expected:
    """Run the package in-process at one thread and pin every output file."""
    shutil.rmtree(ref_dir, ignore_errors=True)
    ref_dir.mkdir(parents=True)
    pre, fts, labels = read_inputs(inputs)
    spec = merge_spec(w, seed)
    space = tw.default_search_space(w.method)
    if w.is_sweep:
        tw.sweep_emit(pre, fts, spec, space, ref_dir, labels=labels)
    else:
        final, _ = tw.weave(pre, fts, spec, space=space, pool_spec=pool_spec(w, seed), labels=labels, threads=1)
        tw.write_checkpoint(final, ref_dir / WEAVE_OUT)
    files = {p.name: sha256(p) for p in sorted(ref_dir.iterdir())}
    shutil.rmtree(ref_dir)
    return Expected(files, oracle_probes(w, seed, inputs, oracles), w.n_tasks + w.n_lambdas)


def _layout_problems(w: Workload, path: Path, loaded: tw.TensorMap) -> list[str]:
    if loaded.names != sorted(t.name for t in w.tensors):
        return [f"{path.name}: tensor names differ from the inputs"]
    problems = []
    for t in w.tensors:
        got = loaded[t.name]
        if got.shape != t.shape or got.stored_dtype != "F32":
            problems.append(f"{path.name}: {t.name} is {got.stored_dtype} {got.shape}, expected F32 {t.shape}")
    narrowed = {f"dtype.{t.name}": "F16" for t in w.tensors if t.dtype == "F16"}
    if loaded.metadata != narrowed:
        problems.append(f"{path.name}: metadata {loaded.metadata} does not record the F16 inputs")
    return problems


def check_output(w: Workload, out: Path, expected: Expected) -> tuple[list[str], dict[str, str]]:
    """Problems found in one CLI output, and the SHA-256 of each file it wrote."""
    target = out if w.is_sweep else out.parent
    names = sorted(p.name for p in target.iterdir()) if target.is_dir() else []
    wanted = sorted(expected.files) + ([] if w.is_sweep else [WEAVE_REPORT])
    if names != sorted(wanted) or not set(expected.probes) <= set(names):
        return [f"output files {names}, expected {sorted(wanted)} with {sorted(expected.probes)}"], {}
    problems, shas = [], {}
    try:
        for name, want in expected.files.items():
            path = target / name
            shas[name] = sha256(path)
            if shas[name] != want:
                problems.append(f"{name}: bytes differ from the in-process output")
            if name in expected.probes:
                loaded = tw.read_checkpoint(path)
                problems += _layout_problems(w, path, loaded)
                if loaded.array(PROBE).tobytes() != expected.probes[name]:
                    problems.append(f"{name}: probe tensor differs from the scalar oracle")
        if not w.is_sweep:
            report = json.loads((target / WEAVE_REPORT).read_text())
            if report.get("method") != w.method or report.get("n_members") != expected.n_members:
                problems.append(f"{WEAVE_REPORT}: method or member count is wrong")
    except (tw.CheckpointError, OSError, ValueError) as exc:
        problems.append(f"unreadable output: {exc}")
    return problems, shas
