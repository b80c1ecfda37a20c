"""Self-test of the benchmark's input generator and its refusal outside a checkout.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_inputs.py
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tensorweave as tw  # noqa: E402

from workloads import PROBE, WORKLOADS, generate, input_names  # noqa: E402

# Layouts as the workloads are specified, independent of workloads.py:
# (files, tensors including the probe, F16 tensors, elements excluding the probe)
LAYOUTS = {
    "weave_ties": (5, 9, 4, 8 * 1024 * 512),
    "weave_many": (9, 386, 129, 6_606_848),
    "sweep_dare": (3, 9, 0, 8 * 1024 * 512),
}
# Tie density only means something on tensors this large; small F16 tensors
# have few elements per distinct magnitude whatever the grid.
TIE_CHECK_MIN_ELEMENTS = 1 << 16


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def generated(request, tmp_path_factory):
    w = WORKLOADS[request.param]
    base = tmp_path_factory.mktemp(w.name)
    return w, generate(w, 7, base / "a"), generate(w, 7, base / "b"), generate(w, 8, base / "c")


def test_same_seed_same_bytes_other_seed_other_bytes(generated):
    w, first, again, other = generated
    assert [p.name for p in first] == input_names(w)
    for a, b, c in zip(first, again, other):
        assert a.read_bytes() == b.read_bytes(), a.name
        assert a.read_bytes() != c.read_bytes(), a.name


def test_layout_matches_the_workload_definition(generated):
    w, paths, _, _ = generated
    files, tensors, f16, elements = LAYOUTS[w.name]
    assert len(paths) == files
    for path in paths:
        loaded = tw.read_checkpoint(path)
        assert len(loaded) == tensors
        assert sum(t.stored_dtype == "F16" for _, t in loaded.items()) == f16
        assert loaded.total_elements() - loaded[PROBE].size == elements
        assert loaded[PROBE].stored_dtype == "F32" and 100 <= loaded[PROBE].size <= 1000


def test_magnitude_tie_density(generated):
    """F16 task vectors are tie-dense (<= 5% distinct magnitudes), F32 ones tie-free (>= 90%)."""
    w, paths, _, _ = generated
    pre = tw.read_checkpoint(paths[0])
    checked = 0
    for path in paths[1:]:
        ft = tw.read_checkpoint(path)
        for name, tensor in pre.items():
            if tensor.size < TIE_CHECK_MIN_ELEMENTS:
                continue
            distinct = np.unique(np.abs(ft.array(name) - tensor.values)).size / tensor.size
            if tensor.stored_dtype == "F16":
                assert distinct <= 0.05, (path.name, name, distinct)
            else:
                assert distinct >= 0.90, (path.name, name, distinct)
            checked += 1
    assert checked > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With only the benchmark present, it fails fast and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for source in Path(__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_dare", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
