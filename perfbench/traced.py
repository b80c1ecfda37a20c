"""The traced run: a workload rebuilt in-process from the package's public stages.

Spans are recorded here, around calls into the package; nothing inside the
package is instrumented. One rep rebuilds the CLI's output as

    read_checkpoint -> compute_deltas -> build_augmented -> pool -> add -> write_checkpoint

(for the sweep: ... -> build_augmented -> add and write per factor) and must
reproduce the CLI's bytes. A rep with tracing on then times the remaining
public calls on the same inputs, so every layer is measured on every
workload: one ``sweep_base_kernel`` call per tensor, the ``uniform01`` draws a
``dare`` merge of these task vectors needs, ``pool`` (``avg`` on the sweep,
which pools nothing itself), ``weave`` at the workload's thread count and at
one, and ``sweep_emit``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

import tensorweave as tw
from tensorweave.methods import sweep_base_kernel
from tensorweave.rng import stream_key, uniform01

from checks import WEAVE_OUT, merge_spec, pool_spec, read_inputs, sha256, sweep_file
from workloads import Workload

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    rep: int  # spans of one rep share this identifier
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Spans kept in memory; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, rep: int):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(Span(name, rep, time.perf_counter(), 0.0, self._open[-1] if self._open else -1))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def total(self, name: str, rep: int) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name and s.rep == rep)

    def count(self, name: str, rep: int) -> int:
        return sum(1 for s in self.spans if s.name == name and s.rep == rep)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def decompose(w: Workload, seed: int, inputs: list[Path], out_dir: Path, tr: Tracer, rep: int):
    """Rebuild the CLI output from public stages; returns the loaded state for later calls."""
    spec, space = merge_spec(w, seed), tw.default_search_space(w.method)
    maps = []
    for path in inputs:
        with tr.span("store.read", rep):
            maps.append(tw.read_checkpoint(path))
    pre, fts, labels = maps[0], maps[1:], [p.stem for p in inputs[1:]]
    with tr.span("vectors.deltas", rep):
        deltas = tw.compute_deltas(pre, fts, labels=labels)
    with tr.span("weave.members", rep):
        members = tw.build_augmented(deltas, tw.registry_lookup(w.method), spec, space)
    if w.is_sweep:
        for lam, member in zip(space.lambdas, members):
            with tr.span("vectors.add", rep):
                checkpoint = tw.add(pre, member)
            with tr.span("store.write", rep):
                tw.write_checkpoint(checkpoint, out_dir / sweep_file(w, lam))
    else:
        with tr.span("weave.pool", rep):
            pooled = tw.pool([tv.delta for tv in deltas] + members, pool_spec(w, seed))
        with tr.span("vectors.add", rep):
            final = tw.add(pre, pooled)
        with tr.span("store.write", rep):
            tw.write_checkpoint(final, out_dir / WEAVE_OUT)
    return pre, fts, labels, deltas, members


def layer_calls(w: Workload, seed: int, state, sweep_dir: Path, tr: Tracer, rep: int) -> None:
    """Time the public calls the decomposition does not make on its own."""
    pre, fts, labels, deltas, members = state
    spec, space, pooling = merge_spec(w, seed), tw.default_search_space(w.method), pool_spec(w, seed)
    if w.is_sweep:
        with tr.span("weave.pool", rep):
            tw.pool([tv.delta for tv in deltas] + members, pooling)
    members.clear()
    kernel = sweep_base_kernel(tw.registry_lookup(w.method))
    indices = [tv.index for tv in deltas]
    for name in pre.names:
        flats = [tv.delta.array(name).ravel() for tv in deltas]
        with tr.span("methods.kernel", rep):
            kernel(name, flats, indices, spec)
    for name in pre.names:
        for index in indices:
            with tr.span("rng.uniform", rep):
                uniform01(stream_key(spec.seed, name, lane=index), pre[name].size)
    deltas.clear()
    with tr.span("weave.total", rep):
        tw.weave(pre, fts, spec, space=space, pool_spec=pooling, labels=labels, threads=w.threads or 1)
    with tr.span("weave.total_t1", rep):
        tw.weave(pre, fts, spec, space=space, pool_spec=pooling, labels=labels, threads=1)
    with tr.span("analysis.sweep_emit", rep):
        tw.sweep_emit(pre, fts, spec, space, sweep_dir, labels=labels)


def peaks_mib(w: Workload, seed: int, inputs: list[Path], sweep_dir: Path) -> tuple[float, float]:
    """tracemalloc peaks of ``weave`` and ``sweep_emit`` above the loaded inputs."""
    pre, fts, labels = read_inputs(inputs)
    spec, space = merge_spec(w, seed), tw.default_search_space(w.method)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tw.weave(pre, fts, spec, space=space, pool_spec=pool_spec(w, seed), labels=labels, threads=w.threads or 1)
        weave_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tw.sweep_emit(pre, fts, spec, space, sweep_dir, labels=labels)
        sweep_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return weave_peak / MIB, sweep_peak / MIB


def _clean(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for path in directory.iterdir():
        path.unlink()
    return directory


def traced_run(w: Workload, seed: int, inputs: list[Path], expected, cli_walls: list[float],
               seconds: float, work: Path) -> tuple[dict[str, float] | None, dict]:
    """Per-layer metrics (None when the decomposition is stale) and the run's detail record.

    After the memory peaks, reps alternate tracing on and off until
    ``seconds`` have passed, at least one of each; times are medians over
    the reps with tracing on.
    """
    started = time.perf_counter()
    out_dir, sweep_dir = work / "traced", work / "sweep"
    weave_peak, sweep_peak = peaks_mib(w, seed, inputs, _clean(sweep_dir))
    tracer, off = Tracer(), Tracer(enabled=False)
    on_walls, off_walls, per_rep, stale = [], [], [], []
    rep = 0
    while rep < 2 or time.perf_counter() - started < seconds:
        tr = tracer if rep % 2 == 0 else off
        _clean(out_dir)
        t0 = time.perf_counter()
        state = decompose(w, seed, inputs, out_dir, tr, rep)
        (on_walls if tr.enabled else off_walls).append(time.perf_counter() - t0)
        written = {p.name: sha256(p) for p in out_dir.iterdir()}
        write_mib = sum(p.stat().st_size for p in out_dir.iterdir()) / MIB
        wanted = {name: sha for name, sha in expected.files.items() if name in expected.probes}
        if written != wanted:
            stale.append(rep)
        if tr.enabled:
            layer_calls(w, seed, state, _clean(sweep_dir), tr, rep)
            per_rep.append(_rep_metrics(tr, rep))
        del state
        rep += 1
    _clean(out_dir)
    _clean(sweep_dir)

    metrics = {key: statistics.median(r[key] for r in per_rep) for key in per_rep[0]}
    metrics["weave.thread_speedup"] = metrics["weave.total_t1_s"] / metrics["weave.total_s"]
    metrics["weave.added_peak_mib"] = weave_peak
    metrics["analysis.sweep_peak_mib"] = sweep_peak
    metrics["store.read_mib"] = sum(p.stat().st_size for p in inputs) / MIB
    metrics["store.write_mib"] = write_mib
    in_process = metrics["analysis.sweep_emit_s"] if w.is_sweep else metrics["weave.total_s"] + metrics["store.write_s"]
    metrics["cli.overhead_s"] = statistics.median(cli_walls) - metrics["store.read_s"] - in_process
    on, off_ = statistics.median(on_walls), statistics.median(off_walls)
    metrics["trace.overhead_pct"] = 100.0 * (on - off_) / off_
    stages = {k: metrics[k] for k in ("store.read_s", "vectors.deltas_s", "methods.kernel_s",
                                      "weave.pool_s", "vectors.add_s", "store.write_s")}
    detail = {
        "reps_traced": len(on_walls),
        "reps_untraced": len(off_walls),
        "decomposition_s": {"traced": on_walls, "untraced": off_walls},
        "stale_reps": stale,
        "largest_stage": max(stages, key=stages.get),
        "spans": tracer.dump(),
    }
    return (None if stale else metrics), detail


def _rep_metrics(tr: Tracer, rep: int) -> dict[str, float]:
    out = {
        f"{name}_s": tr.total(name, rep)
        for name in ("store.read", "vectors.deltas", "weave.members", "weave.pool", "vectors.add",
                     "store.write", "methods.kernel", "rng.uniform", "weave.total", "weave.total_t1",
                     "analysis.sweep_emit")
    }
    out["methods.kernel_calls"] = float(tr.count("methods.kernel", rep))
    return out
