"""Benchmark of the ``tensorweave`` CLI, from input files to verified output files.

Run from the root of a checkout:

    python3 perfbench/run.py --workload weave_ties --seed 1 --seconds 20 --trace 0

Inputs are synthesised from ``--seed`` (see workloads.py). With ``--trace 0``
the CLI runs in a fresh process per invocation, timed from exec to exit, and
every output is checked; the end-to-end metrics are reported. With
``--trace 1`` the workload is rebuilt in-process from the package's public
stages and the per-layer metrics are reported (see traced.py). The last line
of standard output is the JSON result; a detail record with every sample,
output SHA-256 and the run context goes to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import spawn
from workloads import WORKLOADS, Workload, generate, input_names

ENTRY = "from tensorweave.cli import entrypoint; entrypoint()"  # what the console script runs
SETUP = "import tensorweave, tensorweave.cli as cli; cli.build_parser()"
SETUP_PROBES_BEFORE = 3  # start-up probes before the timed loop; one more per invocation
MIN_INVOCATIONS = 3
TRACE_INVOCATIONS = 2  # timed CLI runs in a traced run, for cli.overhead_s
TIMEOUT_S = 120.0
WORK = ".perfbench-work"


def run_context() -> dict:
    """Machine and toolchain facts, from read-only sources."""
    import numpy

    def first(path: str, key: str) -> str:
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "mem_available": first("/proc/meminfo", "MemAvailable"),
        "page_cache": "warm: one untimed invocation precedes timing; caches are never dropped",
    }


class Session:
    """One workload's inputs, expected outputs and CLI invocations in a checkout."""

    def __init__(self, root: Path, w: Workload, seed: int, oracles) -> None:
        import checks

        self.w, self.seed = w, seed
        self.work = root / WORK / f"{w.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.in_dir, self.out_dir = self.work / "in", self.work / "out"
        started = time.perf_counter()
        self.inputs = generate(w, seed, self.in_dir)
        self.generate_s = time.perf_counter() - started
        self.expected = checks.reference(w, seed, self.inputs, self.work / "ref", oracles)
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.log = self.work / "process.log"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.shas: dict[str, str] = {}

    def setup_probe(self) -> float:
        result = spawn.run([sys.executable, "-c", SETUP], self.env, self.log, TIMEOUT_S)
        if result.code != 0:
            raise RuntimeError(f"start-up probe exited {result.code}: {result.output}")
        return result.wall_s

    def invoke(self) -> spawn.Exit:
        """One verified CLI invocation; outputs are deleted once checked."""
        import checks

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        out = self.out_dir / ("sweep" if self.w.is_sweep else checks.WEAVE_OUT)
        argv = [sys.executable, "-c", ENTRY, *self.w.cli_args(self.seed, self.inputs, out)]
        result = spawn.run(argv, self.env, self.log, TIMEOUT_S)
        self.attempted += 1
        problems = [] if result.code == 0 else [f"exit {result.code}: {result.output}"]
        if result.code == 0:
            found, shas = checks.check_output(self.w, out, self.expected)
            problems += found
            self.shas = self.shas or shas
        leftovers = sorted(set(os.listdir(self.in_dir)) - set(input_names(self.w)))
        if leftovers:
            problems.append(f"program wrote into the input directory: {leftovers}")
            for name in leftovers:
                shutil.rmtree(self.in_dir / name, ignore_errors=True)
                (self.in_dir / name).unlink(missing_ok=True)
        if problems:
            self.failed += 1
            self.problems += problems
        shutil.rmtree(self.out_dir)
        return result


def timed_run(s: Session, seconds: float) -> tuple[dict, dict]:
    setup = [s.setup_probe() for _ in range(SETUP_PROBES_BEFORE)]
    s.invoke()  # untimed: warms the page cache and the bytecode cache
    walls, rss = [], []
    started = time.perf_counter()
    while len(walls) < MIN_INVOCATIONS or time.perf_counter() - started < seconds:
        setup.append(s.setup_probe())
        result = s.invoke()
        walls.append(result.wall_s)
        rss.append(result.peak_rss_mib)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_frac": ((s.attempted - s.failed) / s.attempted, "ratio"),
    }
    detail = {"wall_s": walls, "peak_rss_mib": rss, "setup_s": setup, "wall_samples": len(walls),
              "failed_frac": s.failed / s.attempted}
    return metrics, detail


def traced(s: Session, seconds: float) -> tuple[dict | None, dict]:
    import traced as tracing

    started = time.perf_counter()
    s.invoke()  # untimed warm-up, as in the timed run
    walls = [s.invoke().wall_s for _ in range(TRACE_INVOCATIONS)]
    remaining = seconds - (time.perf_counter() - started)
    layers, detail = tracing.traced_run(s.w, s.seed, s.inputs, s.expected, walls, remaining, s.work)
    detail["cli_wall_s"] = walls
    if layers is None:
        return None, detail
    units = {"methods.kernel_calls": "count", "weave.thread_speedup": "x", "trace.overhead_pct": "%"}
    return {k: (v, units.get(k, "MiB" if k.endswith("_mib") else "s")) for k, v in layers.items()}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tensorweave" / "__init__.py").is_file() or not (root / "tests" / "oracles.py").is_file():
        print("error: run from the root of a tensorweave checkout (needs src/tensorweave and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import checks

    w = WORKLOADS[args.workload]
    session = Session(root, w, args.seed, checks.load_oracles(root))
    if args.trace:
        metrics, detail = traced(session, args.seconds)
    else:
        metrics, detail = timed_run(session, args.seconds)
    shutil.rmtree(session.work)

    correct = session.failed == 0 and metrics is not None
    published = {k: {"value": v, "unit": u} for k, (v, u) in (metrics or {}).items()}
    record = {
        "workload": w.name, "seed": args.seed, "cli_seed": w.cli_seed(args.seed), "trace": args.trace,
        "seconds": args.seconds, "cli": ["tensorweave", *w.cli_args(args.seed, input_names(w), "OUT")],
        "generate_s": session.generate_s, "attempted": session.attempted, "failed": session.failed,
        "problems": session.problems[:20], "output_sha256": session.shas, "expected_sha256": session.expected.files,
        "metrics": published, "detail": detail, "context": run_context(),
    }
    results = root / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in dict.fromkeys(session.problems[:20]):
        print(f"FAILED: {problem}")
    if metrics is None:
        print(f"STALE: the traced decomposition did not reproduce the CLI bytes (reps {detail['stale_reps']}); "
              "per-layer numbers withheld")
    for name, (value, unit) in (metrics or {}).items():
        print(f"{name:24s} {value:12.6f} {unit}")
    if "wall_samples" in detail:
        print(f"samples: wall_s {detail['wall_samples']}, setup_s {len(detail['setup_s'])}; "
              f"failed_frac {detail['failed_frac']}")
    for name, sha in session.shas.items():
        print(f"sha256 {sha}  {name}")
    print(f"record: {record_path.relative_to(root)}")
    print(json.dumps({"correct": correct, "attempted": session.attempted, "failed": session.failed,
                      "metrics": published}))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
