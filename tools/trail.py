"""The speed trail: paired perfbench runs of a parent and a change checkout, summarized in one JSON file.

Each checkout runs its own, unedited ``perfbench/run.py`` (``--trace 0``) on every workload, the two
alternating and taking turns to go first, ten times per workload, each run as long as the benchmark's
``run_seconds``; the workloads, and which metrics are better higher, are ``BENCHMARK.json``'s too. Per
workload and end-to-end metric the file holds each side's samples (one per run) with their median and
quartiles, the per-pair ratios (change over parent) with their median, and the pairs the change wins; per
workload also both sides' output SHA-256s and whether every run was correct. The run context is perfbench's
own (CPU, caches, Python, numpy, memory), plus a digest of each side's package source. Standard library only;
from the root of this repository:

    python3 tools/trail.py PARENT_CHECKOUT CHANGE_CHECKOUT --seed 4242 --out BENCH_prN.json

Results are keyed by seed, so a second seed goes into the same file; a seed already there is replaced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest pairs that can support a claim of a gain
_BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
RUN_SECONDS = _BENCHMARK["run_seconds"]
HIGHER_IS_BETTER = {metric["name"] for metric in _BENCHMARK["end_to_end"] if metric["better"] == "higher"}


def summarize(parent: list[float], change: list[float], higher_is_better: bool = False) -> dict:
    """Paired samples of one metric: each side's samples, median and quartiles, the ratios change over parent
    with their median, and the pairs the change wins, a tie winning for neither."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError(f"need two or more pairs of samples, got {len(parent)} and {len(change)}")
    ratios = [c / p if p else None for p, c in zip(parent, change)]
    known = [r for r in ratios if r is not None]
    return {
        "parent": _side(parent),
        "change": _side(change),
        "ratios": ratios,
        "median_ratio": statistics.median(known) if known else None,
        "change_wins": sum((c > p) if higher_is_better else (c < p) for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def _side(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": median, "q1": q1, "q3": q3}


def source_digest(checkout: Path) -> str:
    """SHA-256 over the package's source files, in path order: which code a side ran."""
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "tensorweave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run of ``workload`` in ``checkout``; its detail record."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"], cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    record = checkout / ".perfbench-work" / "results" / f"BENCH_{workload}_seed{seed}_trace0.json"
    return json.loads(record.read_text())


def trail(parent: Path, change: Path, seed: int) -> dict:
    """Every workload's paired runs, summarized, with the run context."""
    workloads, context = {}, None
    for workload in WORKLOADS:
        runs = {"parent": [], "change": []}
        for pair in range(PAIRS):
            sides = [("parent", parent), ("change", change)]
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                runs[side].append(bench(checkout, workload, seed, RUN_SECONDS))
        context = context or runs["parent"][0]["context"]
        metrics = runs["parent"][0]["metrics"]

        def samples(side: str, name: str) -> list[float]:
            return [r["metrics"][name]["value"] for r in runs[side]]
        workloads[workload] = {
            "metrics": {name: summarize(samples("parent", name), samples("change", name), name in HIGHER_IS_BETTER)
                        for name in metrics},
            "units": {name: value["unit"] for name, value in metrics.items()},
            "output_sha256": {side: runs[side][0]["output_sha256"] for side in runs},
            "all_correct": all(r["failed"] == 0 and r["output_sha256"] == runs[side][0]["output_sha256"]
                               for side in runs for r in runs[side]),
        }
        wall = workloads[workload]["metrics"]["wall_s"]
        print(f"{workload}: wall_s median ratio {wall['median_ratio']:.3f}, change wins {wall['change_wins']}/{PAIRS}",
              file=sys.stderr)
    return {"seed": seed, "pairs": PAIRS, "seconds": RUN_SECONDS, "workloads": workloads, "context": context,
            "source_sha256": {"parent": source_digest(parent), "change": source_digest(change)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent's checkout")
    parser.add_argument("change", type=Path, help="the change's checkout")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the trail file; other seeds in it are kept")
    args = parser.parse_args(argv)
    data = json.loads(args.out.read_text()) if args.out.exists() else {"seeds": {}}
    data["seeds"][str(args.seed)] = trail(args.parent.resolve(), args.change.resolve(), args.seed)
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
