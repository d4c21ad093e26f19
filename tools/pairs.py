"""Alternated parent/change pairs of benchmark runs, summarised for a claim.

    python3 tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N \\
        --seed S --out BENCH_<n>.json

Each tree is a source checkout with its own ``bench/``.  A pair runs the
benchmark command of ``BENCHMARK.json`` once in each tree, end to end
(``--trace 0``), for the benchmark's ``run_seconds``, with the same
workload and seed; the parent runs first in even pairs and second in odd
ones.  The runs are sequential, one process at a time.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's runs, median and quartiles, the pairs the change wins (ties count
for neither side), the difference of the medians against the parent's
interquartile range, and whether the change's median is worse than the
parent's by more than the metric's bound.  It also gives each side's failed
operations and the ``outputs_sha256`` of every run.  The summary is stored
under the workload's name in ``--out``; the entries of other workloads
already in that file are kept.  Nothing in either tree is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, command, workload, seed, seconds):
    """One end-to-end benchmark run in ``tree``: its result and details."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    started = time.time()
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"benchmark run in {tree} failed ({done.returncode}): "
                           f"{done.stderr.strip()[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"started": started, "wall_s": time.time() - started,
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "outputs_sha256": details["outputs_sha256"],
            "environment": details["environment"]}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(metric, parent_runs, change_runs):
    """The claim figures of one end-to-end metric over the pairs."""
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [run["metrics"][name] for run in parent_runs]
    change = [run["metrics"][name] for run in change_runs]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    gain = (c["median"] - p["median"]) if higher else (p["median"] - c["median"])
    iqr = p["q3"] - p["q1"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": {**p, "runs": parent}, "change": {**c, "runs": change},
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "wins": wins, "losses": losses, "pairs": len(parent),
        "gain_of_medians": gain, "parent_iqr": iqr,
        "gain_exceeds_parent_iqr": gain > iqr,
        "worse_beyond_bound": -gain > metric["bound"] * abs(p["median"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:   # the quartiles need two runs per side
        parser.error("--pairs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]
    runs = {"parent": [], "change": []}
    order = []
    for i in range(args.pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order.append(list(sides))
        for side in sides:
            tree = args.parent if side == "parent" else args.change
            run = run_once(tree.resolve(), bench["command"], args.workload,
                           args.seed, seconds)
            runs[side].append(run)
            print(f"pair {i} {side}: " + json.dumps(run["metrics"]), file=sys.stderr)

    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "pairs": args.pairs, "order": order,
        "environment": runs["change"][0]["environment"],
        "metrics": {m["name"]: summarise(m, runs["parent"], runs["change"])
                    for m in bench["end_to_end"]},
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "outputs_sha256": {side: [r["outputs_sha256"] for r in runs[side]]
                           for side in runs},
        "outputs_equal_in_every_pair": all(
            p["outputs_sha256"] == c["outputs_sha256"]
            for p, c in zip(runs["parent"], runs["change"])),
        "commits": {side: runs[side][0]["environment"]["commit"] for side in runs},
    }
    existing = {}
    if args.out.exists():
        existing = json.loads(args.out.read_text(encoding="utf-8"))
    existing[args.workload] = summary
    args.out.write_text(json.dumps(existing, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({name: {k: m[k] for k in ("wins", "pairs", "change_over_parent",
                                               "gain_exceeds_parent_iqr",
                                               "worse_beyond_bound")}
                      for name, m in summary["metrics"].items()}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
