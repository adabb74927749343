#!/usr/bin/env python3
"""Compare two checkouts on one workload, in alternating pairs of runs.

    python3 perfbench/compare.py --parent ../parent --change . --workload audit --pairs 10

Both directories must hold the same ``perfbench/`` (copy this one into
the parent checkout first) and their own ``src/``.  Pair i runs both
sides with seed ``--first-seed + i``; the side that goes first alternates.
For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the share of pairs the change won, and a verdict:

* ``gain``: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's own interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound;
* ``same``: otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        if "_work" not in path.parts and "results" not in path.parts:
            h.update(path.read_bytes())
    return h.hexdigest()


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{root}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"warning: {root} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
    return {name: value["value"] for name, value in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len({digest(root / "perfbench") for root in sides.values()}) != 1:
        raise SystemExit("the two checkouts hold different perfbench/ code")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(sides[side], args.workload, args.first_seed + i,
                                       spec["run_seconds"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{'metric':14s} {'parent median [q1, q3]':36s} {'change median [q1, q3]':36s} "
          f"{'won':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4)
        c_q1, c_med, c_q3 = statistics.quantiles(change, n=4)
        worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
        if p_med and (p_q3 - p_q1) / p_med > metric["bound"]:
            verdict = "unresolved"
        elif wins >= 0.9 * args.pairs and abs(c_med - p_med) > p_q3 - p_q1:
            verdict = "gain"
        elif worse_by > metric["bound"]:
            verdict = "worse"
        else:
            verdict = "same"
        parent_text = f"{p_med:.6g} [{p_q1:.4g}, {p_q3:.4g}]"
        change_text = f"{c_med:.6g} [{c_q1:.4g}, {c_q3:.4g}]"
        print(f"{name:14s} {parent_text:36s} {change_text:36s} {wins:>3d}/{args.pairs:<2d}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
