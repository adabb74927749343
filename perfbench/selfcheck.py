#!/usr/bin/env python3
"""Self-check of the benchmark itself; runs in well under a minute.

    python3 perfbench/selfcheck.py

The default check runs each workload at a tiny size with ``--trace 0``
and ``--trace 1`` and requires, for every run: exit code 0, a last stdout
line that is the result object, ``correct`` true, and every metric that
BENCHMARK.json names, with its unit.  It then copies BENCHMARK.json and
perfbench/ alone into a scratch directory and requires run.py to exit
non-zero there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def check_workloads(spec: dict) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            done = run(["perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--tiny"], ROOT)
            label = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {key: value["unit"] for key, value in result["metrics"].items()}
            if got != wanted:
                missing = sorted(set(wanted) - set(got))
                extra = sorted(set(got) - set(wanted))
                wrong = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
            print(f"ok  {label}: {result['attempted']} ops", flush=True)
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's own paths: must fail fast, print no result."""
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        workload = spec["workloads"][0]["name"]
        done = run([*spec["command"][1:], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}"]
    print(f"ok  bare directory: exit {done.returncode}, {done.stderr.strip()}")
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_workloads(spec) + check_bare_directory(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
