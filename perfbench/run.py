#!/usr/bin/env python3
"""Run one benchmark workload against this checkout's ``src/maxrand``.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop: each op is one in-process CLI
call, ``maxrand.cli.main(args, standalone_mode=False)`` with stdout
captured, and the next op starts when the previous one returns.  Library
caches live for the whole phase, as in a script that calls the CLI
repeatedly.  Ops come in decks (see ``workloads.py``); a phase stops at
the first deck boundary after ``--seconds`` of op time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
decks twice from cold caches, first untraced and then traced, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object; the full result, with provenance and input
properties, is written to ``perfbench/results/``.

Exit code 2 means maxrand does not resolve to this checkout's ``src/``;
3 means ``--trace 1`` cannot find a function the tracer wraps.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

# One client, one thread: numpy's BLAS would otherwise start a thread per
# core for dot products, which only adds contention on a small machine.
# Set before numpy is imported, here and in the set-up subprocesses.
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(SINGLE_THREAD_ENV)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import MissingTargets, Tracer  # noqa: E402

# Names and units of every metric, as BENCHMARK.json declares them.
UNITS = {metric["name"]: metric["unit"]
         for group in ("end_to_end", "per_layer")
         for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[group]}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_SAMPLES = 10
# A phase that runs far past its budget stops mid-deck, so a run ends in time.
WALL_LIMIT_S = 120.0

SETUP_CODE = r"""
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import click
t2 = time.perf_counter()
import maxrand.cli
t3 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "click": t2 - t1, "maxrand": t3 - t2,
                  "file": maxrand.__file__}))
"""


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def load_program() -> dict:
    """Import maxrand from this checkout's src/, and nothing else."""
    if not (SRC / "maxrand" / "__init__.py").is_file():
        raise BenchError(f"no maxrand package under {SRC}")
    sys.path.insert(0, str(SRC))
    import maxrand
    import maxrand.audit
    import maxrand.cli
    import maxrand.dist
    import maxrand.oracle
    import maxrand.orderstat

    resolved = Path(maxrand.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise BenchError(f"maxrand resolves to {resolved}, not to this checkout's src/")
    return {"package": maxrand, "cli": maxrand.cli, "audit": maxrand.audit,
            "dist": maxrand.dist, "oracle": maxrand.oracle, "orderstat": maxrand.orderstat}


class SetupTimer:
    """Fresh-process import times of numpy, click and maxrand.cli.

    Samples are taken at the start and then once after each deck, so the
    median covers the same stretch of time as the other metrics.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.samples: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._sample()  # the first import also writes bytecode caches; discard it
        self.samples.clear()
        self.sample()
        self.sample()

    def _sample(self) -> None:
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise BenchError(f"importing maxrand.cli failed:\n{done.stderr}")
        sample = json.loads(done.stdout.splitlines()[-1])
        if SRC.resolve() not in Path(sample["file"]).resolve().parents:
            raise BenchError(f"fresh process imported maxrand from {sample['file']}")
        sample["total"] = sample["numpy"] + sample["click"] + sample["maxrand"]
        self.samples.append(sample)

    def sample(self) -> None:
        if len(self.samples) < self.limit:
            self._sample()

    def medians(self) -> dict:
        return {key: statistics.median(s[key] for s in self.samples)
                for key in ("numpy", "click", "maxrand", "total")}


def clear_caches(program: dict) -> None:
    """Empty every functools cache in the package, so each phase starts cold."""
    for name in ("dist", "orderstat", "oracle", "audit", "cli"):
        for value in vars(program[name]).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Phase:
    """Runs decks of ops, timing each call; keeps one copy of each distinct output."""

    def __init__(self, program: dict, tracer=None):
        self.main = program["cli"].main
        self.tracer = tracer
        self.latencies_ns: list[int] = []
        self.items = 0
        self.instances: list[tuple] = []  # (op, digest, exit code)
        self.first: dict[str, tuple] = {}  # key -> (op, digest, stdout)
        self.output_bytes = 0
        self.stderr_samples: list[str] = []
        self.truncated = False
        self.decks = 0
        self.deck_rates: list[float] = []

    def call(self, op: workloads.Op) -> tuple[int, int | str, str]:
        out, err = io.StringIO(), io.StringIO()
        span = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer is not None:
                span = self.tracer.open("cli", op.args[0])
            start = time.perf_counter_ns()
            try:
                self.main(list(op.args), standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
            if span is not None:
                self.tracer.close(span)
        if err.getvalue() and len(self.stderr_samples) < 5:
            self.stderr_samples.append(f"{op.key}: {err.getvalue()[:500]}")
        return elapsed, code, out.getvalue()

    def record(self, op: workloads.Op, code, text: str) -> None:
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.output_bytes += len(text.encode())
        self.instances.append((op, digest, code))
        self.first.setdefault(op.key, (op, digest, text))

    def run(self, workload: workloads.Workload, budget_s: float | None, decks: int | None,
            between=None) -> None:
        wall_start = time.perf_counter()
        while True:
            deck_ns = deck_items = 0
            for op in workload.deck(self.decks):
                elapsed, code, text = self.call(op)
                deck_ns += elapsed
                deck_items += op.items
                self.latencies_ns.append(elapsed)
                self.items += op.items
                self.record(op, code, text)
                if time.perf_counter() - wall_start > WALL_LIMIT_S:
                    self.truncated = True
                    return
            self.deck_rates.append(deck_items / (deck_ns / 1e9))
            self.decks += 1
            if between is not None:
                between()
            if self.decks >= decks if decks is not None else self.busy_s >= budget_s:
                return

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_ns) / 1e9

    @property
    def items_per_s(self) -> float:
        """Median over decks of items per second of op time.

        One slow spell on a shared machine moves one deck, not the result.
        """
        return statistics.median(self.deck_rates or [self.items / self.busy_s])


def verify(phase: Phase, checker: checks.Checker) -> dict[str, list[str]]:
    """Problems per op key: failed exits, output checks, and differing repeats."""
    problems: dict[str, list[str]] = {}
    for key, (op, digest, text) in phase.first.items():
        found = []
        if op.kind == "grid":
            found = checker.grid(text, op.check)
        elif op.kind in ("baseline", "pvalue", "threshold"):
            found = checker.single(op.kind, text, op.check)
        elif op.kind == "simulate":
            found = checker.simulate(text, op.check)
        elif op.kind == "audit":
            found = checker.audit(text, op.check["format"], op.check)
        elif op.kind == "curve":
            found = checker.curve(text, op.check)
        if found:
            problems[key] = found
    for op, digest, code in phase.instances:
        if code != 0:
            problems.setdefault(op.key, []).append(f"exit {code}")
        if digest != phase.first[op.key][1]:
            problems.setdefault(op.key, []).append("a repeat printed different bytes")
    return problems


def reference_errors(phase: Phase, workload: workloads.Workload) -> tuple[dict, list[str]]:
    """Relative error of each checked value in the fixed check set against mpmath.

    Only an op that exits non-zero or prints no parsable result fails;
    how far its values are from the reference is measured.
    """
    reference = checks.MpReference()
    errors, problems = {}, []
    for op in workload.check_ops:
        _, code, text = phase.call(op)
        try:
            rows = [json.loads(line) for line in text.splitlines()]
        except json.JSONDecodeError:
            rows = []
        if code != 0 or not rows:
            problems.append(f"{op.key}: exit {code}")
            continue
        if op.args[0] == "audit":
            verdicts = [row for row in rows if row["kind"] == "verdict"]
            pairs = [(f"audit(n={n}, m={m}, t={t}, k={k})", row,
                      reference.values(n, m, workloads.REFERENCE_LABELS, t, k))
                     for row, (n, m, t, k) in zip(verdicts, op.check["cells"])]
        else:
            c = op.check
            pairs = [(f"{op.args[0]}(n={c['n']}, m={c['m']}, t={c['t']})", rows[0],
                      reference.values(c["n"], c["m"], workloads.REFERENCE_LABELS, c["t"]))]
        for where, printed, ref in pairs:
            for field, error in checks.relative_errors(printed, ref, op.check["fields"]).items():
                errors[f"{where}.{field}"] = error
    return errors, problems


# A binomial build whose pmf mass misses 1 by more than 1e-9 stops at an
# assert in maxrand.dist._finalize.  About a quarter of n in [9.4e5, 10^6]
# do, inside the documented range (n <= 10^6); the closed_form grid of n
# misses them.  A traced run builds this fixed set of n outside the timed
# region and reports how many fail as dist.large_n_failures, so a change
# that fixes or widens the crash moves a reported number.
LARGE_N_PROBES = tuple(940_000 + 4_000 * i for i in range(16))


def probe_large_n(phase: Phase, tiny: bool) -> dict[int, int | str]:
    """Exit code of ``baseline --n N --m 2 --t 1`` for each probe n."""
    outcomes = {}
    for n in LARGE_N_PROBES[:2] if tiny else LARGE_N_PROBES:
        op = workloads.Op(key=f"probe:{n}", kind="probe", items=0,
                          args=("baseline", "--n", str(n), "--m", "2", "--t", "1"))
        outcomes[n] = phase.call(op)[1]
    return outcomes


def beta_route_summary(checker: checks.Checker) -> dict:
    if not checker.beta_errors:
        return {"cells": 0, "max_rel_err": None, "worst": None}
    error, where = max(checker.beta_errors)
    return {"cells": len(checker.beta_errors), "max_rel_err": error, "worst": where}


def tail_latency(latencies_ms: list[float], highest: float) -> tuple[float, float]:
    """Latency at ``highest`` percent (nearest rank), or lower if fewer than 10 ops lie beyond.

    Each workload fixes its percentile, so the reading does not jump
    between percentiles as the op count of a run moves.
    """
    ordered = sorted(latencies_ms)
    count = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = max(1, math.ceil(percentile / 100.0 * count))
        if percentile <= highest and count - rank >= 10:
            return ordered[rank - 1], percentile
    return ordered[-1], 100.0


def provenance(program: dict, seed: int) -> dict:
    from importlib import metadata

    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": click_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "maxrand_file": str(Path(program["package"].__file__).resolve()),
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check (selfcheck.py)")
    args = parser.parse_args(argv)
    try:
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except MissingTargets as exc:
        print(f"perfbench: the tracer cannot find {exc}; update perfbench/tracing.py",
              file=sys.stderr)
        return 3


def measure(args: argparse.Namespace) -> int:
    program = load_program()
    setup_timer = SetupTimer(3 if args.tiny else SETUP_SAMPLES)
    (HERE / "_work").mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    checker = checks.Checker(program["dist"].binomial_cdf_beta)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir), args.tiny)
        if args.trace:
            decks = max(1, round(args.seconds / 2 / workload.deck_seconds))
            clear_caches(program)
            untraced = Phase(program)
            untraced.run(workload, None, decks, setup_timer.sample)
            clear_caches(program)
            tracer = Tracer(program)
            phase = Phase(program, tracer)
            tracer.install()
            try:
                phase.run(workload, None, decks)
            finally:
                tracer.uninstall()
                phase.tracer = None
        else:
            clear_caches(program)
            phase = Phase(program)
            phase.run(workload, args.seconds, None, setup_timer.sample)
        output_bytes = phase.output_bytes
        problems = verify(phase, checker)
        # One op repeated after the timed loop must print the same bytes.
        cheapest = sorted(zip(phase.latencies_ns, range(len(phase.instances))))[:3]
        for _, i in cheapest:
            op = phase.instances[i][0]
            _, code, text = phase.call(op)
            phase.record(op, code, text)
            if hashlib.sha256(text.encode()).hexdigest() != phase.first[op.key][1]:
                problems.setdefault(op.key, []).append("a repeat printed different bytes")
        setup = setup_timer.medians()
        rel_errors, ref_problems = reference_errors(phase, workload)
        probes = probe_large_n(phase, args.tiny) if args.trace else {}
    with contextlib.suppress(OSError):
        (HERE / "_work").rmdir()

    attempted = len(phase.instances) + len(workload.check_ops)
    failed = sum(1 for op, _, _ in phase.instances if op.key in problems) + len(ref_problems)
    latencies_ms = [ns / 1e6 for ns in phase.latencies_ns]
    tail_ms, tail_percentile = tail_latency(latencies_ms, workload.tail_percentile)
    items_per_s = phase.items_per_s
    end_to_end = {
        "setup_s": setup["total"],
        "items_per_s": items_per_s,
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_rel_err": max(rel_errors.values()) if rel_errors else float("nan"),
    }
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops": len(latencies_ms),
        "decks": phase.decks,
        "truncated": phase.truncated,
        "busy_s": phase.busy_s,
        "deck_items_per_s": phase.deck_rates,
        "items": phase.items,
        "tail_percentile": tail_percentile,
        "ops_beyond_tail": sum(1 for v in latencies_ms if v > tail_ms),
        "error_rate": failed / attempted,
        "setup_samples": len(setup_timer.samples),
        "unchecked_cells": checker.unchecked,
        "reference_rel_err": rel_errors,
        "beta_route": beta_route_summary(checker),
        "large_n_probes": probes,
        "inputs": workload.properties,
        "provenance": provenance(program, args.seed),
        "problems": {key: found[:3] for key, found in list(problems.items())[:20]},
        "reference_problems": ref_problems,
        "stderr": phase.stderr_samples,
    }
    if args.trace:
        layers, consistency = tracer.layer_metrics()
        untraced_ips = untraced.items_per_s
        metrics = {
            "setup.numpy_s": setup["numpy"],
            "setup.click_s": setup["click"],
            "setup.maxrand_s": setup["maxrand"],
            **layers,
            "dist.large_n_failures": sum(1 for code in probes.values() if code != 0),
            "cli.output_bytes": output_bytes,
            "trace.items_per_s_untraced": untraced_ips,
            "trace.items_per_s_traced": items_per_s,
            "trace.overhead_ratio": 1.0 - items_per_s / untraced_ips,
            "trace.spans": len(tracer.spans),
        }
        result["trace_consistency"] = consistency
        result["end_to_end_traced_phase"] = end_to_end
        tracer.write(RESULTS / f"spans-{args.workload}.jsonl")
    else:
        metrics = end_to_end
    result["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in metrics.items()}
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:36s} {value:>16.6g} {UNITS[name]}")
    print(f"{args.workload:12s} {'tail percentile':36s} {tail_percentile:>16g} "
          f"(of {len(latencies_ms)} ops)")
    print(f"{args.workload:12s} {'error_rate':36s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    beta = result["beta_route"]
    if beta["cells"]:
        print(f"{args.workload:12s} {'beta-route max rel err (diagnostic)':36s} "
              f"{beta['max_rel_err']:>16.6g} ratio (at {beta['worst']}, {beta['cells']} values)")
    if any(code != 0 for code in probes.values()):
        failing = [n for n, code in probes.items() if code != 0]
        print(f"known defect: baseline --m 2 fails for n in {failing}", file=sys.stderr)
    for key, found in list(problems.items())[:5]:
        print(f"problem {key}: {found[0]}", file=sys.stderr)
    for found in ref_problems[:5]:
        print(f"problem {found}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
