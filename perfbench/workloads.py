"""Seeded input generators for the three benchmark workloads.

A workload hands out its ops in *decks*.  Each op is one CLI call (its
argv, the number of items it works on, and what its output check needs).
The runner plays deck after deck until the time budget is spent, stopping
only at a deck boundary, so every run measures whole decks with the same
mix of cheap and expensive ops.

Costs are kept independent of the seed.  Where an input property is
"log-uniform", values are drawn one per equal-width log stratum; Zipf
frequencies are exact quotas; and ops are dealt into decks by estimated
cost.  The seed moves values within their strata and changes the order
of ops, label counts, accuracies and significance levels, never the
shape of the mix.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

@dataclass(frozen=True)
class Op:
    """One CLI call.  ``key`` names it for the repeated-bytes check."""

    key: str
    args: tuple[str, ...]
    items: int
    kind: str
    check: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Workload:
    deck: Callable[[int], list[Op]]  # deck index -> ops
    properties: dict
    check_ops: list[Op]
    deck_seconds: float  # nominal cost of one deck, sizes the traced phase
    # op_tail_ms is read at this percentile, which leaves at least 10 ops
    # beyond it at the op count a run of this workload makes.
    tail_percentile: float


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One log-uniform draw from each of ``count`` equal log-width strata of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    width = (b - a) / count
    return [math.exp(a + width * (i + rng.random())) for i in range(count)]


def _fmt_accuracy(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# audit: a results corpus split into per-paper files


@dataclass(frozen=True)
class _Task:
    name: str
    n: int
    labels: object  # int m, or a tuple of per-example label counts

    @property
    def per_example(self) -> bool:
        return not isinstance(self.labels, int)

    def p_mean_sd(self) -> tuple[float, float]:
        if self.per_example:
            ps = [1.0 / c for c in self.labels]
            return sum(ps) / self.n, math.sqrt(sum(p * (1 - p) for p in ps)) / self.n
        p = 1.0 / self.labels
        return p, math.sqrt(p * (1 - p) / self.n)


def _make_tasks(rng: random.Random, count: int, per_example_share: float) -> list[_Task]:
    """Tasks in Zipf rank order (most frequent first).

    n is stratified log-uniform, and which n lands at which rank follows a
    permutation fixed for all seeds, so the hot tasks cost the same under
    every seed.  Per-example tasks are every (1 / share)-th n in size order.
    """
    ns = sorted(round(v) for v in _strata(rng, 20, 20_000, count))
    n_per_example = round(count * per_example_share)
    step = count / n_per_example
    per_example = {int(i * step + step / 2) for i in range(n_per_example)}
    ranks = list(range(count))
    random.Random("audit-task-ranks").shuffle(ranks)
    tasks = [None] * count
    for i, n in enumerate(ns):
        if i in per_example:
            labels = tuple(rng.randint(2, 10) for _ in range(n))
        else:
            labels = rng.randint(2, 10)
        tasks[ranks[i]] = _Task(name=f"task{ranks[i]:03d}", n=n, labels=labels)
    return tasks


def _draw_count(rng: random.Random, task: _Task, t: int) -> int:
    """A plausible best-of-t correct count: chance level up to a few SD above the max baseline."""
    p, sd = task.p_mean_sd()
    z = rng.uniform(-1.0, math.sqrt(2.0 * math.log(t + 1.0)) + 3.0)
    return min(task.n, max(0, round(task.n * (p + z * sd))))


def _record(rng: random.Random, rid: str, model: str, task: _Task, t: int, per_prompt: bool) -> dict:
    if per_prompt:
        p, sd = task.p_mean_sd()
        skill = rng.uniform(0.0, 3.0)
        counts = [
            min(task.n, max(0, round(task.n * (p + (skill + rng.gauss(0.0, 1.0)) * sd))))
            for _ in range(t)
        ]
        best = max(counts)
    else:
        counts = None
        best = _draw_count(rng, task, t)
    heldout_n = task.n
    p, sd = task.p_mean_sd()
    heldout = min(heldout_n, max(0, round(heldout_n * (p + rng.uniform(-2.0, 4.0) * sd))))
    row = {
        "id": rid,
        "model": model,
        "dataset": task.name,
        "n": task.n,
        "labels": task.labels if not task.per_example else list(task.labels),
        "t": t,
        "observed_max_accuracy": best / task.n,
        "heldout_accuracy": heldout / heldout_n,
        "heldout_n": heldout_n,
    }
    if counts is not None:
        row["per_prompt_accuracies"] = [c / task.n for c in counts]
    return row


def _write_csv(path: Path, rows: list[dict]) -> None:
    header = ["id", "model", "dataset", "n", "labels", "t", "observed_max_accuracy",
              "heldout_accuracy", "heldout_n"]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            values = dict(row)
            if isinstance(values["labels"], list):
                values["labels"] = ";".join(str(c) for c in values["labels"])
            values["observed_max_accuracy"] = _fmt_accuracy(values["observed_max_accuracy"])
            values["heldout_accuracy"] = _fmt_accuracy(values["heldout_accuracy"])
            writer.writerow([values[key] for key in header])


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


_AUDIT_DECKS = 4


def _task_cost(task: _Task) -> int:
    """Rough build cost: the Poisson-binomial program is O(n^2), the binomial O(n)."""
    return task.n ** 2 if task.per_example else 50 * task.n


def _quotas(weights: list[float], total: int) -> list[int]:
    """Largest-remainder rounding of ``total * weights``: Zipf counts without sampling noise."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _deal(items: list, hands: int, cost) -> list[list]:
    """Deal items, most expensive first, back and forth: every hand gets the same mix."""
    ordered = sorted(items, key=cost, reverse=True)
    dealt: list[list] = [[] for _ in range(hands)]
    for i, item in enumerate(ordered):
        turn, seat = divmod(i, hands)
        dealt[seat if turn % 2 == 0 else hands - 1 - seat].append(item)
    return dealt


def audit_workload(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Per-paper result files audited with ``--eval-heldout``, plus ``curve`` shards.

    Tasks repeat with Zipf frequency: exact quotas proportional to
    1 / rank, Zipf's law with exponent 1.  ``t`` is stratified log-uniform
    over [1, 10^4], one draw per record.  Records are dealt to papers by
    cost, so every paper file carries the same mix of cheap and expensive
    records.
    """
    rng = random.Random(f"audit:{seed}")
    n_tasks, n_papers, per_paper = (40, 8, 10) if tiny else (400, 64, 32)
    tasks = _make_tasks(rng, n_tasks, per_example_share=0.15)
    quotas = _quotas([1.0 / (rank + 1) for rank in range(n_tasks)], n_papers * per_paper)
    ts = [max(1, round(v)) for v in _strata(rng, 1, 10_000, n_papers * per_paper)]
    rng.shuffle(ts)
    drawn = [(task, ts.pop()) for task, quota in zip(tasks, quotas) for _ in range(quota)]
    models = [f"model{i:02d}" for i in range(12)]
    rng.shuffle(drawn)
    papers = _deal(drawn, n_papers, lambda pair: _task_cost(pair[0]))
    # Curve shards: each t of a record is a separate spec, so a shard's cost
    # is 200 builds per record.  Keep the mix fixed: uniform tasks with
    # n <= 1000 in two halves by n, and a small per-example task in every
    # fourth shard.
    curve_tasks = sorted((task for task in tasks if task.n <= 1000 and not task.per_example),
                         key=lambda task: task.n)
    small_per_example = [task for task in tasks if task.per_example and task.n <= 200]
    half = len(curve_tasks) // 2
    ops: list[Op] = []
    all_rows: list[dict] = []
    for paper, pairs in enumerate(papers):
        rng.shuffle(pairs)
        paper_models = rng.sample(models, 3)
        rows = [_record(rng, f"p{paper:03d}r{j:02d}", rng.choice(paper_models), task, t, False)
                for j, (task, t) in enumerate(pairs)]
        jsonl = paper % 2 == 1
        path = workdir / (f"paper{paper:03d}" + (".jsonl" if jsonl else ".csv"))
        (_write_jsonl if jsonl else _write_csv)(path, rows)
        fmt = "json" if (paper // 2) % 2 else "csv"
        ops.append(Op(key=f"audit:{path.name}:{fmt}",
                      args=("audit", str(path), "--eval-heldout", "--format", fmt),
                      items=len(rows), kind="audit",
                      check={"records": len(rows), "format": fmt,
                             "cost": sum(_task_cost(task) for task, _ in pairs)}))
        all_rows += rows
        if paper % 4 == 3:
            # A shard of per-prompt results from the same paper, for `curve`:
            # one smaller and one larger task, each with 10 to 200 prompts.
            shard_rows = [
                _record(rng, f"p{paper:03d}c{j}", rng.choice(paper_models), task,
                        rng.randint(10, 200), True)
                for j, task in enumerate((
                    rng.choice(small_per_example if paper % 16 == 3 else curve_tasks[:half]),
                    rng.choice(curve_tasks[half:])))
            ]
            shard = workdir / f"paper{paper:03d}.prompts.jsonl"
            _write_jsonl(shard, shard_rows)
            ops.append(Op(key=f"curve:{shard.name}",
                          args=("curve", str(shard), "--t", "1:200", "--format", "csv"),
                          items=len(shard_rows), kind="curve",
                          check={"records": len(shard_rows), "ts": 200,
                                 "per_prompt": {r["id"]: r["per_prompt_accuracies"]
                                                for r in shard_rows},
                                 "cost": 0}))
            all_rows += shard_rows
    decks = _deal(ops, _AUDIT_DECKS, lambda op: (op.kind == "curve", op.check["cost"]))
    for deck in decks:
        rng.shuffle(deck)
    specs = {(r["dataset"], r["t"]) for r in all_rows}
    ts = [r["t"] for r in all_rows]
    properties = {
        "records": len(all_rows),
        "files": len(ops),
        "distinct_specs": len(specs),
        "distinct_tasks": len({r["dataset"] for r in all_rows}),
        "per_example_share": round(sum(isinstance(r["labels"], list) for r in all_rows) / len(all_rows), 4),
        "max_n": max(r["n"] for r in all_rows),
        "t_range": [min(ts), max(ts)],
    }
    return Workload(lambda index: decks[index % _AUDIT_DECKS], properties,
                    audit_check_ops(workdir), deck_seconds=3.5, tail_percentile=90.0)


# ---------------------------------------------------------------------------
# closed_form: grid rows and single cells over the documented range

_GRID_N = 9  # log strata of n over [10, 10^6]
_QUANTITIES = ("expected_max", "p_value", "threshold")
_LABELS_N = 20_000


def _grid_row(rng: random.Random, n: int, m: int, quantity: str, deck: int, index: int) -> Op:
    # Two t per row: one from [1, 10^3), one from [10^3, 10^6], log-uniform.
    ts = sorted({max(1, round(v)) for v in _strata(rng, 1, 10**6, 2)})
    p = 1.0 / m
    args = ["grid", "--n", str(n), "--t", ",".join(map(str, ts)), "--m", str(m),
            "--quantity", quantity]
    check = {"n": n, "m": m, "ts": ts, "quantity": quantity}
    if quantity == "p_value":
        acc = p + rng.uniform(0.5, 5.0) * math.sqrt(p * (1 - p) / n)
        acc = min(acc, 1.0)
        args += ["--acc", _fmt_accuracy(acc)]
        check["acc"] = acc
    elif quantity == "threshold":
        alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.1)))
        args += ["--alpha", _fmt_accuracy(alpha)]
        check["alpha"] = alpha
    return Op(key=f"d{deck}:grid{index}", args=tuple(args), items=len(ts), kind="grid", check=check)


def _closed_form_deck(seed: int, deck: int, tiny: bool) -> list[Op]:
    rng = random.Random(f"closed_form:{seed}:{deck}")
    hi = 10**4 if tiny else 10**6
    ops = []
    index = 0
    # n on the log grid from 10 to the documented maximum 10^6; t is drawn
    # afresh for every row, so no spec repeats across decks.
    count = 4 if tiny else _GRID_N
    for i in range(count):
        n = round(10 * (hi / 10) ** (i / (count - 1)))
        for q, quantity in enumerate(_QUANTITIES):
            # m cycles with the row so every deck has the same (n, m) mix.
            m = 2 + (i + 3 * q) % 9
            ops.append(_grid_row(rng, n, m, quantity, deck, index))
            index += 1
    # One per-example row at the documented maximum n.
    labels_n = 200 if tiny else _LABELS_N
    counts = [rng.randint(2, 10) for _ in range(labels_n)]
    ts = sorted({max(1, round(v)) for v in _strata(rng, 1, 10**6, 2)})
    ops.append(Op(key=f"d{deck}:labels", kind="grid", items=len(ts),
                  args=("grid", "--n", str(labels_n), "--t", ",".join(map(str, ts)),
                        "--labels", ";".join(map(str, counts)), "--quantity", "expected_max"),
                  check={"n": labels_n, "labels": counts, "ts": ts, "quantity": "expected_max"}))
    # Single-cell calls on a log grid of n over [10, 10^5], moved by up to 5%.
    top = 10**5 if not tiny else 10**3
    for j in range(6):
        n = round(10 * (top / 10) ** ((j + 0.5) / 6) * math.exp(rng.uniform(-0.05, 0.05)))
        m = (2, 3, 5, 10, 4, 7)[j]
        t = max(1, round(math.exp(rng.uniform(0.0, math.log(10**6)))))
        command = ("baseline", "pvalue", "threshold")[j % 3]
        args = [command, "--n", str(n), "--m", str(m), "--t", str(t)]
        check = {"n": n, "m": m, "t": t}
        if command == "pvalue":
            p = 1.0 / m
            k = min(n, round(n * (p + rng.uniform(0.0, 4.0) * math.sqrt(p * (1 - p) / n))))
            args += ["--acc", _fmt_accuracy(k / n)]
            check["k"] = k
        elif command == "threshold":
            alpha = math.exp(rng.uniform(math.log(1e-3), math.log(0.1)))
            args += ["--alpha", _fmt_accuracy(alpha)]
            check["alpha"] = alpha
        ops.append(Op(key=f"d{deck}:{command}{j}", args=tuple(args), items=1, kind=command,
                      check=check))
    rng.shuffle(ops)
    return ops


def closed_form_workload(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """``grid`` rows over n in [10, 10^6] and t in [1, 10^6], plus single-cell calls."""
    first = _closed_form_deck(seed, 0, tiny)
    cells = [(op.check["n"], t) for op in first if op.kind == "grid" for t in op.check["ts"]]
    cells += [(op.check["n"], op.check["t"]) for op in first if op.kind != "grid"]
    ts = [t for _, t in cells]
    properties = {
        "cells_per_deck": sum(op.items for op in first),
        "ops_per_deck": len(first),
        "distinct_specs_per_deck": len(set(cells)),
        "distinct_tasks_per_deck": len({n for n, _ in cells}),
        "per_example_share": round(
            sum(op.items for op in first if "labels" in op.check) / sum(op.items for op in first), 4),
        "max_n": max(n for n, _ in cells),
        "t_range": [min(ts), max(ts)],
        "new_specs_every_deck": True,
    }

    def decks(index: int) -> list[Op]:
        return first if index == 0 else _closed_form_deck(seed, index, tiny)

    return Workload(decks, properties, closed_form_check_ops(),
                    deck_seconds=1.0 if tiny else 3.5, tail_percentile=95.0)


# ---------------------------------------------------------------------------
# simulate: the Monte Carlo oracle

SIM_N = (100, 178, 316, 562, 1000)
SIM_T = (1, 10, 100, 1000, 10_000)
SIM_DRAWS = 10**6


def simulation_seed(n: int, m: int, t: int) -> int:
    """The generator seed of a simulate op is a fixed function of its (n, m, t).

    So the 4-SE agreement check has one fixed outcome per configuration,
    the same in every run, instead of a ~1e-4 chance of a false alarm per
    op and per run.
    """
    return 7919 * n + 104_729 * m + t


def simulate_workload(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Seeded ``simulate`` ops, about 10^6 draws each, n in [100, 1000], t in [1, 10^4]."""
    rng = random.Random(f"simulate:{seed}")
    draws = 10**4 if tiny else SIM_DRAWS
    ops = []
    # Every (n, t) pair once per deck; the seed picks m and the order.
    for n in SIM_N:
        for t in SIM_T:
            m = rng.randint(2, 10)
            trials = max(100, draws // t)
            sim_seed = simulation_seed(n, m, t)
            ops.append(Op(key=f"sim:{n}:{m}:{t}", kind="simulate", items=t * trials,
                          args=("simulate", "--n", str(n), "--m", str(m), "--t", str(t),
                                "--trials", str(trials), "--seed", str(sim_seed)),
                          check={"n": n, "m": m, "t": t, "trials": trials, "seed": sim_seed}))
    rng.shuffle(ops)
    ts = [op.check["t"] for op in ops]
    properties = {
        "ops_per_deck": len(ops),
        "distinct_specs": len({(op.check["n"], op.check["m"], op.check["t"]) for op in ops}),
        "distinct_tasks": len({(op.check["n"], op.check["m"]) for op in ops}),
        "per_example_share": 0.0,
        "max_n": max(op.check["n"] for op in ops),
        "t_range": [min(ts), max(ts)],
        "draws_per_op": draws,
    }
    return Workload(lambda index: ops, properties, simulate_check_ops(),
                    deck_seconds=0.2 if tiny else 1.5, tail_percentile=95.0)


# ---------------------------------------------------------------------------
# Fixed check sets, compared against an mpmath reference (see checks.py)

# (n, m, t) cells; m = None marks the per-example scheme REFERENCE_LABELS.
REFERENCE_LABELS = tuple(2 + (7 * i) % 9 for i in range(40))
CLOSED_FORM_CELLS = (
    (100, 2, 10),
    (1000, 2, 10_000),
    (50, 2, 10**6),
    (2000, 3, 100),
    (500, 10, 1000),
    (40, None, 1000),
    (10**6, 2, 10**6),
)
SIMULATE_CELLS = ((100, 2, 10), (1000, 2, 10_000), (316, 5, 100))
# (n, m, t, correct count) records for the audit check file.
AUDIT_CELLS = (
    (100, 2, 10, 58),
    (1000, 2, 10_000, 575),
    (200, 4, 1000, 72),
    (50, 2, 10**6, 40),
    (40, None, 100, 20),
    (19_999, 7, 10_000, 2_960),
)


def closed_form_check_ops() -> list[Op]:
    ops = []
    for n, m, t in CLOSED_FORM_CELLS:
        scheme = ["--m", str(m)] if m else ["--labels", ";".join(map(str, REFERENCE_LABELS))]
        ops.append(Op(key=f"ref:baseline:{n}:{m}:{t}", kind="reference", items=1,
                      args=("baseline", "--n", str(n), *scheme, "--t", str(t), "--format", "json"),
                      check={"n": n, "m": m, "t": t, "fields": ("expected_standard", "expected_max")}))
    return ops


def simulate_check_ops() -> list[Op]:
    return [
        Op(key=f"ref:simulate:{n}:{m}:{t}", kind="reference", items=t * 100,
           args=("simulate", "--n", str(n), "--m", str(m), "--t", str(t), "--trials", "100",
                 "--seed", str(simulation_seed(n, m, t)), "--format", "json"),
           check={"n": n, "m": m, "t": t, "fields": ("closed_form",)})
        for n, m, t in SIMULATE_CELLS
    ]


def audit_check_ops(workdir: Path) -> list[Op]:
    path = workdir / "reference.jsonl"
    rows = []
    for i, (n, m, t, k) in enumerate(AUDIT_CELLS):
        rows.append({"id": f"ref{i}", "model": "reference", "dataset": f"ref{i}", "n": n,
                     "labels": m if m else list(REFERENCE_LABELS), "t": t,
                     "observed_max_accuracy": k / n})
    _write_jsonl(path, rows)
    return [Op(key="ref:audit", kind="reference", items=len(rows),
               args=("audit", str(path), "--format", "json"),
               check={"cells": AUDIT_CELLS,
                      "fields": ("expected_standard", "expected_max", "p_standard", "p_max")})]


WORKLOADS = {"audit": audit_workload, "closed_form": closed_form_workload,
             "simulate": simulate_workload}
