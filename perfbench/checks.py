"""Output checks for every op, and the mpmath reference behind ``max_rel_err``.

Each check reads only the bytes an op printed, plus the op's generated
inputs.  Independent references come from two places:

* ``maxrand.dist.binomial_cdf_beta``: the incomplete-beta binomial cdf,
  a route that shares nothing with the summed pmf the closed forms use;
* mpmath at 40 digits, for the fixed check sets in ``workloads.py``.

Checks fail wrong answers (see ``Checker``).  How exact the answers are
is measured, not failed: against mpmath as ``max_rel_err``, and against
the beta route as a diagnostic in the result file.  ``TOL`` only decides
comparisons that sit on a boundary, such as a tail probability next to
the significance level it is compared with.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath

TOL = 1e-7
# Values are printed to 12 significant digits, so a printed value can sit
# this far (relative) beyond a bound that the computed value meets.
PRINT_SLACK = 1e-11


def _f(text: str) -> float | None:
    if text == "" or text is None:
        return None
    return float(text)


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) + 1e-300


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Independent binomial route


class BetaReference:
    """Tail probabilities of Binomial(n, p) and of the best of t, via the incomplete beta."""

    def __init__(self, binomial_cdf_beta, n: int, p: float, t: int):
        self.cdf = binomial_cdf_beta
        self.n, self.p, self.t = n, p, t

    def tail(self, k: int) -> float:
        """P(X >= k) as P(n - X <= n - k), evaluated directly (no 1 - F cancellation)."""
        if k <= 0:
            return 1.0
        if k > self.n:
            return 0.0
        return self.cdf(self.n, 1.0 - self.p, self.n - k)

    def max_tail(self, k: int) -> float:
        """S(k) = P(best of t >= k)."""
        tail = self.tail(k)
        if self.t == 1 or tail <= 0.0 or tail >= 1.0:
            return min(max(tail, 0.0), 1.0)
        return -math.expm1(self.t * math.log1p(-tail))

    def expected_max_bounds(self, intervals: int = 48) -> tuple[float, float]:
        """Rigorous bounds on E[max]/1 from the monotone S: n E = sum_{k=1}^{n} S(k)."""
        n = self.n
        cache: dict[int, float] = {}

        def s(k: int) -> float:
            if k not in cache:
                cache[k] = self.max_tail(k)
            return cache[k]

        def last_at_least(level: float) -> int:
            lo, hi = 0, n  # S(0) = 1 >= level
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if s(mid) >= level:
                    lo = mid
                else:
                    hi = mid - 1
            return lo

        a = max(1, last_at_least(1.0 - 1e-15))
        b = min(n, last_at_least(1e-13 / n) + 1)
        points = {1, n + 1, a, b}
        points.update(round(a + (b - a) * i / intervals) for i in range(intervals + 1))
        points = sorted(k for k in points if 1 <= k <= n + 1)
        lower = upper = 0.0
        for g, h in zip(points, points[1:]):
            upper += (h - g) * s(g)
            lower += (h - g) * s(h - 1)
        return lower / n, upper / n


def _threshold_count(n: int, accuracy: float) -> int:
    # The documented rule: a value within 1e-6 counts of k/n is k/n, else ceil.
    nearest = round(n * accuracy)
    if abs(n * accuracy - nearest) <= 1e-6 * n:
        return nearest
    return math.ceil(n * accuracy)


class Checker:
    """Checks printed outputs.

    A check fails an op when the answer is wrong, not merely inexact: a
    discrete answer (rows, counts, thresholds, categories) that is not the
    right one, or a value outside what must hold exactly (a probability
    in [0, 1], ``p_standard <= p_max``, an expected maximum between the
    chance rate and 1 and nondecreasing in ``t``).  How far each real value
    sits from the incomplete-beta route is measured, not failed, and kept
    in ``beta_errors``: see ``max_rel_err`` for precision.
    """

    def __init__(self, binomial_cdf_beta):
        self.beta = binomial_cdf_beta
        self.unchecked = 0
        self.beta_errors: list[tuple[float, str]] = []

    def ref(self, n: int, m: int, t: int) -> BetaReference:
        return BetaReference(self.beta, n, 1.0 / m, t)

    def _note(self, error: float, where: str) -> None:
        self.beta_errors.append((error, where))

    # -- closed forms ------------------------------------------------------

    def expected_max(self, value: float, n: int, m: int, t: int) -> None:
        """Record how far ``value`` sits outside the rigorous beta bracket on E[max]."""
        try:
            lower, upper = self.ref(n, m, t).expected_max_bounds()
        except ArithmeticError:
            self.unchecked += 1
            return
        excess = max(lower - value, value - upper, 0.0) / value
        self._note(excess, f"expected_max(n={n}, m={m}, t={t})")

    def max_tail_at(self, value: float, n: int, m: int, t: int, k: int, what: str) -> None:
        try:
            expected = self.ref(n, m, t).max_tail(k)
        except ArithmeticError:
            self.unchecked += 1
            return
        if expected > 0.0:
            self._note(abs(value - expected) / expected, f"{what}(n={n}, m={m}, t={t}, k={k})")

    def significance(self, value: float | None, n: int, m: int, t: int, alpha: float) -> str | None:
        ref = self.ref(n, m, t)
        try:
            if value is None:
                ok = ref.max_tail(n) >= alpha * (1 - TOL)
            else:
                k = round(value * n)
                ok = ref.max_tail(k) < alpha * (1 + TOL) and (
                    k == 0 or ref.max_tail(k - 1) >= alpha * (1 - TOL))
        except ArithmeticError:
            self.unchecked += 1
            return None
        if not ok:
            return f"threshold({n}, {m}, {t}, alpha={alpha!r}) = {value!r} is not the least count"
        return None

    @staticmethod
    def beating(value: float | None, expected_max: float, n: int) -> str | None:
        """The least k/n above the printed expected maximum (the tie guard is 1e-9)."""
        if value is None:
            return None if expected_max >= 1.0 - 1e-9 else "no accuracy beats the max baseline"
        if value <= expected_max or value - 1.0 / n > expected_max + 1e-9:
            return f"min_accuracy_beating_max {value!r} is not the least k/n above {expected_max!r}"
        return None

    def grid(self, text: str, check: dict) -> list[str]:
        rows = _csv_rows(text)
        ts = check["ts"]
        if [int(r["t"]) for r in rows] != ts or any(int(r["n"]) != check["n"] for r in rows):
            return [f"grid rows {[(r['n'], r['t']) for r in rows]} do not match the axes"]
        n, m, quantity = check["n"], check.get("m"), check["quantity"]
        values = [_f(r["value"]) for r in rows]
        problems = []
        if quantity == "expected_max":
            floor = (1.0 / m) if m else sum(1.0 / c for c in check["labels"]) / n
            for t, v in zip(ts, values):
                if v is None or not floor * (1 - TOL) <= v <= 1.0:
                    problems.append(f"expected_max({n}, t={t}) = {v!r} outside [{floor}, 1]")
                elif m:
                    self.expected_max(v, n, m, t)
            if not problems and any(b < a * (1 - TOL) for a, b in zip(values, values[1:])):
                problems.append(f"expected_max({n}) decreases in t: {values}")
        elif quantity == "p_value":
            k = _threshold_count(n, check["acc"])
            for t, v in zip(ts, values):
                if v is None or not 0.0 <= v <= 1.0:
                    problems.append(f"p_value({n}, t={t}) = {v!r} is not a probability")
                else:
                    self.max_tail_at(v, n, m, t, k, "p_value")
        else:
            problems += [p for t, v in zip(ts, values)
                         if (p := self.significance(v, n, m, t, check["alpha"]))]
        return problems

    def single(self, kind: str, text: str, check: dict) -> list[str]:
        rows = _csv_rows(text)
        if len(rows) != 1:
            return [f"{kind} printed {len(rows)} rows"]
        row = rows[0]
        n, m, t = check["n"], check["m"], check["t"]
        problems = []
        if kind == "baseline":
            standard, em = _f(row["expected_standard"]), _f(row["expected_max"])
            if not _close(standard, 1.0 / m, 1e-11):
                problems.append(f"expected_standard {standard!r} != 1/{m}")
            if not standard * (1 - TOL) <= em <= 1.0:
                problems.append(f"expected_max {em!r} outside [{standard!r}, 1]")
            else:
                self.expected_max(em, n, m, t)
            problem = self.beating(_f(row["min_accuracy_beating_max"]), em, n)
            if problem:
                problems.append(problem)
        elif kind == "pvalue":
            ps, pm = _f(row["p_standard"]), _f(row["p_max"])
            if not 0.0 <= ps <= pm <= 1.0:
                problems.append(f"p-values {ps!r}, {pm!r} are not ordered probabilities")
            else:
                self.max_tail_at(ps, n, m, 1, check["k"], "p_standard")
                self.max_tail_at(pm, n, m, t, check["k"], "p_max")
        else:
            beating = _f(row["min_accuracy_beating_max"])
            if beating is not None and (beating <= 1.0 / m or abs(beating * n - round(beating * n)) > 1e-6):
                problems.append(f"min_accuracy_beating_max {beating!r} is not a k/n above 1/{m}")
            problem = self.significance(_f(row["min_accuracy_at_significance"]), n, m, t,
                                        check["alpha"])
            if problem:
                problems.append(problem)
        return problems

    # -- oracle ------------------------------------------------------------

    def simulate(self, text: str, check: dict) -> list[str]:
        rows = _csv_rows(text)
        if len(rows) != 1:
            return [f"simulate printed {len(rows)} rows"]
        row = rows[0]
        estimate, se, closed = _f(row["estimate"]), _f(row["std_error"]), _f(row["closed_form"])
        problems = []
        if int(row["trials"]) != check["trials"] or int(row["seed"]) != check["seed"]:
            problems.append("simulate echoed the wrong trials or seed")
        if row["generator"] != "pcg64":
            problems.append(f"generator {row['generator']!r}")
        if not abs(estimate - closed) <= 4.0 * se:
            problems.append(f"estimate {estimate!r} is {abs(estimate - closed) / se if se else math.inf:.2f}"
                            f" SE from closed_form {closed!r}")
        self.expected_max(closed, check["n"], check["m"], check["t"])
        return problems

    # -- audit -------------------------------------------------------------

    def audit(self, text: str, fmt: str, check: dict) -> list[str]:
        if fmt == "json":
            lines = [json.loads(line) for line in text.splitlines()]
            verdicts = [x for x in lines if x["kind"] == "verdict"]
            summary = [x for x in lines if x["kind"] == "summary"]
            predictors = [x for x in lines if x["kind"] == "predictor"]
        else:
            blocks = text.split("\n\n")
            verdicts = _csv_rows(blocks[0])
            summary = _csv_rows(blocks[1])
            predictors = _csv_rows(blocks[2]) if len(blocks) > 2 else []
            for row in verdicts:
                for key in ("observed_max_accuracy", "expected_standard", "expected_max",
                            "p_standard", "p_max"):
                    row[key] = _f(row[key])
            for row in summary:
                for key in ("below_both", "flip", "above_both"):
                    row[key] = int(row[key])
            for row in predictors:
                for key in ("tp", "fp", "tn", "fn"):
                    row[key] = int(row[key])
        problems = []
        records = check["records"]
        if len(verdicts) != records:
            problems.append(f"{len(verdicts)} verdicts for {records} records")
        tally = {"below_both": 0, "flip": 0, "above_both": 0}
        for v in verdicts:
            obs, es, em = v["observed_max_accuracy"], v["expected_standard"], v["expected_max"]
            if v["p_standard"] > v["p_max"]:
                problems.append(f"{v['id']}: p_standard > p_max")
            if em < es * (1 - TOL):
                problems.append(f"{v['id']}: expected_max {em!r} < expected_standard {es!r}")
            expected = "below_both" if obs <= es else ("flip" if obs <= em else "above_both")
            near_edge = _close(obs, es) or _close(obs, em)
            if v["category"] != expected and not near_edge:
                problems.append(f"{v['id']}: category {v['category']} but numbers say {expected}")
            tally[v["category"]] = tally.get(v["category"], 0) + 1
        totals = [s for s in summary if s["scope"] == "total"]
        groups = [s for s in summary if s["scope"] == "group"]
        if len(totals) != 1:
            problems.append("summary has no single total row")
        else:
            total = totals[0]
            if total["below_both"] + total["flip"] + total["above_both"] != records:
                problems.append("summary total does not equal the record count")
            if any(total[key] != tally.get(key) for key in ("below_both", "flip", "above_both")):
                problems.append("summary total disagrees with the verdict categories")
            for key in ("below_both", "flip", "above_both"):
                if sum(g[key] for g in groups) != total[key]:
                    problems.append(f"group {key} counts do not add up to the total")
        if len(predictors) != 2 or any(
                p["tp"] + p["fp"] + p["tn"] + p["fn"] != records for p in predictors):
            problems.append("predictor confusion counts do not cover every record")
        return problems

    def curve(self, text: str, check: dict) -> list[str]:
        rows = _csv_rows(text)
        ts = check["ts"]
        problems = []
        if len(rows) != check["records"] * ts:
            return [f"curve printed {len(rows)} rows for {check['records']} records x {ts} t"]
        for start in range(0, len(rows), ts):
            block = rows[start:start + ts]
            record = check["per_prompt"][block[0]["id"]]
            emp = [float(r["empirical_expected_max"]) for r in block]
            base = [float(r["expected_max_baseline"]) for r in block]
            if [int(r["t"]) for r in block] != list(range(1, ts + 1)):
                problems.append(f"{block[0]['id']}: t column is not 1..{ts}")
            mean = math.fsum(record) / len(record)
            if not _close(emp[0], mean, 1e-9):
                problems.append(f"{block[0]['id']}: empirical at t=1 {emp[0]!r} != mean {mean!r}")
            if emp[-1] > max(record) * (1 + PRINT_SLACK):
                problems.append(f"{block[0]['id']}: empirical curve exceeds the sample maximum")
            for series, name in ((emp, "empirical"), (base, "baseline")):
                if any(b < a * (1 - TOL) for a, b in zip(series, series[1:])):
                    problems.append(f"{block[0]['id']}: {name} curve decreases in t")
            for r in block:
                ps, pm = float(r["p_standard"]), float(r["p_max"])
                if not 0.0 <= ps <= pm <= 1.0:
                    problems.append(f"{r['id']} t={r['t']}: p-values {ps!r}, {pm!r} out of order")
                    break
        return problems


# ---------------------------------------------------------------------------
# mpmath reference for the fixed check sets

DIGITS = 40
# Binomial mass beyond this many SD of the mean is below e^-200 and is
# left out, which keeps n = 10^6 cheap at 40 digits.
WINDOW_SD = 20


class MpReference:
    """Expectations and tails at ``DIGITS`` digits; one pmf per (n, scheme)."""

    def __init__(self):
        self.ctx = mpmath.mp.clone()
        self.ctx.dps = DIGITS
        self._pmfs: dict = {}

    def pmf(self, n: int, m: int | None, labels: tuple[int, ...]) -> tuple[int, list]:
        """(lo, pmf) with pmf[j] = P(X = lo + j) over the support that matters."""
        key = (n, m, labels if m is None else None)
        if key not in self._pmfs:
            mp = self.ctx
            if m is not None:
                p = mp.mpf(1) / m
                q = 1 - p
                sd = math.sqrt(n * (1 / m) * (1 - 1 / m))
                lo = max(0, math.floor(n / m - WINDOW_SD * sd))
                hi = min(n, math.ceil(n / m + WINDOW_SD * sd))
                first = mp.exp(mp.loggamma(n + 1) - mp.loggamma(lo + 1) - mp.loggamma(n - lo + 1)
                               + lo * mp.log(p) + (n - lo) * mp.log(q))
                pmf = [first]
                for k in range(lo, hi):
                    pmf.append(pmf[-1] * (n - k) / (k + 1) * p / q)
            else:
                lo, pmf = 0, [mp.mpf(1)]
                for c in labels:
                    p = mp.mpf(1) / c
                    pmf = [a * (1 - p) + b * p for a, b in zip(pmf + [0], [0] + pmf)]
            self._pmfs[key] = (lo, pmf)
        return self._pmfs[key]

    def values(self, n: int, m: int | None, labels: tuple[int, ...], t: int,
               count: int | None = None) -> dict:
        mp = self.ctx
        lo, pmf = self.pmf(n, m, labels)
        # above[j] = P(X > lo + j), summed from the top
        above, running = [mp.mpf(0)] * len(pmf), mp.mpf(0)
        for j in range(len(pmf) - 1, -1, -1):
            above[j] = running
            running += pmf[j]

        def best_reaches(tail):  # P(best of t >= k) from P(X >= k)
            return -mp.expm1(t * mp.log1p(-tail)) if tail < 1 else mp.mpf(1)

        # n E[max] = sum_{k=0}^{n-1} P(max > k); below the window P(max > k) = 1.
        total = mp.fsum(best_reaches(above[j]) for j in range(min(len(pmf), n - lo)))
        expected_max = (lo + total) / n
        if m is not None:
            expected_standard = mp.mpf(1) / m
        else:
            expected_standard = mp.fsum(mp.mpf(1) / c for c in labels) / n
        out = {"expected_standard": expected_standard, "expected_max": expected_max,
               "closed_form": expected_max}
        if count is not None:
            j = count - lo
            tail = mp.mpf(1) if j <= 0 else (above[j - 1] if j <= len(pmf) else mp.mpf(0))
            out["p_standard"] = tail
            out["p_max"] = best_reaches(tail)
        return out


def relative_errors(printed: dict, reference: dict, fields) -> dict[str, float]:
    errors = {}
    for name in fields:
        ref = reference[name]
        if ref != 0:
            errors[name] = float(abs((mpmath.mpf(printed[name]) - ref) / ref))
    return errors
