"""Summary statistics, statistical check limits, the failure tally and
comparison verdicts, kept free of program imports so that the benchmark's
own tests can pin them."""

from __future__ import annotations

import math
import statistics

# Family-wise chance that one run's statistical output checks fail although
# the program is correct. The benchmark is run hundreds of times, so each
# run's checks share this budget instead of each check taking 4 sigma alone.
FAMILY_FALSE_ALARM = 1e-4
MIN_SIGMAS = 4.0
# A tail percentile has at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, sample count). The sample at ascending rank
    i (0-based) has n - 1 - i samples after it, so the tail is rank
    n - 1 - beyond, which is the (i + 1) / n percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    i = n - 1 - beyond
    if i < 0:
        raise ValueError(f"{n} samples leave none with {beyond} beyond it")
    return ordered[i], 100.0 * (i + 1) / n, n


def sigma_limit(checks: int, family: float = FAMILY_FALSE_ALARM) -> float:
    """Deviation limit, in standard deviations, for each of `checks`
    two-sided Gaussian checks so that all pass together with probability at
    least 1 - family (Bonferroni); never below MIN_SIGMAS."""
    z = statistics.NormalDist().inv_cdf(1.0 - family / (2 * max(checks, 1)))
    return max(MIN_SIGMAS, z)


def binom_outside(n: int, p: float, lo: float, hi: float) -> float:
    """P(X < lo or X > hi) for X ~ Binomial(n, p), summed exactly."""
    return math.fsum(
        math.comb(n, k) * p ** k * (1 - p) ** (n - k)
        for k in range(n + 1) if k < lo or k > hi
    )


def poisson_upper(lam: float, family: float = FAMILY_FALSE_ALARM) -> int:
    """Smallest k with P(Poisson(lam) > k) < family."""
    k, term = 0, math.exp(-lam)
    cdf = term
    while 1.0 - cdf >= family:
        k += 1
        term *= lam / k
        cdf += term
    return k


def verdict(parent, change, pairs, better: str, bound: float,
            more_failures: bool = False) -> str:
    """Classify a change against its parent on one metric and workload.

    parent, change -- the metric's values over each side's runs;
    pairs          -- (parent, change) values of runs made on one seed;
    better         -- "higher" or "lower";
    bound          -- share of the parent's median a worsening may take.

    "better" needs at least ten pairs, nine tenths of them won (ties count
    for neither), medians apart by more than the parent's quartile
    distance, and no more failed operations than the parent. "worse" means
    the median worsened by more than the bound. When the run-to-run spread
    of either side exceeds the bound the result is "unresolved", unless
    every change run beats every parent run. Otherwise "unchanged".
    """
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    gain = sign * (c_med - p_med)
    if (not more_failures and len(pairs) >= 10
            and wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1):
        return "better"
    if -gain > bound * abs(p_med):
        return "worse"
    spread = max((p_q3 - p_q1) / abs(p_med), (c_q3 - c_q1) / abs(c_med))
    if sign > 0:
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def op_metrics(op_s, work: float) -> dict:
    """Per-operation latency and throughput of one measured run.

    op_s are the seconds of every operation, work what they completed
    together. Throughput is the whole run's work over its busy seconds,
    not a median of per-round rates: the machine's speed drifts over tens
    of seconds, and the whole-run ratio averages over that drift where a
    median follows whichever speed held most of the run. The tail is
    the highest percentile with TAIL_BEYOND samples beyond it, when the
    run has that many; it is information, not a bounded metric, because
    a run holds too few operations for it to repeat.
    """
    out = {"op_wall_ms.p50": 1e3 * median(op_s),
           "work_per_s": work / math.fsum(op_s), "samples": len(op_s)}
    if len(op_s) > TAIL_BEYOND:
        value, pct, _ = tail(op_s)
        out.update({"op_wall_ms.tail": 1e3 * value, "tail_pct": pct})
    return out


class Tally:
    """Attempted and failed operations, with notes on the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)

    def merge(self, child: dict) -> None:
        self.attempted += child["attempted"]
        self.failed += child["failed"]
        self.notes += child["notes"][:20 - len(self.notes)]
