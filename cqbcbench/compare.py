"""Summarize or compare benchmark results.

    python3 cqbcbench/compare.py RESULTS.jsonl
    python3 cqbcbench/compare.py PARENT.jsonl CHANGE.jsonl

The files are what `run.py --out` appends, one record per --trace 0 run.
With one file it prints, per workload and end-to-end metric, the median,
the quartiles and their distance as a share of the median next to the
metric's bound. With two it pairs the runs made on the same seed and prints
each side's median and quartiles, the share of pairs the change won and a
verdict: better, worse, unchanged or unresolved (see stats.verdict).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """workload -> list of (seed, metric values, failed) in file order."""
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"]:
                continue
            values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs[rec["info"]["provenance"]["workload"]].append(
                (rec["info"]["provenance"]["seed"], values,
                 rec["result"]["failed"]))
    return runs


def pair(parent, change) -> list[tuple[dict, dict]]:
    """Runs of the two sides made on the same seed, in file order."""
    by_seed = defaultdict(list)
    for seed, values, _ in change:
        by_seed[seed].append(values)
    pairs = []
    for seed, values, _ in parent:
        if by_seed[seed]:
            pairs.append((values, by_seed[seed].pop(0)))
    return pairs


def fmt(values) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def summarize(runs, metrics) -> list[str]:
    lines = ["workload\tmetric\truns\tmedian [q1, q3]\tspread\tbound\tfailed"]
    for workload, recs in sorted(runs.items()):
        failed = sum(r[2] for r in recs)
        for m in metrics:
            values = [r[1][m["name"]] for r in recs]
            q1, med, q3 = stats.quartiles(values)
            lines.append(f"{workload}\t{m['name']}\t{len(values)}\t{fmt(values)}"
                         f"\t{(q3 - q1) / abs(med):.4f}\t{m['bound']}\t{failed}")
    return lines


def compare(parent_runs, change_runs, metrics) -> list[str]:
    lines = ["workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]"
             "\tpairs won\tverdict"]
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        pairs = pair(parent, change)
        more_failures = sum(r[2] for r in change) > sum(r[2] for r in parent)
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            p_vals = [r[1][name] for r in parent]
            c_vals = [r[1][name] for r in change]
            value_pairs = [(p[name], c[name]) for p, c in pairs]
            won = sum(1 for p, c in value_pairs if sign * (c - p) > 0)
            verdict = stats.verdict(p_vals, c_vals, value_pairs, m["better"],
                                    m["bound"], more_failures)
            lines.append(f"{workload}\t{name}\t{fmt(p_vals)}\t{fmt(c_vals)}"
                         f"\t{won}/{len(value_pairs)}\t{verdict}")
    return lines


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    runs = [load(path) for path in argv]
    lines = summarize(runs[0], metrics) if len(runs) == 1 else compare(
        runs[0], runs[1], metrics)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
