"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by ``run.py`` (``.bench_out/results.jsonl``),
one set per commit.  For every (metric, workload) present in both sets it
prints each side's median and quartiles and a verdict, judged by the bounds
in ``BENCHMARK.json``:

* ``unresolved``: a side's spread (quartile distance over median) exceeds
  the bound, and neither side's every run beats every run of the other;
* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``better``: the new median is better by more than the base runs' spread
  and the new side wins at least nine tenths of the run pairs (paired by
  seed where both sides ran the same seeds), ties counting for neither;
* ``unchanged``: otherwise.

Per-layer metrics have no bound, so for them any spread leaves the verdict
unresolved unless one side dominates, and any move of an exact count is a
verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {"seeds": [...], "metrics": {name: [values]}, "meta": [...]}}"""
    sets: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            meta = record["meta"]
            entry = sets.setdefault((meta["workload"], meta["trace"]), {"seeds": [], "metrics": {}, "meta": []})
            entry["seeds"].append(meta["seed"])
            entry["meta"].append(meta)
            for name, metric in record["result"]["metrics"].items():
                entry["metrics"].setdefault(name, []).append(metric["value"])
    return sets


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_pairs(base: dict, new: dict, name: str) -> list[tuple[float, float]]:
    a, b = base["metrics"][name], new["metrics"][name]
    if sorted(base["seeds"]) == sorted(new["seeds"]):
        by_seed = dict(zip(new["seeds"], b))
        return [(x, by_seed[s]) for s, x in zip(base["seeds"], a)]
    return list(itertools.product(a, b))


def verdict(base: dict, new: dict, name: str, higher_is_better: bool, bound: float) -> tuple[str, float]:
    sign = 1 if higher_is_better else -1
    a, b = base["metrics"][name], new["metrics"][name]
    qa, qb = quartiles(a), quartiles(b)
    scale_a, scale_b = abs(qa[1]) or 1.0, abs(qb[1]) or 1.0
    change = sign * (qb[1] - qa[1]) / scale_a
    spread_a, spread_b = (qa[2] - qa[0]) / scale_a, (qb[2] - qb[0]) / scale_b
    if max(spread_a, spread_b) > bound:
        signed_a, signed_b = [sign * x for x in a], [sign * y for y in b]
        if min(signed_b) > max(signed_a):
            return "better", change
        if max(signed_b) < min(signed_a):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = run_pairs(base, new, name)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if change > spread_a and wins >= 0.9 * len(pairs):
        return "better", change
    return "unchanged", change


def describe(entry: dict) -> str:
    keys = ("commit", "python", "numpy", "nproc")
    seen = {k: sorted({str(m.get(k)) for m in entry["meta"]}) for k in keys}
    return ", ".join(f"{k}={'/'.join(v)}" for k, v in seen.items()) + f", seeds={sorted(entry['seeds'])}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark results.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"# {workload} ({'traced' if trace else 'end to end'})")
        print(f"  base: {describe(base[key])}")
        print(f"  new:  {describe(new[key])}")
        for name in sorted(set(base[key]["metrics"]) & set(new[key]["metrics"]) & set(metrics)):
            m = metrics[name]
            bound = m.get("bound", 0.0)
            outcome, change = verdict(base[key], new[key], name, m["better"] == "higher", bound)
            qa, qb = quartiles(base[key]["metrics"][name]), quartiles(new[key]["metrics"][name])
            print(f"  {name:44s} {m['unit']:>6s}  base {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  {change:+.1%}  {outcome}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print("# only in one set: " + ", ".join(f"{w}/trace={t}" for w, t in missing))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
