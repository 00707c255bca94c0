#!/usr/bin/env python3
"""Compares two benchmark ledgers written by run.py.

    python3 perfbench/compare.py BASE_ledger.jsonl NEW_ledger.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles over its untraced runs, and flags the metric when the new median
is worse than the base median by more than the metric's bound in
BENCHMARK.json, or when the base's own spread (quartile distance over
median) already exceeds the bound ("unresolved"). It refuses to compare
(exit 2) when the environment stamps differ: ISA, kernel pool width,
nproc, CPU model, build type or compiler. Exit 1 means a regression.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Stamp fields that name the code rather than the environment.
CODE_FIELDS = ("commit", "source")


def load(path):
    with open(path) as f:
        return [r for r in map(json.loads, f) if not r["trace"]]


def environment(record):
    return {k: v for k, v in record["stamp"].items() if k not in CODE_FIELDS}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: a ledger has no untraced runs", file=sys.stderr)
        return 2
    envs = {json.dumps(environment(r), sort_keys=True) for r in base + new}
    if len(envs) != 1:
        print("compare: refusing, the environment stamps differ:",
              file=sys.stderr)
        for e in sorted(envs):
            print("  " + e, file=sys.stderr)
        return 2

    regressed = False
    print("%-16s %-18s %30s %30s  %s" %
          ("workload", "metric", "base q1/median/q3", "new q1/median/q3",
           "verdict"))
    for workload in sorted({r["workload"] for r in base}):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not n_runs:
            continue
        for name, m in bounds.items():
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = quartiles(b), quartiles(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (nq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            direction = "worse" if change > 0 else "better"
            if spread > m["bound"]:
                verdict = "unresolved (base spread %.3f)" % spread
            elif change > m["bound"]:
                verdict = "WORSE by %.3f (bound %.2f)" % (change, m["bound"])
                regressed = True
            else:
                verdict = "ok (%s by %.3f)" % (direction, abs(change))
            print("%-16s %-18s %30s %30s  %s" % (
                workload, name, "%.4g/%.4g/%.4g" % bq, "%.4g/%.4g/%.4g" % nq,
                verdict))
    failed = sum(r["failed"] for r in new)
    if failed:
        print("new side: %d failed operations" % failed)
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
