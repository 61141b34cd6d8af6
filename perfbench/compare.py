#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by `perfbench/run.py --record FILE`,
one per run (untraced runs are compared; traced ones are skipped). For
every workload x end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, each side's spread (quartile distance over
median), and how much worse NEW's median is than BASE's. A pair passes
when NEW is not worse by more than the metric's bound; it is marked
unresolved when either side's own spread exceeds the bound. The same
rule serves an A/A check (two sets of runs of one commit) and a parent
versus change comparison.

Runs that failed their checks are not compared. A BASE run with
correct false is bad input. A NEW run with correct false, or with more
failed operations than any BASE run of its workload, fails that
workload outright.

Records from different hosts or configurations are refused: nproc, CPU
model, scale, config digest and run length must all match.

Exit status: 0 when every pair passes, 1 otherwise, 2 on bad input.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME_HOST = ("nproc", "cpu", "scale", "config_digest", "seconds")


def load(path):
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    return [r for r in recs if not r["trace"]]


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("compare: no untraced records", file=sys.stderr)
        return 2
    if any(not r["result"]["correct"] for r in base):
        print("compare: BASE holds runs that failed their checks",
              file=sys.stderr)
        return 2
    hosts = {tuple(r["host"][k] for k in SAME_HOST) for r in base + new}
    if len(hosts) != 1:
        print("compare: records come from different hosts or configs:",
              *sorted(hosts), sep="\n  ", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    print(f"{'workload':8} {'metric':14} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'spread b/n':>11} "
          f"{'worse':>7} {'bound':>5}  verdict")
    failed = False
    for w in sorted({r["workload"] for r in base + new}):
        a = [r for r in base if r["workload"] == w]
        b = [r for r in new if r["workload"] == w]
        if not a or not b:
            print(f"{w:8} missing on one side ({len(a)} vs {len(b)} runs)")
            failed = True
            continue
        most = max(r["result"]["failed"] for r in a)
        bad = [r["host"]["seed"] for r in b if not r["result"]["correct"]
               or r["result"]["failed"] > most]
        if bad:
            print(f"{w:8} FAILED: new runs with seeds {bad} failed their "
                  f"checks or more operations than base")
            failed = True
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["result"]["metrics"][name]["value"] for r in a]
            vb = [r["result"]["metrics"][name]["value"] for r in b]
            ma, a1, a3 = summary(va)
            mb, b1, b3 = summary(vb)
            sa, sb = (a3 - a1) / ma, (b3 - b1) / mb
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            if worse > bound:
                verdict = "WORSE"
                failed = True
            elif max(sa, sb) > bound:
                verdict = "unresolved"
                failed = True
            else:
                verdict = "ok"
            print(f"{w:8} {name:14} {ma:12.5g} [{a1:9.5g}, {a3:9.5g}] "
                  f"{mb:12.5g} [{b1:9.5g}, {b3:9.5g}] "
                  f"{sa:5.3f}/{sb:5.3f} {worse:+7.3f} {bound:5.2f}  "
                  f"{verdict}")
        print(f"{w:8} runs: {len(a)} base, {len(b)} new")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
