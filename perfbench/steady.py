"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10]

For each workload, runs ``run.py`` once per seed 1..RUNS (set A), then
again for the same seeds (set B), with ``run_seconds`` from
BENCHMARK.json.  For every end-to-end metric it prints each set's median,
quartiles and spread (quartile distance over median), and the verdict:
each spread within the metric's bound, the two medians apart by no more
than the bound (as a share of set A's), the same share of
failed queries in both sets, and ``words_peak`` equal seed by seed.  Then
two traced runs of seed 1 must report every per-layer count exactly
alike.  Raw figures go to ``perfbench/results/steady.json``.  Exits 0
when everything agrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(spec, workload, sets) -> list:
    """Print the two sets' figures; return the disagreements."""
    bad = []
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"]
                                                   for r in runs)
              for runs in sets]
    if shares[0] != shares[1]:
        bad.append(f"{workload}: failed share {shares[0]} vs {shares[1]}")
    print(f"{workload}: failed share {shares[0]:g} / {shares[1]:g}, "
          f"runs {len(sets[0])} + {len(sets[1])}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        rows = []
        for runs in sets:
            q1, med, q3 = quartiles([r["metrics"][name]["value"]
                                     for r in runs])
            rows.append((q1, med, q3, (q3 - q1) / med))
        worse = (rows[1][1] - rows[0][1]) / rows[0][1]
        if m["better"] == "higher":
            worse = -worse
        ok = abs(worse) <= bound and all(r[3] <= bound for r in rows)
        if not ok:
            bad.append(f"{workload}: {name}")
        print(f"  {name:14s} bound {bound:<5g} "
              + "  ".join(f"[{q1:.5g} {med:.5g} {q3:.5g}] spread {s:.4f}"
                          for q1, med, q3, s in rows)
              + f"  B worse by {worse:+.4f}  {'ok' if ok else 'DISAGREE'}")
    words = [[r["metrics"]["words_peak"]["value"] for r in runs]
             for runs in sets]
    if words[0] != words[1]:
        bad.append(f"{workload}: words_peak differs seed by seed")
    return bad


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    raw = {w: [[run_once(spec, w, s, 0) for s in seeds]]
           for w in workloads}
    for w in workloads:
        raw[w].append([run_once(spec, w, s, 0) for s in seeds])
    bad = []
    for w in workloads:
        bad += compare(spec, w, raw[w])
        traced = [run_once(spec, w, 1, 1) for _ in range(2)]
        counts = [{n: v["value"] for n, v in t["metrics"].items()
                   if v["unit"] == "count"} for t in traced]
        same = counts[0] == counts[1]
        print(f"  per-layer counts, two traced runs of seed 1: "
              f"{'identical' if same else 'DIFFER'} ({len(counts[0])})")
        if not same:
            bad.append(f"{w}: per-layer counts differ")
        raw[w].append(traced)
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print("steady:", "agree" if not bad else "DISAGREE: " + "; ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
