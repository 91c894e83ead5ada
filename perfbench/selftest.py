"""Fast self-test of the benchmark (about ten seconds).

    python3 perfbench/selftest.py

Every workload at toy size must run to its end, untraced and traced,
with zero failed queries; and the checker must reject a flipped answer,
a certificate over budget, a certificate that misses an edge or leaves a
cycle, and a query that raised.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import sys

import check
import gen
import run


def corrupted(expect, answer):
    """Wrong variants of a right answer, each of which must be rejected."""
    kind, cover = answer
    flipped = ["no", []] if kind == "yes" else ["yes", list(cover)]
    yield "flipped answer", flipped
    yield "raised", ["error", "query raised RuntimeError()"]
    if kind == "yes":
        # vertices in no live edge, so only the size check can reject it
        idle = [-i for i in range(1, expect.k + 2)]
        yield "oversized certificate", ["yes", sorted(set(cover) | set(idle))]
        if expect.edges:
            yield "empty certificate", ["yes", []]


def main() -> int:
    problems = []
    for name in gen.WORKLOADS:
        wl = gen.make(name, seed=1, scale="toy")
        for trace in (False, True):
            res = run.measure(wl, 1, seconds=0, trace=trace, setups=1)
            if not res["correct"] or res["failed"] \
                    or res["attempted"] != wl.queries * res["rounds"]:
                problems.append(f"{name} trace={trace}: {res}")
        answers = run.spawn(wl, 1, 0, False)["rounds"][0]["answers"]
        expects = [e for s in wl.streams for e in s.expects]
        for exp, ans in zip(expects, answers, strict=True):
            if check.judge(exp, ans) is not None:
                problems.append(f"{name}: right answer rejected: {ans}")
            for what, bad in corrupted(exp, ans):
                if check.judge(exp, bad) is None:
                    problems.append(f"{name}: {what} accepted: {bad}")
    for line in problems:
        print("FAIL", line)
    print("selftest:", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
