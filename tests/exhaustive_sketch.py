"""Every valid +/-1 write sequence on a small sampled sketch, walked
depth first.

A valid write toggles an index: +1 where it is absent and -1 where it is
present, so the sketch always holds a 0/1 vector.  The walk applies each
write to a copy of a sampled ``SampleRecovery`` of capacity 1, so every
branch starts from the cells, and the read, that its prefix left.  At
every prefix, the empty one included, it checks that ``recover()``,
which returns the held read while ``update`` keeps it, equals a fresh
read of a copy whose held read was dropped, a ``RecoveryFail``
included, and that a read that does not fail names at least
min(capacity, support) indices, all of them present.  This proves the
kept-read rule of ``SampleRecovery.update`` on every such sequence.

The failure target sizes the levels: fail 0.3 gives 4 levels of 1 x 1
grids, each of which reads one index at most; fail 0.1 gives 2 levels
of 2 x 4 grids at 6 indices (3 of 2 x 4 at 8), and fail 0.15 level
capacity 3 and 3 levels of 2 x 3 grids, where a read can name several
indices, peel a level's subsample in part, stall and fall back to
shallower levels.  At both, the level capacity passes the capacity, so
a support of 2 up to it is read in part at level 0.

Run as a script to walk larger cases than the test suite does, e.g.

    PYTHONPATH=src python tests/exhaustive_sketch.py --n 8 --length 5

which prints, for each failure target and seed, the sketch's levels, the
number of prefixes, how many of them a kept level read served, how many
were read in part at level 0, and each mismatch with its writes.
"""

from __future__ import annotations

import argparse
import pickle
import sys
from dataclasses import dataclass, field

from vcstream.sketch import RecoveryFail, SampleRecovery


@dataclass
class SketchWalk:
    levels: int = 0
    prefixes: int = 0
    # prefixes whose read a write before them kept
    kept: int = 0
    # prefixes read in part at level 0: past the capacity, within the
    # level capacity
    partial: int = 0
    failures: list[str] = field(default_factory=list)


def _read(sk: SampleRecovery):
    try:
        return sorted(sk.recover())
    except RecoveryFail:
        return "fail"


def walk_sketch(n: int, length: int, fail: float, seed: int) -> SketchWalk:
    """Walk every valid +/-1 write sequence of at most ``length`` writes
    over indices 1..n, checking every prefix."""
    out = SketchWalk()
    path: list[tuple[int, int]] = []

    def visit(sk: SampleRecovery, present: frozenset[int]) -> None:
        out.prefixes += 1
        # a read is held before this prefix's own read only if every
        # write since the last one kept it
        out.kept += sk._held is not None
        twin = pickle.loads(pickle.dumps(sk, -1))
        twin._held = None
        got, want = _read(sk), _read(twin)
        writes = " ".join(f"{d:+d}@{i}" for i, d in path) or "-"
        if got != want:
            out.failures.append(f"{writes}: held {got}, fresh {want}")
        elif got != "fail" and (len(got) < min(sk.capacity, len(present))
                                or not set(got) <= present):
            out.failures.append(f"{writes}: read {got} of {sorted(present)}")
        out.partial += (got != "fail" and sk._held[0] == 0
                        and sk.support > sk.capacity)
        if len(path) == length:
            return
        # a pickle round trip: a deep copy of the cells and the held read
        blob = pickle.dumps(sk, -1)
        for i in range(1, n + 1):
            d = -1 if i in present else 1
            child = pickle.loads(blob)
            child.update(i, d)
            path.append((i, d))
            visit(child, present ^ {i})
            path.pop()

    root = SampleRecovery(n, 1, seed=seed, fail=fail, sampled=True)
    out.levels = root.levels
    visit(root, frozenset())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--fail", type=float, nargs="+",
                   default=[0.3, 0.1, 0.15])
    p.add_argument("--seed", type=int, nargs="+", default=[0, 1])
    args = p.parse_args(argv)
    failures = 0
    for fail in args.fail:
        for seed in args.seed:
            got = walk_sketch(args.n, args.length, fail, seed)
            print(f"fail={fail} seed={seed} levels={got.levels} "
                  f"prefixes={got.prefixes} kept={got.kept} "
                  f"partial={got.partial} failures={len(got.failures)}")
            for line in got.failures:
                print(line)
            failures += len(got.failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
