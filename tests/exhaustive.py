"""Every promised stream on a few vertices, walked depth first.

A promised stream inserts absent edges and deletes live ones, and every
prefix has a vertex cover of at most k.  The walk applies each such
update to copies of a pdpsa state, a dpsa state and a shadow graph, so
every branch starts from the states its prefix built.
At every prefix, the empty one included, it checks that:

- ``check_invariants`` finds nothing;
- the pdpsa and dpsa answers equal ``oracle_vc``, and neither is
  degraded;
- a Yes certificate has at most k vertices and covers the live graph.

Run as a script to walk larger cases than the test suite does, e.g.

    PYTHONPATH=src python tests/exhaustive.py --n 5 --k 2 --length 6

which prints the number of prefixes, how many of them hold a pdpsa
sketch past its capacity (so that its level read runs), and each
failure with its stream.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import pickle
import sys
from dataclasses import dataclass, field

from vcstream.core import (DELETE, INSERT, Config, Edge, SketchFail,
                           StreamUpdate, covers)
from vcstream.dpsa import DpsaState, dpsa_query, dpsa_update
from vcstream.harness.invariants import check_invariants
from vcstream.harness.oracles import oracle_vc
from vcstream.harness.streams import ShadowGraph
from vcstream.pdpsa import MatchingState, pdpsa_query


@dataclass
class Walk:
    prefixes: int = 0
    # prefixes with a pdpsa sketch past its capacity
    level_reads: int = 0
    failures: list[str] = field(default_factory=list)


def _stream(path) -> str:
    return " ".join(f"{u.op}({u.edge.u},{u.edge.v})" for u in path) or "-"


def _check(walk: Walk, k: int, want: str, pd: MatchingState,
           dp: DpsaState, shadow: ShadowGraph, path) -> None:
    walk.prefixes += 1
    walk.level_reads += any(sk.support > sk.capacity
                            for sk in pd.sketches.values())
    edges = shadow.edges()
    problems = check_invariants(pd, shadow)
    for name, query, st in (("pdpsa", pdpsa_query, pd),
                            ("dpsa", dpsa_query, dp)):
        try:
            ans = query(st)
        except SketchFail as exc:
            problems.append(f"{name} raised {exc}")
            continue
        if ans.kind != want or ans.degraded:
            problems.append(f"{name} answered {ans.kind} (degraded="
                            f"{ans.degraded}), the oracle {want}")
        elif ans.is_yes and (len(ans.cover) > k
                             or not covers(ans.cover, edges)):
            problems.append(f"{name} cover {sorted(ans.cover)} fails")
    walk.failures += [f"{_stream(path)}: {p}" for p in problems]


def walk(n: int, k: int, length: int, seed: int = 0) -> Walk:
    """Walk every promised stream of at most ``length`` updates on
    vertices 1..n with budget k, checking every prefix."""
    cfg = Config(n=n, k=k, seed=seed)
    pairs = [Edge(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)]
    out = Walk()
    path: list[StreamUpdate] = []
    # at most 2^10 graphs on 5 vertices, each decided once
    oracle = functools.lru_cache(maxsize=None)(
        lambda edges: oracle_vc(edges, k))

    def visit(pd, dp, shadow):
        live = frozenset(shadow.edges())
        _check(out, k, oracle(live).kind, pd, dp, shadow, path)
        if len(path) == length:
            return
        for e in pairs:
            if e in live:
                upd = StreamUpdate(DELETE, e)
            elif oracle(live | {e}).is_yes:
                upd = StreamUpdate(INSERT, e)
            else:
                continue  # the promise forbids this insertion
            # a pickle round trip: a deep copy, about 1.5x as fast as
            # ``copy.deepcopy`` on these states
            pd2, dp2, shadow2 = pickle.loads(pickle.dumps((pd, dp, shadow),
                                                          -1))
            path.append(upd)
            shadow2.apply(upd)
            try:
                pd2.apply(upd)
                dpsa_update(dp2, upd)
            except SketchFail as exc:
                out.failures.append(f"{_stream(path)}: update raised {exc}")
            else:
                visit(pd2, dp2, shadow2)
            path.pop()

    visit(MatchingState(cfg), DpsaState(cfg), ShadowGraph())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--length", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    got = walk(args.n, args.k, args.length, args.seed)
    print(f"prefixes={got.prefixes}")
    print(f"level_reads={got.level_reads}")
    print(f"failures={len(got.failures)}")
    for line in got.failures:
        print(line)
    return 1 if got.failures else 0


if __name__ == "__main__":
    sys.exit(main())
