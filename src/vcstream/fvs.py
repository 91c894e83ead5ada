"""Insertion-only streaming decision for Feedback Vertex Set FVS(k).

Any graph with a feedback vertex set of size <= k has at most n(k+1)
edges, so the stream algorithm simply stores edges until that bound
breaks (then the answer is No forever) and otherwise solves the stored
graph exactly: degree-<=1 stripping, degree-2 bypass with multi-edge and
self-loop care, then bounded subset search over the residue.  The
search is skipped when the residue holds more vertex-disjoint 2-cycles
(doubled pairs) than the budget: each needs its own deleted vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Edge, SolverError, VcAnswer, matching_exceeds

FvsAnswer = VcAnswer


@dataclass
class FvsState:
    stored: set[Edge] = field(default_factory=set)
    dead: bool = False


def fvs_insert(st: FvsState, e: Edge, n: int, k: int) -> FvsState:
    if st.dead:
        return st
    st.stored.add(e)
    if len(st.stored) > n * (k + 1):
        st.dead = True
        st.stored.clear()
    return st


def fvs_query(st: FvsState, k: int) -> FvsAnswer:
    if st.dead:
        return FvsAnswer.no()
    return fvs_decide(st.stored, k)


class _MultiGraph:
    """Adjacency with edge multiplicities and self-loop markers."""

    def __init__(self, edges):
        self.mult: dict[tuple[int, int], int] = {}
        self.adj: dict[int, set[int]] = {}
        self.loops: set[int] = set()
        for e in edges:
            self.add(e.u, e.v)

    def add(self, u: int, v: int) -> None:
        if u == v:
            self.loops.add(u)
            self.adj.setdefault(u, set())
            return
        key = (min(u, v), max(u, v))
        self.mult[key] = self.mult.get(key, 0) + 1
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def degree(self, u: int) -> int:
        d = sum(self.mult[(min(u, v), max(u, v))] for v in self.adj.get(u, ()))
        return d + 2 * (u in self.loops)

    def remove_vertex(self, u: int) -> None:
        for v in list(self.adj.get(u, ())):
            del self.mult[(min(u, v), max(u, v))]
            self.adj[v].discard(u)
        self.adj.pop(u, None)
        self.loops.discard(u)

    def vertices(self):
        return set(self.adj) | self.loops


def _is_forest(edges, removed: set[int]) -> bool:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in edges:
        if e.u in removed or e.v in removed:
            continue
        ru, rv = find(e.u), find(e.v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_fvs(cert, edges, k: int) -> None:
    """Raise ``SolverError`` unless deleting ``cert`` (at most ``k``
    vertices) leaves ``edges`` acyclic."""
    if len(cert) > k:
        raise SolverError(f"certificate has {len(cert)} vertices, k={k}")
    if not _is_forest(edges, set(cert)):
        raise SolverError("certificate leaves a cycle")


def fvs_decide(edges, k: int) -> FvsAnswer:
    edges = set(edges)
    g = _MultiGraph(edges)
    forced: list[int] = []
    budget = k

    changed = True
    while changed:
        changed = False
        for u in sorted(g.vertices()):
            if u not in g.adj and u not in g.loops:
                continue  # removed earlier in this sweep
            if u in g.loops:
                # self-loop: u is on a cycle of its own, must be removed
                if budget == 0:
                    return FvsAnswer.no()
                forced.append(u)
                budget -= 1
                g.remove_vertex(u)
                changed = True
            elif g.degree(u) <= 1:
                g.remove_vertex(u)
                changed = True
            elif g.degree(u) == 2 and u not in g.loops:
                nbrs = [v for v in g.adj[u]
                        for _ in range(g.mult[(min(u, v), max(u, v))])]
                g.remove_vertex(u)
                g.add(nbrs[0], nbrs[1])
                changed = True

    doubled = {uv for uv, m in g.mult.items() if m > 1}
    if matching_exceeds(doubled, budget):
        return FvsAnswer.no()
    remaining = sorted(g.vertices())
    live = [Edge(u, v) for (u, v), _ in g.mult.items()]

    def residue_acyclic(removed: set[int]) -> bool:
        for (u, v) in doubled:
            if u not in removed and v not in removed:
                return False
        return _is_forest(live, removed)

    for size in range(min(budget, len(remaining)) + 1):
        for combo in itertools.combinations(remaining, size):
            if residue_acyclic(set(combo)):
                cert = set(forced) | set(combo)
                check_fvs(cert, edges, k)
                return FvsAnswer.yes(cert)
    return FvsAnswer.no()
