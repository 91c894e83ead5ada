"""Buss-Goldsmith style kernelization for VC(k) and exact extraction."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, SolverError, VcAnswer, covers, matching_exceeds


@dataclass
class KernelInstance:
    """Residual instance after the reduction rules ran to fixpoint."""

    vertices: set[int]
    edges: set[Edge]
    k_residual: int
    forced: list[int] = field(default_factory=list)


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for e in edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    return adj


def kernelize(edges, k: int) -> KernelInstance | None:
    """Reduce (edges, k); None means a provable No.

    Rule 1: a vertex of degree > k' must join the cover.  Rule 2 drops
    isolated vertices.  Rule 1 runs exhaustively before each Rule 2 sweep
    and always picks the smallest-id qualifying vertex, so the forced
    list is reproducible.  A surviving kernel has <= k'^2 edges; more
    means No.
    """
    adj = _adjacency(edges)
    forced: list[int] = []
    k_res = k

    while True:
        high = [v for v in sorted(adj) if len(adj[v]) > k_res]
        if not high:
            break
        v = high[0]
        if k_res == 0:
            return None
        forced.append(v)
        k_res -= 1
        for w in adj.pop(v):
            adj[w].discard(v)
        # Rule 2: drop anything the removal isolated
        for w in [w for w in adj if not adj[w]]:
            del adj[w]

    for w in [w for w in adj if not adj[w]]:
        del adj[w]

    kept = {Edge(u, v) for u, nbrs in adj.items() for v in nbrs if u < v}
    if len(kept) > k_res * k_res:
        return None
    # Rule 2 left no isolated vertex, so every vertex has a kept edge
    if len(adj) > 2 * len(kept):
        raise SolverError(f"kernel keeps {len(adj)} vertices for "
                          f"{len(kept)} edges")
    return KernelInstance(set(adj), kept, k_res, forced)


def _branch_cover(edges: list[tuple[int, int]],
                  budget: int) -> set[int] | None:
    """Depth-bounded branching: cover of size <= budget, or None.

    ``edges`` holds sorted ``(u, v)`` pairs with u < v; filtering keeps
    them sorted, so the first one is the lexicographically smallest
    uncovered edge.  Branching on it, smaller endpoint first, makes
    certificates deterministic.  A node whose greedy matching exceeds the
    budget holds no cover and is cut, which leaves the first cover found
    unchanged.
    """
    if not edges:
        return set()
    if matching_exceeds(edges, budget):
        return None
    for pick in edges[0]:
        rest = [f for f in edges if pick not in f]
        sub = _branch_cover(rest, budget - 1)
        if sub is not None:
            sub.add(pick)
            return sub
    return None


def solve_kernel(kern: KernelInstance) -> VcAnswer:
    cover = _branch_cover(sorted((e.u, e.v) for e in kern.edges),
                          kern.k_residual)
    if cover is None:
        return VcAnswer.no()
    return VcAnswer.yes(set(kern.forced) | cover)


def check_cover(cover, edges, k: int) -> None:
    """Raise ``SolverError`` unless ``cover`` is a vertex cover of
    ``edges`` with at most ``k`` vertices."""
    if len(cover) > k:
        raise SolverError(f"certificate has {len(cover)} vertices, k={k}")
    if not covers(cover, edges):
        raise SolverError("certificate misses an edge")


def vc_decide(edges, k: int) -> VcAnswer:
    """Kernelize then solve; a Yes certificate is re-verified first."""
    edges = set(edges)
    kern = kernelize(edges, k)
    if kern is None:
        return VcAnswer.no()
    ans = solve_kernel(kern)
    if ans.is_yes:
        check_cover(ans.cover, edges, k)
    return ans
