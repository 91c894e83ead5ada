"""Kernelization rules and the exact kernel solver."""

import random

from vcstream.core import Edge, covers
from vcstream.kernel import KernelInstance, kernelize, solve_kernel, vc_decide
from vcstream.harness.oracles import oracle_vc


def _random_graph(rng, n, p):
    return [Edge(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if rng.random() < p]


def test_star_forces_center():
    # center degree k+1 > k, so rule 1 takes it
    edges = [Edge(1, leaf) for leaf in range(2, 6)]
    kern = kernelize(edges, 3)
    assert kern is not None
    assert kern.forced == [1]
    assert kern.k_residual == 2
    assert kern.edges == set()


def test_empty_graph_k0():
    kern = kernelize([], 0)
    assert kern is not None and kern.forced == [] and kern.edges == set()
    assert solve_kernel(kern).is_yes


def test_matching_of_k_plus_1_edges_survives_then_no():
    edges = [Edge(1, 2), Edge(3, 4), Edge(5, 6)]
    kern = kernelize(edges, 2)
    assert kern is not None and len(kern.edges) == 3  # <= k'^2 = 4
    assert solve_kernel(kern).is_no
    assert oracle_vc(edges, 2).is_no


def test_solve_single_edge_lexicographic():
    kern = KernelInstance({Edge(1, 2)}, 1)
    ans = solve_kernel(kern)
    assert ans.is_yes and ans.cover == {1}


def test_solve_triangle_needs_two():
    tri = {Edge(1, 2), Edge(1, 3), Edge(2, 3)}
    assert solve_kernel(KernelInstance(tri, 1)).is_no
    assert vc_decide(tri, 2).is_yes


def test_vc_decide_single_edge():
    ans = vc_decide([Edge(1, 2)], 1)
    assert ans.is_yes and ans.cover == {1}


def test_kernel_size_bounds():
    rng = random.Random(3)
    for _ in range(200):
        edges = _random_graph(rng, rng.randint(4, 14), rng.uniform(0.1, 0.4))
        k = rng.randint(0, 5)
        kern = kernelize(edges, k)
        if kern is None:
            assert oracle_vc(edges, k).is_no
            continue
        assert len(kern.edges) <= kern.k_residual ** 2
        vertices = {w for e in kern.edges for w in e}
        assert len(vertices) <= 2 * kern.k_residual ** 2
        assert kern.k_residual == k - len(kern.forced)


def test_random_kernels_agree_with_oracle():
    rng = random.Random(7)
    for _ in range(200):
        edges = _random_graph(rng, 14, 0.25)
        k = rng.randint(0, 5)
        assert vc_decide(edges, k).kind == oracle_vc(edges, k).kind


def test_vc_decide_matches_oracle_500():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randint(4, 20)
        edges = _random_graph(rng, n, rng.uniform(0.05, 0.35))
        k = rng.randint(0, 6)
        ans = vc_decide(edges, k)
        assert ans.kind == oracle_vc(edges, k).kind
        if ans.is_yes:
            assert len(ans.cover) <= k
            assert covers(ans.cover, edges)


def test_monotone_in_budget():
    rng = random.Random(23)
    for _ in range(60):
        edges = _random_graph(rng, 12, 0.3)
        for k in range(6):
            if vc_decide(edges, k).is_yes:
                assert vc_decide(edges, k + 1).is_yes


def test_forced_list_reproducible():
    edges = [Edge(1, j) for j in range(2, 8)] + [Edge(2, j)
                                                 for j in range(3, 9)]
    a = kernelize(edges, 4)
    b = kernelize(list(reversed(edges)), 4)
    assert a.forced == b.forced


def _reference_kernelize(edges, k):
    """The sweep-and-sort kernelization that ``kernelize`` replaced:
    every round sorts all vertices for the first one past k', and every
    removal sweeps the whole graph for isolated vertices."""
    adj = {}
    for e in edges:
        adj.setdefault(e.u, set()).add(e.v)
        adj.setdefault(e.v, set()).add(e.u)
    forced, k_res = [], k
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
        for w in [w for w in adj if not adj[w]]:
            del adj[w]
    kept = {Edge(u, v) for u, nbrs in adj.items() for v in nbrs if u < v}
    if len(kept) > k_res * k_res:
        return None
    return KernelInstance(kept, k_res, forced)


def _hub_graph(rng, hubs, leaves, extra):
    """``hubs`` hubs on ``leaves`` leaves each, as in a dpsa query's
    recovered edge set, plus ``extra`` random leaf-leaf edges."""
    n = hubs * (leaves + 1)
    edges = {Edge(h, hubs + h * leaves + j) for h in range(1, hubs + 1)
             for j in range(leaves)}
    extra = min(extra, (n - hubs) * (n - hubs - 1) // 2)
    while extra:
        u, v = rng.sample(range(hubs + 1, n + 1), 2)
        if Edge(u, v) not in edges:
            edges.add(Edge(u, v))
            extra -= 1
    return edges


def test_kernelize_matches_the_reference():
    rng = random.Random(12)
    cases = [(_random_graph(rng, rng.randint(2, 40), rng.random() * 0.4),
              rng.randint(0, 8)) for _ in range(300)]
    cases += [(_hub_graph(rng, 3, 100, rng.randint(0, 12)), 3)
              for _ in range(40)]
    cases += [(_hub_graph(rng, rng.randint(1, 5), rng.randint(1, 30),
                          rng.randint(0, 20)), rng.randint(0, 6))
              for _ in range(100)]
    outcomes = set()
    for edges, k in cases:
        want = _reference_kernelize(edges, k)
        got = kernelize(edges, k)
        if want is None:
            assert got is None
            outcomes.add("none")
            continue
        assert (got.forced, got.edges, got.k_residual) \
            == (want.forced, want.edges, want.k_residual)
        outcomes.add("empty" if not got.edges else "kernel")
    assert outcomes == {"none", "empty", "kernel"}
