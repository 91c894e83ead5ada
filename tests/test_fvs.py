"""Insertion-only feedback vertex set: gate, solver, certificates."""

import itertools
import random

import pytest

from vcstream.core import Edge
from vcstream.fvs import FvsState, fvs_decide, fvs_insert, fvs_query
from vcstream.harness.oracles import (oracle_fvs, oracle_min_fvs, _acyclic)


def _random_graph(rng, n, p):
    return [Edge(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if rng.random() < p]


def test_tree_edges_never_dead():
    st = FvsState()
    for v in range(2, 9):
        fvs_insert(st, Edge(1, v), n=8, k=0)
    assert not st.dead
    assert fvs_query(st, 0).is_yes


def test_gate_kills_exactly_above_bound():
    # n=6, k=1: bound is n(k+1)=12; K6 has 15 edges
    n, k = 6, 1
    st = FvsState()
    edges = list(itertools.combinations(range(1, 7), 2))
    for i, (u, v) in enumerate(edges, start=1):
        fvs_insert(st, Edge(u, v), n=n, k=k)
        if i <= n * (k + 1):
            assert not st.dead
        else:
            assert st.dead
    assert fvs_query(st, k).is_no


def test_dead_state_absorbs():
    st = FvsState()
    st.dead = True
    fvs_insert(st, Edge(1, 2), n=4, k=0)
    assert st.dead and not st.stored


def test_an_edge_outside_1_to_n_is_refused_and_changes_nothing():
    # unchecked, the path 1-2-3-4 at n=2, k=0 passed n(k+1) = 2 edges and
    # killed the state, which then answered No for a forest
    st = FvsState()
    fvs_insert(st, Edge(1, 2), n=2, k=0)
    for e in (Edge(2, 3), Edge(3, 4)):
        with pytest.raises(ValueError, match="outside 1..2"):
            fvs_insert(st, e, n=2, k=0)
    assert st == FvsState(stored={Edge(1, 2)}, k=0)
    assert fvs_query(st, 0).is_yes


def test_an_edge_with_an_endpoint_below_1_is_refused():
    st = FvsState()
    with pytest.raises(ValueError, match="outside 1..3"):
        fvs_insert(st, Edge(0, 5), n=3, k=1)
    with pytest.raises(ValueError, match="outside 1..3"):
        fvs_insert(st, Edge(0, 2), n=3, k=1)
    assert st == FvsState()
    # a dead state refuses it too, and stays as it was
    st.dead, st.k = True, 0
    with pytest.raises(ValueError, match="outside 1..3"):
        fvs_insert(st, Edge(0, 2), n=3, k=0)
    assert st == FvsState(dead=True, k=0)


def test_dead_state_refuses_a_larger_query_k():
    # 5 edges pass n(k+1) = 4 at k=0, but not 8 at k=1, where {1} cuts
    # every cycle
    edges = [Edge(1, 2), Edge(1, 3), Edge(1, 4), Edge(2, 3), Edge(2, 4)]
    dead, live = FvsState(), FvsState()
    for e in edges:
        fvs_insert(dead, e, n=4, k=0)
        fvs_insert(live, e, n=4, k=1)
    assert dead.dead and not live.dead
    assert fvs_query(dead, 0).is_no
    with pytest.raises(ValueError, match="query k=1 exceeds the state's k=0"):
        fvs_query(dead, 1)
    ans = fvs_query(live, 1)
    assert ans.is_yes and ans.cover == frozenset({1})


def test_live_state_answers_a_larger_query_k():
    # a live state stores every edge, so any k is decided exactly
    st = FvsState()
    for u, v in itertools.combinations(range(1, 5), 2):
        fvs_insert(st, Edge(u, v), n=4, k=1)
    assert not st.dead and st.k == 1
    assert fvs_query(st, 1).is_no  # K4 needs two
    ans = fvs_query(st, 2)
    assert ans.is_yes and len(ans.cover) == 2


def test_path_k0_yes():
    st = FvsState()
    for v in range(1, 5):
        fvs_insert(st, Edge(v, v + 1), n=5, k=0)
    ans = fvs_query(st, 0)
    assert ans.is_yes and ans.cover == frozenset()


def test_triangle():
    tri = [Edge(1, 2), Edge(1, 3), Edge(2, 3)]
    assert fvs_decide(tri, 0).is_no
    ans = fvs_decide(tri, 1)
    assert ans.is_yes and len(ans.cover) == 1


def test_two_disjoint_triangles():
    g = [Edge(1, 2), Edge(1, 3), Edge(2, 3),
         Edge(4, 5), Edge(4, 6), Edge(5, 6)]
    assert fvs_decide(g, 1).is_no
    assert fvs_decide(g, 2).is_yes


def test_k4_min_fvs_two():
    k4 = [Edge(u, v) for u, v in itertools.combinations(range(1, 5), 2)]
    size, cert = oracle_min_fvs(k4)
    assert size == 2
    assert fvs_decide(k4, 1).is_no
    assert fvs_decide(k4, 2).is_yes


def test_forest_any_k():
    forest = [Edge(1, 2), Edge(2, 3), Edge(4, 5)]
    for k in range(3):
        ans = fvs_decide(forest, k)
        assert ans.is_yes and ans.cover == frozenset()


def test_degree_two_chain_with_doubled_path():
    # two vertices joined by two disjoint paths form one cycle
    g = [Edge(1, 2), Edge(2, 3), Edge(1, 4), Edge(4, 3)]
    assert fvs_decide(g, 0).is_no
    ans = fvs_decide(g, 1)
    assert ans.is_yes and len(ans.cover) == 1


def test_random_graphs_match_oracle():
    rng = random.Random(2)
    for t in range(120):
        edges = _random_graph(rng, rng.randint(4, 12), rng.uniform(0.1, 0.4))
        k = rng.randint(0, 4)
        ans = fvs_decide(edges, k)
        oracle = oracle_fvs(edges, k)
        assert ans.kind == oracle.kind, (t, sorted(edges), k)
        if ans.is_yes:
            assert len(ans.cover) <= k
            assert _acyclic(edges, set(ans.cover))


def test_planted_fvs_respects_edge_bound():
    # forest on n vertices plus k extra vertices of arbitrary degree
    rng = random.Random(5)
    for _ in range(40):
        n, k = 12, rng.randint(0, 3)
        planted = set(rng.sample(range(1, n + 1), k))
        rest = [v for v in range(1, n + 1) if v not in planted]
        edges = set()
        for i in range(1, len(rest)):
            edges.add(Edge(rest[i - 1], rest[i]))
        for p in planted:
            for v in rng.sample(rest, rng.randint(0, len(rest))):
                edges.add(Edge(p, v))
        assert len(edges) <= n * (k + 1)
        assert fvs_decide(edges, k).is_yes
