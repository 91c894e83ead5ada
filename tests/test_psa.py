"""Insertion-only streaming vertex cover."""

import random

import pytest

from vcstream.core import Edge, StreamUpdate, covers, INSERT
from vcstream.psa import PsaState, psa_insert, psa_query
from vcstream.harness.oracles import oracle_vc
from vcstream.harness.streams import ShadowGraph


def replay(edges, k):
    st = PsaState(k=k)
    for e in edges:
        psa_insert(st, e)
    return st


def _matching(st):
    # each stored list starts with its vertex's matching edge
    return {lst[0] for lst in st.stored.values()}


def test_first_edge_matches():
    st = replay([Edge(1, 2)], 2)
    assert _matching(st) == {Edge(1, 2)}


def test_three_disjoint_edges_kill_k2():
    st = replay([Edge(1, 2), Edge(3, 4), Edge(5, 6)], 2)
    assert st.dead
    assert psa_query(st, 2).is_no
    assert st.stored_edges() == set()


def test_star_caps_stored_edges():
    # center 1 matched by (1,2); cap holds matching edge + k witnesses
    k = 3
    st = replay([Edge(1, j) for j in range(2, 2 + k + 3)], k)
    assert _matching(st) == {Edge(1, 2)}
    center = st.stored[1]
    assert len(center) == k + 1
    assert sum(1 for e in center if e not in _matching(st)) == k


def test_fresh_query_k0():
    assert psa_query(PsaState(k=0), 0).is_yes


def test_triangle_k1_is_no():
    # with a cap of only k stored edges this instance answers wrongly
    st = replay([Edge(1, 2), Edge(1, 3), Edge(2, 3)], 1)
    assert psa_query(st, 1).is_no
    assert oracle_vc([Edge(1, 2), Edge(1, 3), Edge(2, 3)], 1).is_no


def _random_insertion_stream(rng, n, length):
    seen = set()
    out = []
    while len(out) < length:
        u, v = rng.sample(range(1, n + 1), 2)
        e = Edge(u, v)
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def test_anytime_oracle_equality():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(4, 18)
        k = rng.randint(0, 5)
        st = PsaState(k=k)
        sh = ShadowGraph()
        length = rng.randint(1, min(30, n * (n - 1) // 2))
        for e in _random_insertion_stream(rng, n, length):
            sh.apply(StreamUpdate(INSERT, e))
            psa_insert(st, e)
            ans = psa_query(st, k)
            oracle = oracle_vc(sh.edges(), k)
            assert ans.kind == oracle.kind
            if ans.is_yes:
                assert len(ans.cover) <= k
                assert covers(ans.cover, sh.edges())


def test_once_no_always_no():
    rng = random.Random(9)
    for _ in range(30):
        n, k = 12, rng.randint(1, 3)
        st = PsaState(k=k)
        went_no = False
        for e in _random_insertion_stream(rng, n, 25):
            psa_insert(st, e)
            if went_no:
                assert psa_query(st, k).is_no
            elif psa_query(st, k).is_no:
                went_no = True


def test_determinism():
    edges = _random_insertion_stream(random.Random(4), 10, 20)
    a, b = replay(edges, 3), replay(edges, 3)
    assert a.stored == b.stored
    assert a.dead == b.dead


def test_space_bounds_each_step():
    rng = random.Random(6)
    for _ in range(40):
        n, k = 16, rng.randint(1, 5)
        st = PsaState(k=k)
        for e in _random_insertion_stream(rng, n, 40):
            psa_insert(st, e)
            if st.dead:
                assert not st.stored
                continue
            non_matching = st.stored_edges() - _matching(st)
            assert len(non_matching) <= 2 * k * k
            assert len(st.stored) <= 2 * k


def test_a_query_above_the_states_k_is_refused():
    # the star 5-{1, 2, 3, 4} at k=1 stores k+1 = 2 edges at vertex 5,
    # so a k=2 query would answer Yes {1, 2}, which misses (3, 5)
    star = [Edge(leaf, 5) for leaf in range(1, 5)]
    st = replay(star, 1)
    with pytest.raises(ValueError, match="k=2 exceeds the state's k=1"):
        psa_query(st, 2)
    ans = psa_query(st, 1)
    assert ans.is_yes and ans.cover == {5} and covers(ans.cover, star)
