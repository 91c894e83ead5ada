"""Domain types: edges, stream replay, configuration."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from vcstream.core import (Config, Edge, InvalidStream, SelfLoop,
                           ShadowGraph, StreamUpdate, canonical, covers,
                           INSERT, DELETE)


def test_canonical_orders_endpoints():
    assert canonical(3, 1) == Edge(1, 3)
    assert canonical(1, 3) == Edge(1, 3)


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Edge(4, 4)


def test_all_pairs_n5_distinct():
    es = {canonical(u, v) for u in range(1, 6) for v in range(1, 6) if u != v}
    assert len(es) == 10


@given(st.integers(1, 50), st.integers(1, 50))
def test_canonical_symmetric(u, v):
    if u == v:
        return
    assert canonical(u, v) == canonical(v, u)
    e = canonical(u, v)
    assert e.u < e.v


@pytest.mark.parametrize("n", range(2, 61))
def test_edge_index_bijection(n):
    seen = set()
    for u, v in itertools.combinations(range(1, n + 1), 2):
        idx = Edge(u, v).index(n)
        assert 1 <= idx <= n * (n - 1) // 2
        assert idx not in seen
        seen.add(idx)
        assert Edge.from_index(idx, n) == Edge(u, v)
    assert len(seen) == n * (n - 1) // 2


def test_from_index_inverts_index_at_large_n():
    n = 10 ** 5
    rng = random.Random(3)
    spots = [(1, 2), (1, n), (2, 3), (n - 2, n), (n - 1, n),
             (n // 2, n // 2 + 1)]
    spots += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(200)]
    for u, v in spots:
        e = Edge(u, v)
        assert Edge.from_index(e.index(n), n) == e


@pytest.mark.parametrize("idx", [0, -1, 11])
def test_from_index_rejects_out_of_range(idx):
    with pytest.raises(ValueError):
        Edge.from_index(idx, 5)


def test_shadow_insert_delete():
    g = ShadowGraph(4)
    g.apply(StreamUpdate(INSERT, Edge(1, 2)))
    assert g.m == 1 and g.degree(1) == 1 and g.degree(2) == 1
    g.apply(StreamUpdate(DELETE, Edge(1, 2)))
    assert g.m == 0 and g.edges() == set()


def test_shadow_rejects_bad_updates():
    g = ShadowGraph(4)
    with pytest.raises(InvalidStream):
        g.delete(Edge(1, 2))
    g.insert(Edge(1, 2))
    with pytest.raises(InvalidStream):
        g.insert(Edge(2, 1))


def test_shadow_replay_counting():
    # m must equal inserts minus deletes over a long valid replay
    rng = random.Random(11)
    g = ShadowGraph(15)
    ins = dels = 0
    for _ in range(1000):
        live = sorted(g.edges())
        if live and rng.random() < 0.4:
            g.delete(rng.choice(live))
            dels += 1
        else:
            u, v = rng.sample(range(1, 16), 2)
            if not g.has_edge(Edge(u, v)):
                g.insert(Edge(u, v))
                ins += 1
    assert g.m == ins - dels
    assert len(g.edges()) == g.m


def test_config_sizes():
    cfg = Config(n=40, k=4, delta=0.01)
    # x = ceil(8 * 4 * log2(4000)), y = ceil(8 * log2(4000))
    assert cfg.x == 383
    assert cfg.y == 96
    half = Config(n=40, k=4, delta=0.01, alpha=0.5)
    assert half.x < cfg.x


def test_config_validation():
    with pytest.raises(ValueError):
        Config(n=5, k=-1)
    with pytest.raises(ValueError):
        Config(n=5, k=1, delta=1.5)
    with pytest.raises(ValueError):
        Config(n=5, k=1, c=0.5)


def test_covers():
    es = [Edge(1, 2), Edge(2, 3)]
    assert covers({2}, es)
    assert not covers({1}, es)
    assert covers(set(), [])


def test_edge_and_update_have_slots():
    e = Edge(2, 1)
    assert not hasattr(e, "__dict__")
    assert not hasattr(StreamUpdate("+", e), "__dict__")
    with pytest.raises(AttributeError):
        e.u = 5
