"""Domain types: edges, stream replay, configuration."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from vcstream.core import (Config, Edge, InvalidStream, SelfLoop,
                           StreamUpdate, covers, INSERT, DELETE)
from vcstream.harness.streams import ShadowGraph


def test_canonical_orders_endpoints():
    assert Edge(3, 1) == Edge(1, 3)
    assert (Edge(3, 1).u, Edge(3, 1).v) == (1, 3)


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        Edge(4, 4)


def test_edge_is_a_canonical_int_pair():
    e = Edge(3, 1)
    assert isinstance(e, tuple) and e == Edge(1, 3) == (1, 3)
    assert hash(e) == hash(Edge(1, 3)) == hash((1, 3))
    assert (e.u, e.v) == tuple(e) == (1, 3)
    assert e.other(1) == 3 and e.other(3) == 1
    with pytest.raises(ValueError):
        e.other(2)
    assert repr(e) == "Edge(u=1, v=3)"
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is Edge and back == e
    # the benchmark's tracer patches ``from_index`` by name on the class
    assert isinstance(Edge.__dict__["from_index"], staticmethod)


def test_stream_update_is_an_immutable_pair():
    upd = StreamUpdate(INSERT, Edge(3, 1))
    same = StreamUpdate(op=INSERT, edge=Edge(1, 3))
    assert isinstance(upd, tuple) and upd == same == (INSERT, (1, 3))
    assert (upd.op, upd.edge) == tuple(upd) and type(upd.edge) is Edge
    assert hash(upd) == hash(same)
    assert upd != StreamUpdate(DELETE, Edge(1, 3))
    assert len({upd, same, StreamUpdate(DELETE, Edge(1, 3))}) == 2
    assert repr(upd) == "StreamUpdate(op='+', edge=Edge(u=1, v=3))"
    assert not hasattr(upd, "__dict__")
    with pytest.raises(AttributeError):
        upd.op = DELETE
    with pytest.raises(AttributeError):
        upd.note = "x"
    for back in (copy.copy(upd), copy.deepcopy(upd),
                 pickle.loads(pickle.dumps(upd))):
        assert type(back) is StreamUpdate and back == upd
        assert type(back.edge) is Edge


@pytest.mark.parametrize("op", ["*", "", "?", "+-", "++", None, 1])
def test_stream_update_rejects_a_bad_op(op):
    with pytest.raises(ValueError, match="bad op"):
        StreamUpdate(op, Edge(1, 2))


def test_edges_sort_by_u_then_v():
    rng = random.Random(4)
    pairs = [tuple(rng.sample(range(1, 30), 2)) for _ in range(300)]
    edges = [Edge(u, v) for u, v in pairs]
    assert [(e.u, e.v) for e in sorted(edges)] \
        == sorted((min(p), max(p)) for p in pairs)
    assert Edge(1, 9) < Edge(2, 3) < Edge(2, 4)


def test_all_pairs_n5_distinct():
    es = {Edge(u, v) for u in range(1, 6) for v in range(1, 6) if u != v}
    assert len(es) == 10


@given(st.integers(1, 50), st.integers(1, 50))
def test_canonical_symmetric(u, v):
    if u == v:
        return
    assert Edge(u, v) == Edge(v, u)
    e = Edge(u, v)
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


def test_index_refuses_edges_outside_1_to_n():
    # at n=4, (1, 5) would take (2, 3)'s index 4, and (4, 5) would give 7
    for u, v in ((1, 5), (4, 5), (0, 2), (-3, 1)):
        with pytest.raises(ValueError, match="outside 1..4"):
            Edge(u, v).index(4)
    assert Edge(1, 4).index(4) == 3 and Edge(3, 4).index(4) == 6


def test_shadow_insert_delete():
    g = ShadowGraph()
    g.apply(StreamUpdate(INSERT, Edge(1, 2)))
    assert g.m == 1 and g.adj == {1: {2}, 2: {1}}
    g.apply(StreamUpdate(DELETE, Edge(1, 2)))
    assert g.m == 0 and g.edges() == set() and g.adj == {}


def test_shadow_rejects_bad_updates():
    g = ShadowGraph()
    with pytest.raises(InvalidStream):
        g.delete(Edge(1, 2))
    g.insert(Edge(1, 2))
    with pytest.raises(InvalidStream):
        g.insert(Edge(2, 1))


def test_shadow_replay_counting():
    # m must equal inserts minus deletes over a long valid replay
    rng = random.Random(11)
    g = ShadowGraph()
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
    # x = 2k + 1, whatever n and delta are
    assert cfg.x == 9
    assert Config(n=10 ** 6, k=4, delta=1e-6).x == cfg.x
    assert Config(n=40, k=3, delta=0.01).x < cfg.x


def test_config_validation():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be"):
            Config(n=n, k=1)
    with pytest.raises(ValueError):
        Config(n=5, k=-1)
    with pytest.raises(ValueError):
        Config(n=5, k=1, delta=1.5)
    # delta is the one failure setting
    with pytest.raises(TypeError):
        Config(n=5, k=1, c=1.0)


def _mode_state(mode, edges):
    """A state of ``mode`` at n=4, k=1 after inserting ``edges``, and its
    query."""
    from vcstream import (DpsaState, FvsState, MatchingState, PsaState,
                          dpsa_query, dpsa_update, fvs_insert, fvs_query,
                          pdpsa_query, psa_insert, psa_query)
    cfg = Config(n=4, k=1)
    if mode == "psa":
        st = PsaState(k=cfg.k)
        for e in edges:
            psa_insert(st, e)
        return st, psa_query
    if mode == "pdpsa":
        st = MatchingState(cfg)
        for e in edges:
            st.insertion(e)
        return st, pdpsa_query
    if mode == "dpsa":
        st = DpsaState(cfg)
        for e in edges:
            dpsa_update(st, StreamUpdate(INSERT, e))
        return st, dpsa_query
    st = FvsState()
    for e in edges:
        fvs_insert(st, e, cfg.n, cfg.k)
    return st, fvs_query


@pytest.mark.parametrize("edges", [(), (Edge(1, 2),)], ids=["empty", "edge"])
@pytest.mark.parametrize("mode", ["psa", "pdpsa", "dpsa", "fvs"])
def test_a_negative_query_k_is_refused_in_every_mode(mode, edges):
    st, query = _mode_state(mode, edges)
    before = pickle.dumps(st)
    with pytest.raises(ValueError, match="query k=-1 is negative"):
        query(st, -1)
    # refused before anything was read or changed
    assert pickle.dumps(st) == before
    assert query(st, 1).is_yes


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
