"""Unrestricted dynamic mode: global sketch, edge gate."""

import itertools
import random

import numpy as np
import pytest

from vcstream.core import (Config, Edge, ShadowGraph, SketchFail,
                           StreamUpdate, covers, INSERT, DELETE)
from vcstream.dpsa import DpsaState, decode_edges, dpsa_query, dpsa_update
from vcstream.harness.generators import gen_random_stream
from vcstream.harness.oracles import oracle_vc


def mk(n=8, k=2, **kw):
    return DpsaState(Config(n=n, k=k, seed=kw.pop("seed", 0), **kw))


def test_insert_delete_cancels():
    a, b = mk(), mk()
    dpsa_update(a, StreamUpdate(INSERT, Edge(1, 2)))
    dpsa_update(a, StreamUpdate(DELETE, Edge(1, 2)))
    assert a.live == 0
    assert a.sketch.state_equals(b.sketch)


def test_live_counter_counts():
    st = mk(n=6, k=2)
    for i, (u, v) in enumerate(itertools.combinations(range(1, 7), 2)):
        if i == 13:
            break
        dpsa_update(st, StreamUpdate(INSERT, Edge(u, v)))
    assert st.live == 13


def test_permutation_invariance():
    rng = random.Random(3)
    updates = gen_random_stream(10, 120, 0.4, rng)
    a, b = mk(n=10, k=3), mk(n=10, k=3)
    for upd in updates:
        dpsa_update(a, upd)
    # net multiset replayed in sorted order gives an identical state
    net = {}
    for upd in updates:
        delta = 1 if upd.op == INSERT else -1
        net[upd.edge] = net.get(upd.edge, 0) + delta
    for e in sorted(net):
        for _ in range(abs(net[e])):
            dpsa_update(b, StreamUpdate(INSERT if net[e] > 0 else DELETE, e))
    assert a.sketch.state_equals(b.sketch)
    assert a.live == b.live


def test_empty_stream_yes():
    assert dpsa_query(mk(), 2).is_yes


def test_k6_gate_rejects_without_recovery():
    st = mk(n=6, k=2)
    for u, v in itertools.combinations(range(1, 7), 2):
        dpsa_update(st, StreamUpdate(INSERT, Edge(u, v)))
    assert st.live == 15 > 6 * 2
    assert dpsa_query(st, 2).is_no


def test_random_streams_match_oracle():
    rng = random.Random(7)
    for t in range(60):
        n = rng.randint(5, 18)
        k = rng.randint(0, 4)
        st = DpsaState(Config(n=n, k=k, seed=t))
        sh = ShadowGraph(n)
        for upd in gen_random_stream(n, rng.randint(5, 60), 0.35, rng):
            sh.apply(upd)
            dpsa_update(st, upd)
        ans = dpsa_query(st, k)
        oracle = oracle_vc(sh.edges(), k)
        assert ans.kind == oracle.kind
        if ans.is_yes:
            assert covers(ans.cover, sh.edges())


def test_gate_exact_at_boundary():
    # exactly nk live edges must still take the recovery path
    n, k = 6, 2
    st = mk(n=n, k=k)
    sh = ShadowGraph(n)
    for i, (u, v) in enumerate(itertools.combinations(range(1, 7), 2)):
        if i == n * k:
            break
        dpsa_update(st, StreamUpdate(INSERT, Edge(u, v)))
        sh.insert(Edge(u, v))
    assert st.live == n * k
    assert dpsa_query(st, k).kind == oracle_vc(sh.edges(), k).kind


def test_dpsa_space_is_linear_in_n():
    # two words a cell and no power tables, so the grid alone grows
    # with n at fixed k; n = 2000 still packs its cells
    big = DpsaState(Config(n=2000, k=3))
    assert big.words() / DpsaState(Config(n=1000, k=3)).words() <= 2.2
    # 5 x 644 grid cells, 6 452 words; 9 670 with three words a cell,
    # 14 617 with two fingerprints and their power tables, 59 340 with
    # 4 x 3 600
    assert DpsaState(Config(n=600, k=3)).words() <= 6_500


def test_dpsa_space_is_at_most_linear_in_k():
    # the grid holds n*k edge indices
    words = DpsaState(Config(n=600, k=6)).words()
    assert words / DpsaState(Config(n=600, k=3)).words() <= 2.1


def test_dpsa_builds_at_a_single_vertex():
    # no edge slots: the per-index failure share guards N = 0
    st = DpsaState(Config(n=1, k=1))
    assert st.sketch.n == 0 and st.sketch.rows * st.sketch.buckets == 1
    assert dpsa_query(st).is_yes


def test_recovery_fail_flags_every_later_answer(monkeypatch):
    # the stall of the CLI's exit-5 test
    from vcstream.sketch import RecoveryFail, SampleRecovery
    st = mk(n=4, k=1)
    dpsa_update(st, StreamUpdate(INSERT, Edge(1, 2)))
    fresh = dpsa_query(st)
    assert fresh.is_yes and fresh.degraded is False

    def stall(self):
        raise RecoveryFail("peeling stalled with 2 residual mass")
    with monkeypatch.context() as patch:
        patch.setattr(SampleRecovery, "recover", stall)
        with pytest.raises(SketchFail):
            dpsa_query(st)
    assert st.degraded
    again = dpsa_query(st)
    assert again.degraded and again.cover == fresh.cover
    # the n*k gate's No carries the flag too
    for u, v in itertools.combinations(range(1, 5), 2):
        if (u, v) != (1, 2):
            dpsa_update(st, StreamUpdate(INSERT, Edge(u, v)))
    gated = dpsa_query(st)
    assert gated.is_no and gated.degraded


def test_query_past_the_sketch_capacity_is_refused_not_degraded(
        monkeypatch):
    # the sketch holds n * config.k = 12 edges; a query with k = 3 may
    # read up to n * k = 36 and must not peel an overfull grid
    from vcstream.sketch import SampleRecovery
    st = mk(n=12, k=1)
    assert st.sketch.capacity == 12
    sh = ShadowGraph(12)
    pairs = iter(itertools.combinations(range(1, 13), 2))

    def insert(count):
        for _ in range(count):
            e = Edge(*next(pairs))
            dpsa_update(st, StreamUpdate(INSERT, e))
            sh.insert(e)
    insert(12)
    assert dpsa_query(st, 3).kind == oracle_vc(sh.edges(), 3).kind
    insert(1)
    reads = []
    real = SampleRecovery.recover
    monkeypatch.setattr(SampleRecovery, "recover",
                        lambda self: reads.append(1) or real(self))
    with pytest.raises(ValueError, match="capacity of 12"):
        dpsa_query(st, 3)
    assert not reads and not st.degraded
    assert dpsa_query(st).is_no  # past n * config.k
    insert(36 - 13)
    with pytest.raises(ValueError):
        dpsa_query(st, 3)
    insert(1)  # past n * k = 36
    ans = dpsa_query(st, 3)
    assert ans.is_no and not ans.degraded and not reads


def test_a_recovery_short_of_the_live_count_fails(monkeypatch):
    from vcstream.sketch import SampleRecovery
    st = mk(n=6, k=1)
    for e in (Edge(1, 2), Edge(3, 4)):
        dpsa_update(st, StreamUpdate(INSERT, e))
    monkeypatch.setattr(SampleRecovery, "recover",
                        lambda self: {Edge(1, 2).index(6)})
    with pytest.raises(SketchFail, match="recovered 1 edges of 2 live"):
        dpsa_query(st)
    assert st.degraded


# -- decoding a recovery ----------------------------------------------------


def _decoded(indices, n):
    """The pairs of ``decode_edges``'s endpoint arrays, in input order."""
    u, v = decode_edges(indices, n)
    assert u.dtype == v.dtype == np.int64 and len(u) == len(v)
    return list(zip(u.tolist(), v.tolist()))


@pytest.mark.parametrize("n", range(2, 61))
def test_decode_edges_matches_from_index_everywhere(n):
    pairs = n * (n - 1) // 2
    for i in range(1, pairs + 1):
        assert _decoded([i], n) == [Edge.from_index(i, n)]
    got = _decoded(range(1, pairs + 1), n)
    assert got == [Edge.from_index(i, n) for i in range(1, pairs + 1)]
    assert _decoded([], n) == []


def _row_ends(n):
    """The first and last index of every row u: the edges (u, u+1) and
    (u, n)."""
    starts = [(u - 1) * (2 * n - u) // 2 + 1 for u in range(1, n)]
    return starts + [s - 1 for s in starts[1:]] + [n * (n - 1) // 2]


# n = 77 936 was the largest n whose two-prime edge sketch kept its
# fingerprint sums in int64; one fingerprint mod P = 2^50 - 27 takes any
# N <= P/2 edge slots, up to n = 2^25
@pytest.mark.parametrize("n", [10 ** 4, 77_934, 77_936])
def test_decode_edges_matches_from_index_at_large_n(n):
    from vcstream.sketch import MAX_INDICES, SampleRecovery
    pairs = n * (n - 1) // 2
    if n == 77_936:
        for m, fits in ((n + 1, True), (1 << 25, True),
                        ((1 << 25) + 1, False)):
            slots = m * (m - 1) // 2
            assert (slots <= MAX_INDICES) == fits
            if fits:
                SampleRecovery(slots, capacity=1, seed=m)
            else:
                with pytest.raises(ValueError, match=str(MAX_INDICES)):
                    SampleRecovery(slots, capacity=1, seed=m)
    rng = random.Random(n)
    for i in [1, pairs] + [rng.randint(1, pairs) for _ in range(2000)]:
        assert _decoded([i], n) == [Edge.from_index(i, n)]
    ends = _row_ends(n)
    assert len(set(ends)) == 2 * (n - 1) - 1  # row n-1 holds one edge
    assert _decoded(ends, n) == [Edge.from_index(i, n) for i in ends]


def test_an_edge_outside_1_to_n_is_refused_and_changes_nothing():
    # unchecked, (1, 5) at n=4 would take (2, 3)'s index, and the query
    # would answer Yes with cover {2}
    st, fresh = mk(n=4, k=1), mk(n=4, k=1)
    for st_ in (st, fresh):
        dpsa_update(st_, StreamUpdate(INSERT, Edge(1, 2)))
    with pytest.raises(ValueError, match="outside 1..4"):
        dpsa_update(st, StreamUpdate(INSERT, Edge(1, 5)))
    assert st.live == fresh.live == 1
    assert st.sketch.state_equals(fresh.sketch)
    ans = dpsa_query(st)
    assert ans.is_yes and ans.cover == dpsa_query(fresh).cover
    assert covers(ans.cover, [Edge(1, 2)]) and not ans.degraded
