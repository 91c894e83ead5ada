"""Promised-dynamic matching: procedures, invariants, query path."""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from vcstream.core import Config, Edge, SketchFail, StreamUpdate, covers
from vcstream.core import INSERT, DELETE
from vcstream.pdpsa import MatchingState, pdpsa_query
from vcstream.sketch import SampleRecovery, level_capacity
from vcstream.harness.generators import gen_promised_stream
from vcstream.harness.invariants import check_invariants
from vcstream.harness.oracles import oracle_vc
from vcstream.harness.streams import ShadowGraph

CFG = dict(n=12, k=3, delta=0.01, seed=0)


def mk(**kw):
    return MatchingState(Config(**{**CFG, **kw}))


def contents(st, v):
    """v's sketched neighborhood, read from its cells without keeping the
    read, and checked to be all that the sketch holds."""
    if v not in st.sketches:
        return set()
    sk = st.sketches[v]
    got = sk._fresh_read()[1]
    assert sk.holds(got)
    return got


def test_first_insert_matches_and_seeds_both_sketches():
    st = mk()
    st.insertion(Edge(1, 2))
    assert st.mate == {1: 2, 2: 1}
    assert st.ts[1] == st.ts[2] == 1
    assert Edge(1, 2) in st.tdict
    assert contents(st, 1) == {2} and contents(st, 2) == {1}


def test_single_matched_endpoint_goes_to_one_sketch():
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(2, 3))
    assert Edge(2, 3) not in st.tdict
    assert contents(st, 2) == {1, 3}
    assert 3 not in st.sketches


def test_both_matched_edge_enters_t_and_both_sketches():
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(3, 4))
    st.insertion(Edge(2, 3))
    assert Edge(2, 3) in st.tdict
    assert 3 in contents(st, 2) and 2 in contents(st, 3)


def test_delete_nonmatching_single_sketch_edge():
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(2, 3))
    st.deletion(Edge(2, 3))
    assert contents(st, 2) == {1}
    assert st.mate == {1: 2, 2: 1}


def test_delete_t_edge_clears_both_sketches():
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(3, 4))
    st.insertion(Edge(2, 3))
    st.deletion(Edge(2, 3))
    assert Edge(2, 3) not in st.tdict
    assert 3 not in contents(st, 2) and 2 not in contents(st, 3)


def test_rematch_low_degree_recovers_neighbor():
    # path 1-2-3; deleting the matching edge rematches 2 with 3
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(2, 3))
    st.deletion(Edge(1, 2))
    assert st.mate == {2: 3, 3: 2}
    assert 1 not in st.sketches


def test_delete_only_edge_empties_everything():
    st = mk()
    st.insertion(Edge(1, 2))
    st.deletion(Edge(1, 2))
    assert st.mate == {}
    assert st.sketches == {}
    assert st.tdict == {}


def test_timestamps_strictly_increase():
    st = mk()
    st.insertion(Edge(1, 2))
    st.insertion(Edge(3, 4))
    assert st.ts[1] == st.ts[2] < st.ts[3] == st.ts[4]


def test_promise_violation_detected_and_poisons_query():
    st = mk(k=1)
    st.insertion(Edge(1, 2))
    st.insertion(Edge(3, 4))
    assert st.violated_at == 2
    assert pdpsa_query(st).kind == "promise-violation"


def test_query_empty_k0():
    st = mk(k=0)
    assert pdpsa_query(st, 0).is_yes


def test_invariant_checker_flags_constructed_break():
    st = mk()
    sh = ShadowGraph()
    st.insertion(Edge(1, 2))
    sh.insert(Edge(1, 2))
    sh.insert(Edge(5, 6))  # live edge the state never saw
    violations = check_invariants(st, sh)
    assert any("neither sketch" in v for v in violations)
    assert any("exposed" in v for v in violations)


def _one_sided(st):
    del st.mate[2]


def _swapped(st):
    st.mate.update({1: 3, 3: 1, 2: 4, 4: 2})


def _unsketched(st):
    del st.sketches[2]


def _untimestamped(st):
    del st.ts[3]


def _sketch_at_exposed(st):
    st._fresh_sketch(5)


def _written(*writes):
    """Writes straight into 2's sketch, which holds 1 and 3."""
    def brk(st):
        for z, d in writes:
            st.sketches[2].update(z, d)
    return brk


def _not_held(support):
    return (f"sketch of 2 (support {support}) does not hold exactly its "
            "neighbors [1, 3]")


# on the path 1-2-3-4, matched as 1-2 and 3-4: T lists both matching
# edges, and (2, 3) sits in 2's sketch alone, which began first
@pytest.mark.parametrize("brk, want", [
    # 2 is exposed now, so 3's sketch should hold (2, 3)
    (_one_sided, ["mate of 1 is 2, whose mate is None",
                  "sketched vertex 2 is not matched",
                  "sketch of 3 (support 1) does not hold exactly its "
                  "neighbors [2, 4]"]),
    (_swapped, [f"matching edge {Edge(1, 3)} is not live",
                f"matching edge {Edge(2, 4)} is not live"]),
    (_unsketched, ["matched vertex 2 lacks sketch or timestamp",
                   f"T lists {Edge(1, 2)}, whose endpoint 2 has no "
                   "sketch"]),
    (_untimestamped, ["matched vertex 3 lacks sketch or timestamp"]),
    (_sketch_at_exposed, ["sketched vertex 5 is not matched"]),
    # the swap keeps the support counter, so only the cells show it
    (_written((3, -1), (5, +1)), [_not_held(2)]),
    (_written((3, +1)), [_not_held(3)]),
    (_written((5, +1)), [_not_held(3)]),
    (_written((3, -1)), [_not_held(1)]),
], ids=["one-sided-mate", "mate-pair-not-live", "matched-without-sketch",
        "matched-without-timestamp", "sketch-at-exposed-vertex",
        "swapped-neighbor", "doubled-weight", "phantom-neighbor",
        "lost-neighbor"])
def test_invariant_checker_flags_a_broken_mate_map(brk, want):
    st, sh = mk(), ShadowGraph()
    for e in (Edge(1, 2), Edge(2, 3), Edge(3, 4)):
        st.insertion(e)
        sh.insert(e)
    assert check_invariants(st, sh) == []
    brk(st)
    assert check_invariants(st, sh) == want


def test_fresh_state_empty_graph_ok():
    assert check_invariants(mk(), ShadowGraph()) == []


def _replay_checked(seed, n=14, k=3, length=150, churn=0.35):
    rng = random.Random(seed)
    cfg = Config(n=n, k=k, seed=seed)
    st = MatchingState(cfg)
    sh = ShadowGraph()
    for upd in gen_promised_stream(cfg, length, churn, rng):
        sh.apply(upd)
        st.apply(upd)
        violations = check_invariants(st, sh)
        assert violations == [], violations
    return st, sh


@pytest.mark.parametrize("seed", range(8))
def test_invariants_hold_on_promised_streams(seed):
    st, _ = _replay_checked(seed)
    assert st.sketch_fail_count == 0


@pytest.mark.parametrize("seed", range(8))
def test_query_matches_oracle_at_stream_end(seed):
    st, sh = _replay_checked(seed + 100)
    ans = pdpsa_query(st)
    oracle = oracle_vc(sh.edges(), st.config.k)
    assert ans.kind == oracle.kind
    if ans.is_yes:
        assert len(ans.cover) <= st.config.k
        assert covers(ans.cover, sh.edges())


def test_space_census_during_replay():
    rng = random.Random(42)
    cfg = Config(n=16, k=3, seed=42)
    st = MatchingState(cfg)
    for upd in gen_promised_stream(cfg, 200, 0.4, rng):
        st.apply(upd)
        assert len(st.sketches) <= 2 * cfg.k
        assert len(st.tdict) <= 2 * cfg.k * cfg.k
        if st.mate:
            assert st.words() > 0


def test_rematch_counter_moves_on_churny_streams():
    rng = random.Random(8)
    cfg = Config(n=14, k=3, seed=8)
    st = MatchingState(cfg)
    for upd in gen_promised_stream(cfg, 200, 0.4, rng):
        st.apply(upd)
    assert st.rematch_count > 0


def test_vertex_sketch_space_is_polylog_in_n():
    def words(n):
        st = MatchingState(Config(n=n, k=3))
        st._fresh_sketch(1)
        return st.sketches[1].words()

    base = words(1000)
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        assert words(n) <= base * (math.log2(n) / math.log2(1000)) ** 3


def test_vertex_sketch_words_at_n600_k2():
    # the dynamic-sketch benchmark's hub sketch held 247 764 words with
    # a sampler bank of 127 samplers x 41 reps x 11 levels, and 22 344
    # with 11 level grids beside a recovery grid for x = 254, 9 084 with
    # 7 level grids of 5 x 64 buckets, 3 453 with 7 of 7 x 17 and two
    # fingerprints a cell, 2 517 with one, and 1 686 with the count and
    # index sum packed in one word
    st = MatchingState(Config(n=600, k=2))
    st._fresh_sketch(1)
    assert st.sketches[1].words() <= 1_800


def _state_words(n, k):
    """Words of a pdpsa state with 2k sketched vertices, the most the
    promise allows, and nothing else stored."""
    st = MatchingState(Config(n=n, k=k))
    for v in range(1, 2 * k + 1):
        st._fresh_sketch(v)
    return st.words()


@pytest.mark.parametrize("n", [600, 10 ** 5])
def test_state_words_grow_slower_than_k_to_the_1_5(n):
    # the paper's bound is O~(k^2); at 2k sketches of about k words each
    # (the level capacity grows with need = 2k+1) this is about 16 from
    # k=1 to k=8, and was 32.7 (n=600) and 25.9 (n=10^5) with x = 8ck
    # log2(n/delta) and a recovery grid sized for it
    assert _state_words(n, 8) / _state_words(n, 1) <= 8 ** 1.5


@pytest.mark.parametrize("n", [10, 600, 10 ** 4, 10 ** 6])
def test_vertex_sketch_sizing_rules(n):
    # x fits the level capacity, so the sum of the level grids recovers
    # a low vertex exactly, and the levels are the fewest whose deepest
    # subsample fits that capacity but with probability fail = delta/2n
    # a plain import: without scipy this test fails rather than skips
    from scipy.stats import binom
    for k in range(1, 9):
        cfg = Config(n=n, k=k)
        st = MatchingState(cfg)
        st._fresh_sketch(1)
        sk = st.sketches[1]
        fail = cfg.delta / (2 * n)
        assert cfg.x == sk.capacity == min(2 * k + 1, n - 1)
        assert sk.capacity <= level_capacity(cfg.x, fail) \
            == sk.level_capacity
        tails = [binom.sf(sk.level_capacity, n, 0.5 ** lvl)
                 for lvl in range(sk.levels)]
        assert tails[-1] <= fail
        assert sk.levels == 1 or tails[-2] > fail


# -- high-support vertices --------------------------------------------------


def _hub_stream(rng, n, k, warm, churn):
    """Leaf edges round-robin over k planted hubs, then FIFO churn.

    ``warm`` inserts, then ``churn`` updates that alternately delete a
    hub's oldest live edge (the first are the matching's, so Rematch
    runs at a hub) and insert a fresh leaf edge at it.
    """
    hubs = rng.sample(range(1, n + 1), k)
    leaves = [v for v in range(1, n + 1) if v not in hubs]
    live, order, out = set(), {h: [] for h in hubs}, []

    def insert(h):
        e = Edge(h, rng.choice(leaves))
        while e in live:
            e = Edge(h, rng.choice(leaves))
        live.add(e)
        order[h].append(e)
        out.append(StreamUpdate(INSERT, e))

    for i in range(warm):
        insert(hubs[i % k])
    for j in range(churn):
        h = hubs[(j // 2) % k]
        if j % 2 == 0:
            e = order[h].pop(0)
            live.discard(e)
            out.append(StreamUpdate(DELETE, e))
        else:
            insert(h)
    return hubs, out


# n=40, k=2: x = 5, and each hub holds 15 leaf edges
HUB_CFG = dict(n=40, k=2)


@pytest.mark.parametrize("seed", range(3))
def test_high_support_rematch_on_hub_stream(seed):
    rng = random.Random(seed)
    cfg = Config(**HUB_CFG, seed=seed)
    assert cfg.x == 5
    st = MatchingState(cfg)
    sh = ShadowGraph()
    _, stream = _hub_stream(rng, cfg.n, cfg.k, warm=30, churn=90)
    high_rematches = 0
    for j, upd in enumerate(stream):
        if upd.op == DELETE and st.mate.get(upd.edge.u) == upd.edge.v:
            # the support still counts the deleted edge here
            high_rematches += any(st.sketches[w].support - 1 > cfg.x
                                  for w in (upd.edge.u, upd.edge.v))
        sh.apply(upd)
        st.apply(upd)
        assert check_invariants(st, sh) == []
        if j % 10 == 9:
            ans = pdpsa_query(st)
            assert ans.kind == oracle_vc(sh.edges(), cfg.k).kind
            if ans.is_yes:
                assert len(ans.cover) <= cfg.k
                assert covers(ans.cover, sh.edges())
    assert high_rematches > 0 and st.rematch_count > 0
    assert st.sketch_fail_count == 0 and st.rematch_miss_count == 0


def test_high_support_shortfall_raises_sketch_fail(monkeypatch):
    from vcstream.pdpsa import SketchFail
    from vcstream.sketch import SampleRecovery
    cfg = Config(**HUB_CFG, seed=1)
    st = MatchingState(cfg)
    hubs, stream = _hub_stream(random.Random(1), cfg.n, cfg.k, warm=30,
                               churn=0)
    for upd in stream:
        st.apply(upd)
    assert all(st.sketches[h].support > cfg.x for h in hubs)
    real = SampleRecovery.recover

    def short(self):
        got = real(self)
        return set(sorted(got)[:1]) if self.support > self.capacity else got
    monkeypatch.setattr(SampleRecovery, "recover", short)
    # the query and Rematch read the same 2k+1 neighbors of a hub
    with pytest.raises(SketchFail, match="recovered 1 of 5 neighbors"):
        st.extract_kernel_edges()
    assert st.sketch_fail_count == 1
    # the hub's first edge is its matching edge
    hub_edge = Edge(hubs[0], st.mate[hubs[0]])
    with pytest.raises(SketchFail, match="recovered 1 of 5 neighbors"):
        st.deletion(hub_edge)
    assert st.sketch_fail_count == 2


# -- degraded answers -------------------------------------------------------


def test_sketch_fail_flags_every_later_answer(monkeypatch):
    # the stall of the CLI's exit-5 test: every level read fails
    from vcstream.pdpsa import SketchFail
    from vcstream.sketch import RecoveryFail, SampleRecovery
    cfg = Config(**HUB_CFG, seed=1)
    # the fresh answer comes from a twin, so that st holds no memoised
    # recovery and the stall below hits a real read
    st, twin = MatchingState(cfg), MatchingState(cfg)
    sh = ShadowGraph()
    _, stream = _hub_stream(random.Random(1), cfg.n, cfg.k, warm=30,
                            churn=0)
    for upd in stream:
        sh.apply(upd)
        st.apply(upd)
        twin.apply(upd)
    fresh = pdpsa_query(twin)
    assert fresh.kind == oracle_vc(sh.edges(), cfg.k).kind
    assert fresh.degraded is False and st.degraded is False
    real = SampleRecovery.recover

    def stall(self):
        if self.support > self.capacity:
            raise RecoveryFail("peeling stalled")
        return real(self)
    with monkeypatch.context() as patch:
        patch.setattr(SampleRecovery, "recover", stall)
        with pytest.raises(SketchFail):
            pdpsa_query(st)
    assert st.degraded
    again = pdpsa_query(st)
    assert again.degraded
    assert (again.kind, again.cover) == (fresh.kind, fresh.cover)


def test_rematch_miss_flags_every_later_answer():
    # past a broken promise, vertex 1 holds four neighbors, all matched,
    # when its matching edge goes: Rematch finds no exposed one
    st = mk(k=1)
    assert pdpsa_query(st).degraded is False
    for u, v in ((1, 2), (3, 4), (5, 6), (1, 3), (1, 4), (1, 5), (1, 6)):
        st.insertion(Edge(u, v))
    assert st.violated_at == 2 and not st.degraded
    st.deletion(Edge(1, 2))
    assert st.rematch_miss_count == 1 and st.degraded
    ans = pdpsa_query(st)
    assert ans.kind == "promise-violation" and ans.degraded


# -- kept reads -------------------------------------------------------------


class _NoMemo(MatchingState):
    """A state whose sketches drop their kept read before each read."""

    def _recover_neighbors(self, v):
        for sk in self.sketches.values():
            sk._held = None
        return super()._recover_neighbors(v)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SketchFail as exc:
        return str(exc)


# n=150, k=1: a hub of 100 leaf edges, past 4x its level capacity of 22,
# reads at level 2 or deeper
DEEP_HUB_CFG = dict(n=150, k=1)


def _held_reads_are_fresh(state):
    for sk in state.sketches.values():
        if sk._held is not None:
            assert sk._held == sk._fresh_read()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.sampled_from(["promised", "hubs", "deep-hub"]),
       st.integers(0, 2 ** 16), st.integers(2, 6))
@example("deep-hub", 0, 3)
@example("deep-hub", 1, 2)
def test_memo_changes_no_answer_counter_or_invariant(kind, seed, every):
    rng = random.Random(seed)
    if kind == "promised":
        cfg = Config(n=14, k=3, seed=seed)
        stream = gen_promised_stream(cfg, 80, 0.35, rng)
    elif kind == "hubs":
        cfg = Config(**HUB_CFG, seed=seed)
        _, stream = _hub_stream(rng, cfg.n, cfg.k, warm=30, churn=50)
    else:
        cfg = Config(**DEEP_HUB_CFG, seed=seed)
        _, stream = _hub_stream(rng, cfg.n, cfg.k, warm=100, churn=120)
    memo, plain = MatchingState(cfg), _NoMemo(cfg)
    sh = ShadowGraph()
    kept = 0
    for j, upd in enumerate(stream):
        sh.apply(upd)
        before = {v: (sk._held, list(sk.level_support))
                  for v, sk in memo.sketches.items()}
        assert _outcome(memo.apply, upd) == _outcome(plain.apply, upd)
        # a sketch written by this update whose read survived it
        kept += sum(sk._held is not None and before[v][0] is sk._held
                    and before[v][1] != sk.level_support
                    for v, sk in memo.sketches.items() if v in before)
        _held_reads_are_fresh(memo)
        assert check_invariants(memo, sh) == check_invariants(plain, sh)
        assert (memo.mate, memo.tdict, memo.ts) == \
            (plain.mate, plain.tdict, plain.ts)
        if j % every == 0:
            a, b = _outcome(pdpsa_query, memo), _outcome(pdpsa_query, plain)
            if isinstance(a, str):
                assert a == b
            else:
                assert (a.kind, a.cover, a.degraded) == \
                    (b.kind, b.cover, b.degraded)
            _held_reads_are_fresh(memo)
        assert (memo.rematch_count, memo.rematch_miss_count,
                memo.sketch_fail_count, memo.degraded, memo.violated_at) == \
            (plain.rematch_count, plain.rematch_miss_count,
             plain.sketch_fail_count, plain.degraded, plain.violated_at)
    if kind == "deep-hub":
        assert kept > 0


def _hub_state(hub_cfg=HUB_CFG, warm=30):
    """(state, hubs, live edges) after the warm-up inserts alone."""
    cfg = Config(**hub_cfg, seed=1)
    st = MatchingState(cfg)
    hubs, stream = _hub_stream(random.Random(1), cfg.n, cfg.k, warm=warm,
                               churn=0)
    for upd in stream:
        st.apply(upd)
    return st, hubs, {upd.edge for upd in stream}


def test_a_write_keeps_a_read_only_below_the_level_it_read(monkeypatch):
    st, (h,), live = _hub_state(DEEP_HUB_CFG, warm=100)
    sk = st.sketches[h]
    # the hub's live neighbors, each in its sketch
    nbrs = {e.other(h) for e in live}
    assert sk.holds(nbrs)
    real, reads = SampleRecovery._fresh_read, []

    def counted(self):
        reads.append(self)
        return real(self)
    monkeypatch.setattr(SampleRecovery, "_fresh_read", counted)

    def hub_reads_after(op, z):
        # the update writes the hub's sketch alone: z is unmatched
        assert z not in st.mate
        st.apply(StreamUpdate(op, Edge(h, z)))
        (nbrs.add if op == INSERT else nbrs.remove)(z)
        reads.clear()
        pdpsa_query(st)
        return sum(r is sk for r in reads)

    first = pdpsa_query(st)
    level = sk._held[0]
    assert level >= 2 and sk.support >= 4 * sk.level_capacity
    reads.clear()
    assert pdpsa_query(st) == first and reads == []
    free = [z for z in range(1, st.config.n + 1)
            if z != h and z not in st.mate and z not in nbrs]
    # a write at depth below level - 1 keeps the read
    z = next(z for z in free if sk._depth(z) < level - 1)
    assert hub_reads_after(INSERT, z) == 0 and sk._held[0] == level
    # a write at depth level or more forces a real read
    z = next(z for z in free if sk._depth(z) >= level)
    assert hub_reads_after(INSERT, z) == 1
    # writes at depth level - 1 keep the read while the level above holds
    # more than the level capacity; the one that makes it fit forces a
    # real read, which starts there
    level = sk._held[0]
    assert level >= 2
    above = sorted(z for z in nbrs
                   if sk._depth(z) == level - 1 and z not in st.mate)
    while sum(sk.level_support[level - 1:]) > sk.level_capacity + 1:
        assert hub_reads_after(DELETE, above.pop()) == 0
        assert sk._held[0] == level
    assert hub_reads_after(DELETE, above.pop()) == 1
    assert sk._held[0] == level - 1
    # the query's read is Rematch's: no other read of the hub is real
    reads.clear()
    assert len(st._recover_neighbors(h)) >= st.config.x
    assert reads == []


def test_words_count_the_memo_and_stay_under_dpsa():
    st, _, _ = _hub_state()
    bare = st.words()
    pdpsa_query(st)
    held = sum(1 + len(sk._held[1]) for sk in st.sketches.values()
               if sk._held is not None)
    assert held > 0 and st.words() == bare + held
    # the dynamic-sketch benchmark's pdpsa shape, n=600, k=2, two hubs
    # past capacity under churn: with its kept reads the state peaks at
    # 10 151 words here, and sets that benchmark's words_peak (the dpsa
    # state at n=600, k=3 takes 9 670)
    cfg = Config(n=600, k=2, seed=5)
    st = MatchingState(cfg)
    _, stream = _hub_stream(random.Random(5), cfg.n, cfg.k, warm=80,
                            churn=80)
    peak = 0
    for j, upd in enumerate(stream):
        st.apply(upd)
        if j % 4 == 0:
            pdpsa_query(st)
            assert all(sk._held is not None for sk in st.sketches.values())
        peak = max(peak, st.words())
    assert peak <= 10_200


# -- refused input ----------------------------------------------------------


def _snapshot(st):
    return (st.clock, dict(st.mate), dict(st.ts),
            dict(st.tdict),
            {v: (sk.support, list(sk.level_support), sk.cells.tobytes())
             for v, sk in st.sketches.items()})


@pytest.mark.parametrize("op", [INSERT, DELETE])
def test_an_edge_outside_1_to_n_is_refused_and_changes_nothing(op):
    # checked late, + (1, 5) at n=4 would enter the matching and T
    # before its sketch write raised, and a later query would answer Yes
    # with an empty cover
    st = mk(n=4, k=1)
    st.apply(StreamUpdate(INSERT, Edge(2, 3)))
    before = _snapshot(st)
    for e in (Edge(1, 5), Edge(0, 2)):
        with pytest.raises(ValueError, match="outside 1..4"):
            st.apply(StreamUpdate(op, e))
        assert _snapshot(st) == before
    ans = pdpsa_query(st)
    assert ans.is_yes and covers(ans.cover, [Edge(2, 3)])


def _star_state(k):
    """The star 5-{1, 2, 3, 4}: a cover of one, and vertex 5 past the
    sketch capacity x = 3 at k=1."""
    st = mk(n=5, k=k)
    for leaf in range(1, 5):
        st.apply(StreamUpdate(INSERT, Edge(leaf, 5)))
    return st


def test_a_query_above_the_states_k_is_refused():
    # with k=1 a vertex yields only k+1 = 2 neighbors, so a k=2 query
    # would answer Yes {1, 2}, which misses the star's other two edges
    st = _star_state(k=1)
    with pytest.raises(ValueError, match="k=2 exceeds the state's k=1"):
        pdpsa_query(st, 2)
    assert not st.degraded
    for k in (None, 1, 0):
        ans = pdpsa_query(st, k)
        want = oracle_vc({Edge(leaf, 5) for leaf in range(1, 5)},
                         1 if k is None else k)
        assert ans.kind == want.kind and not ans.degraded
        if ans.is_yes:
            assert ans.cover == {5}
