"""Acceptance suite: one test per criterion, one PASS line each.

Every criterion compares the streaming implementations against
independent brute-force oracles or exact shadow bookkeeping at desk
scale, with the stated tolerances and runtime budgets.
"""

import itertools
import random
import time

import pytest

from vcstream.core import Config, Edge, StreamUpdate, covers, INSERT
from vcstream.dpsa import DpsaState, dpsa_query, dpsa_update
from vcstream.fvs import FvsState, fvs_decide, fvs_insert, fvs_query
from vcstream.kernel import vc_decide
from vcstream.pdpsa import MatchingState, pdpsa_query
from vcstream.psa import PsaState, psa_insert, psa_query
from vcstream.sketch import EMPTY, FAIL, INDEX, SampleRecovery, derive_seed
from vcstream.harness.generators import (gen_disjointness_gadget,
                                         gen_index_gadget,
                                         gen_promised_stream,
                                         gen_random_stream)
from vcstream.harness.invariants import check_invariants
from vcstream.harness.oracles import (oracle_fvs, oracle_min_vc, oracle_vc,
                                      _acyclic)
from vcstream.harness.streams import ShadowGraph


def announce(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


# -- suite 1/2: insertion-only streams --------------------------------------


@pytest.fixture(scope="module")
def psa_suite():
    """300 random insertion streams, queried and space-audited per insert."""
    rng = random.Random(101)
    started = time.perf_counter()
    prefixes = 0
    mismatches = 0
    space_breaks = 0
    for run in range(300):
        n = rng.randint(4, 18)
        k = rng.randint(0, 5)
        max_edges = n * (n - 1) // 2
        length = rng.randint(1, min(28, max_edges))
        st = PsaState(k=k)
        sh = ShadowGraph()
        seen = set()
        while len(seen) < length:
            u, v = rng.sample(range(1, n + 1), 2)
            e = Edge(u, v)
            if e in seen:
                continue
            seen.add(e)
            sh.insert(e)
            psa_insert(st, e)
            prefixes += 1
            if psa_query(st, k).kind != oracle_vc(sh.edges(), k).kind:
                mismatches += 1
            if st.dead:
                if st.stored:
                    space_breaks += 1
            else:
                # each stored list starts with its vertex's matching edge
                matching = {lst[0] for lst in st.stored.values()}
                non_matching = st.stored_edges() - matching
                if len(non_matching) > 2 * k * k or len(st.stored) > 2 * k:
                    space_breaks += 1
    return dict(prefixes=prefixes, mismatches=mismatches,
                space_breaks=space_breaks,
                elapsed=time.perf_counter() - started)


def test_criterion_1_psa_exactness(psa_suite):
    assert psa_suite["mismatches"] == 0
    assert psa_suite["elapsed"] < 60
    announce(1, f"psa equals oracle on all {psa_suite['prefixes']} prefixes "
                f"of 300 streams in {psa_suite['elapsed']:.1f}s")


def test_criterion_2_psa_space(psa_suite):
    assert psa_suite["space_breaks"] == 0
    announce(2, "non-matching stored edges <= 2k^2 and |V_M| <= 2k at "
                f"every one of {psa_suite['prefixes']} steps")


# -- suite 3/4/5: promised dynamic streams ----------------------------------


@pytest.fixture(scope="module")
def pdpsa_suite():
    """100 promised dynamic streams replayed with full auditing."""
    rng = random.Random(202)
    started = time.perf_counter()
    res = dict(updates=0, invariant_breaks=0, sketch_fails=0,
               space_breaks=0, runs=0, final_mismatches=0, bad_certs=0)
    for run in range(100):
        n = rng.randint(10, 40)
        k = rng.randint(1, 4)
        length = rng.randint(100, 600)
        churn = rng.uniform(0.3, 0.45)
        cfg = Config(n=n, k=k, delta=0.01, seed=run)
        st = MatchingState(cfg)
        sh = ShadowGraph()
        for upd in gen_promised_stream(cfg, length, churn, rng):
            sh.apply(upd)
            st.apply(upd)
            res["updates"] += 1
            if check_invariants(st, sh):
                res["invariant_breaks"] += 1
            if len(st.sketches) > 2 * k or len(st.tdict) > 2 * k * k:
                res["space_breaks"] += 1
        res["sketch_fails"] += st.sketch_fail_count
        res["runs"] += 1
        ans = pdpsa_query(st)
        oracle = oracle_vc(sh.edges(), k)
        if ans.kind != oracle.kind:
            res["final_mismatches"] += 1
        if ans.is_yes and not (len(ans.cover) <= k
                               and covers(ans.cover, sh.edges())):
            res["bad_certs"] += 1
    res["elapsed"] = time.perf_counter() - started
    return res


def test_criterion_3_pdpsa_invariants(pdpsa_suite):
    assert pdpsa_suite["invariant_breaks"] == 0
    assert pdpsa_suite["sketch_fails"] == 0
    assert pdpsa_suite["elapsed"] < 300
    announce(3, "invariants 1-3 + maximality held after all "
                f"{pdpsa_suite['updates']} updates of 100 streams, "
                f"0 sketch failures, {pdpsa_suite['elapsed']:.1f}s")


def test_criterion_4_pdpsa_end_to_end(pdpsa_suite):
    agree = pdpsa_suite["runs"] - pdpsa_suite["final_mismatches"]
    assert agree / pdpsa_suite["runs"] >= 0.99
    assert pdpsa_suite["bad_certs"] == 0
    announce(4, f"final query equals oracle in {agree}/"
                f"{pdpsa_suite['runs']} runs, all certificates verified")


def test_criterion_5_pdpsa_space(pdpsa_suite):
    assert pdpsa_suite["space_breaks"] == 0
    announce(5, "<= 2k live sketches and |T| <= 2k^2 at every step")


# -- criterion 6: hard-instance gadget --------------------------------------


def test_criterion_6_index_gadget_lemma():
    rng = random.Random(303)
    checked = 0
    for k in (2, 3, 4):
        for _ in range(50):
            x = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            i, j = rng.randint(1, k), rng.randint(1, k)
            edges = gen_index_gadget(x, i, j)
            want = 2 * k - 2 + x[i - 1][j - 1]
            assert oracle_min_vc(edges)[0] == want
            assert vc_decide(edges, 2 * k - 2).is_yes == (want <= 2 * k - 2)
            assert vc_decide(edges, 2 * k - 1).is_yes
            checked += 1
    announce(6, f"min cover = 2k-2+X[I,J] on {checked} random gadgets, "
                "solver agrees at both probe budgets")


# -- criterion 7: unrestricted dynamic --------------------------------------


def test_criterion_7_dpsa_gate_and_recovery():
    started = time.perf_counter()
    # complete-graph streams: the edge-count gate must answer alone
    for n, k in ((6, 2), (8, 3), (10, 4)):
        assert n * k < n * (n - 1) // 2
        st = DpsaState(Config(n=n, k=k, seed=n))
        st.sketch.recover = None  # recovery must not be touched
        for u, v in itertools.combinations(range(1, n + 1), 2):
            dpsa_update(st, StreamUpdate(INSERT, Edge(u, v)))
        assert dpsa_query(st, k).is_no

    rng = random.Random(404)
    runs = mismatches = inexact = 0
    while runs < 300:
        n = rng.randint(5, 30)
        k = rng.randint(0, 4)
        st = DpsaState(Config(n=n, k=k, seed=runs))
        sh = ShadowGraph()
        length = rng.randint(5, min(80, 2 * n * max(k, 1)))
        for upd in gen_random_stream(n, length, 0.35, rng):
            sh.apply(upd)
            dpsa_update(st, upd)
        if st.live > n * k:
            continue
        runs += 1
        recovered = {Edge.from_index(i, n) for i in st.sketch.recover()}
        if recovered != sh.edges():
            inexact += 1
        if dpsa_query(st, k).kind != oracle_vc(sh.edges(), k).kind:
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert (runs - mismatches) / runs >= 0.99
    assert (runs - inexact) / runs >= 0.99
    assert elapsed < 120
    announce(7, f"gate rejected all K_n streams; recovery exact and answer "
                f"= oracle in {runs - mismatches}/{runs} runs, "
                f"{elapsed:.1f}s")


# -- criterion 8: sampler statistics ----------------------------------------


def test_criterion_8_sampler_statistics():
    # support {5..8} reached through insert/delete churn on {1..8}
    queries = 10_000
    s = SampleRecovery(n_indices=8, capacity=8, seed=808, fail=0.01,
                       sampled=True)
    for i in range(1, 9):
        s.update(i, +1)
    for i in range(1, 5):
        s.update(i, +1)
    for _ in range(2):
        for i in range(1, 5):
            s.update(i, -1)
    counts = {5: 0, 6: 0, 7: 0, 8: 0}
    fails = 0
    for which in range(queries):
        got = s.sample(which)
        assert got.kind != EMPTY
        if got.kind == FAIL:
            fails += 1
        else:
            assert got.index in counts  # never outside the support
            counts[got.index] += 1
    hits = sum(counts.values())
    assert fails / queries <= 0.01
    for i, c in counts.items():
        assert abs(c / hits - 0.25) <= 0.03, (i, c / hits)
    announce(8, f"frequencies {[round(c / hits, 3) for c in counts.values()]}"
                f" all within 0.25 +/- 0.03, fail rate {fails / queries:.4f}")


# -- criterion 9: sparse recovery -------------------------------------------


def test_criterion_9_sparse_recovery():
    rng = random.Random(909)
    trials, failures = 1000, 0
    for t in range(trials):
        support = set(rng.sample(range(1, 1001), rng.randint(0, 50)))
        s = SampleRecovery(n_indices=1000, capacity=50, seed=t,
                           fail=0.01 / 2000)
        for i in support:
            s.update(i, +1)
        try:
            if s.recover() != support:
                failures += 1
        except Exception:
            failures += 1
    assert failures / trials <= 0.01

    # exact linearity: permutation and cancellation
    seq = [(rng.randint(1, 1000), rng.choice([1, -1])) for _ in range(400)]
    a = SampleRecovery(1000, 50, seed=5, sampled=True)
    b = SampleRecovery(1000, 50, seed=5, sampled=True)
    fresh = SampleRecovery(1000, 50, seed=5, sampled=True)
    for i, d in seq:
        a.update(i, d)
    for i, d in sorted(seq):
        b.update(i, d)
    assert a.state_equals(b)
    for i, d in seq:
        a.update(i, -d)
    assert a.state_equals(fresh)
    announce(9, f"{trials - failures}/{trials} exact recoveries, "
                "permutation and cancellation exact")


# -- criterion 10: feedback vertex set --------------------------------------


def test_criterion_10_fvs():
    rng = random.Random(111)
    for t in range(300):
        n = rng.randint(4, 14)
        edges = [Edge(u, v)
                 for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < rng.uniform(0.1, 0.45)]
        k = rng.randint(0, 4)
        ans = fvs_decide(edges, k)
        assert ans.kind == oracle_fvs(edges, k).kind
        if ans.is_yes:
            assert _acyclic(edges, set(ans.cover))

    # the gate flips exactly past n(k+1) stored edges
    n, k = 6, 1
    st = FvsState()
    for i, (u, v) in enumerate(itertools.combinations(range(1, 7), 2),
                               start=1):
        fvs_insert(st, Edge(u, v), n=n, k=k)
        assert st.dead == (i > n * (k + 1))
    assert fvs_query(st, k).is_no

    pairs = 0
    for blocks in (1, 2, 3, 4):
        for bits in itertools.product([0, 1], repeat=2 * blocks):
            x, y = list(bits[:blocks]), list(bits[blocks:])
            disjoint = all(not (a and b) for a, b in zip(x, y))
            gadget = gen_disjointness_gadget(x, y)
            assert _acyclic(gadget, set()) == disjoint
            pairs += 1
    announce(10, "solver = oracle on 300 graphs, gate exact at n(k+1)+1, "
                 f"gadget acyclicity = disjointness on {pairs} bit-pairs")
