"""Exact solvers against their pre-bound reference copies and the oracles.

``vc_decide`` and ``fvs_decide`` cut their searches with lower bounds (a
greedy matching, a packing of disjoint 2-cycles).  A bound may only skip
a search that holds no solution, so both must return exactly the answer
and the certificate of the plain searches they replaced, which are kept
below as reference copies.
"""

import itertools
import os
import subprocess
import sys
import types

from hypothesis import given, settings, strategies as st

import vcstream
from vcstream import dpsa, fvs, kernel
from vcstream.core import Config, Edge, INSERT, StreamUpdate, VcAnswer, covers
from vcstream.harness.oracles import _acyclic, oracle_fvs, oracle_vc

SRC = os.path.dirname(os.path.dirname(vcstream.__file__))


# -- reference copies of the solvers before the bounds ----------------------


def _ref_kernelize(edges, k):
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
    for w in [w for w in adj if not adj[w]]:
        del adj[w]
    kept = {Edge(u, v) for u, nbrs in adj.items() for v in nbrs if u < v}
    if len(kept) > k_res * k_res:
        return None
    return kept, k_res, forced


def _ref_branch_cover(uncovered, budget):
    if not uncovered:
        return set()
    if budget == 0:
        return None
    e = min(uncovered)
    for pick in (e.u, e.v):
        rest = [f for f in uncovered if f.u != pick and f.v != pick]
        sub = _ref_branch_cover(rest, budget - 1)
        if sub is not None:
            return {pick} | sub
    return None


def ref_vc_decide(edges, k):
    kern = _ref_kernelize(set(edges), k)
    if kern is None:
        return VcAnswer.no()
    kept, k_res, forced = kern
    cover = _ref_branch_cover(sorted(kept), k_res)
    if cover is None:
        return VcAnswer.no()
    return VcAnswer.yes(set(forced) | cover)


class _RefMultiGraph:
    def __init__(self, edges):
        self.mult, self.adj, self.loops = {}, {}, set()
        for e in edges:
            self.add(e.u, e.v)

    def add(self, u, v):
        if u == v:
            self.loops.add(u)
            self.adj.setdefault(u, set())
            return
        key = (min(u, v), max(u, v))
        self.mult[key] = self.mult.get(key, 0) + 1
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)

    def degree(self, u):
        d = sum(self.mult[(min(u, v), max(u, v))] for v in self.adj.get(u, ()))
        return d + 2 * (u in self.loops)

    def remove_vertex(self, u):
        for v in list(self.adj.get(u, ())):
            del self.mult[(min(u, v), max(u, v))]
            self.adj[v].discard(u)
        self.adj.pop(u, None)
        self.loops.discard(u)

    def vertices(self):
        return set(self.adj) | self.loops


def ref_fvs_decide(edges, k):
    g = _RefMultiGraph(set(edges))
    forced, budget = [], k
    changed = True
    while changed:
        changed = False
        for u in sorted(g.vertices()):
            if u not in g.adj and u not in g.loops:
                continue
            if u in g.loops:
                if budget == 0:
                    return VcAnswer.no()
                forced.append(u)
                budget -= 1
                g.remove_vertex(u)
                changed = True
            elif g.degree(u) <= 1:
                g.remove_vertex(u)
                changed = True
            elif g.degree(u) == 2:
                nbrs = [v for v in g.adj[u]
                        for _ in range(g.mult[(min(u, v), max(u, v))])]
                g.remove_vertex(u)
                g.add(nbrs[0], nbrs[1])
                changed = True
    remaining = sorted(g.vertices())
    live = [Edge(u, v) for (u, v) in g.mult]
    doubled = {uv for uv, m in g.mult.items() if m > 1}
    for size in range(min(budget, len(remaining)) + 1):
        for combo in itertools.combinations(remaining, size):
            removed = set(combo)
            if any(u not in removed and v not in removed
                   for (u, v) in doubled):
                continue
            if _acyclic(live, removed):
                return VcAnswer.yes(set(forced) | removed)
    return VcAnswer.no()


# -- graph families ---------------------------------------------------------


def fan(hub, path):
    return [Edge(hub, p) for p in path] + [Edge(a, b)
                                           for a, b in zip(path, path[1:])]


def bridged_fans(blocks, size):
    """``blocks`` fans on ``size``-vertex paths, hubs joined in a path;
    the minimum FVS is the hubs (one per fan)."""
    edges, hubs = [], []
    for b in range(blocks):
        hub = b * (size + 1) + 1
        hubs.append(hub)
        edges += fan(hub, list(range(hub + 1, hub + size + 1)))
    return edges + [Edge(a, b) for a, b in zip(hubs, hubs[1:])]


def wheel(rim):
    """Hub 1 joined to a cycle on 2..rim+1; the minimum FVS has 2."""
    cycle = list(range(2, rim + 2))
    return fan(1, cycle) + [Edge(cycle[-1], cycle[0])]


K4 = [Edge(u, v) for u, v in itertools.combinations(range(1, 5), 2)]

# at most 14 vertices each, within both oracles' budgets
FAMILIES = ([bridged_fans(b, s) for b, s in ((1, 3), (1, 5), (2, 3), (2, 5),
                                             (3, 3))]
            + [wheel(r) for r in (3, 4, 6, 9, 13)] + [K4])

graphs = st.integers(2, 12).flatmap(lambda n: st.lists(
    st.tuples(st.integers(1, n), st.integers(1, n))
    .filter(lambda t: t[0] != t[1]).map(lambda t: Edge(*t)),
    max_size=n * (n - 1) // 2))


def _same(got, want):
    assert got.kind == want.kind
    assert got.cover == want.cover


# -- differential and oracle sweeps -----------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs, st.integers(0, 4))
def test_vc_decide_equals_reference_and_oracle(edges, k):
    ans = kernel.vc_decide(edges, k)
    _same(ans, ref_vc_decide(edges, k))
    assert ans.kind == oracle_vc(edges, k).kind
    if ans.is_yes:
        assert len(ans.cover) <= k and covers(ans.cover, edges)


@st.composite
def vc_instances(draw):
    """(n, edges, k) with n <= 40 and k <= 6: random edges, a star whose
    hub may pass k, and edges on a planted set of about k vertices, so
    that both answers and both of Buss's No rules occur near the
    threshold.  Each part may be empty, and so may the graph."""
    n = draw(st.integers(2, 40))
    k = draw(st.integers(0, 6))
    vertex = st.integers(1, n)
    edges = {Edge(u, v) for u, v in draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda t: t[0] != t[1]),
        max_size=draw(st.sampled_from([0, 4, 12, 40]))))}
    hub = draw(vertex)
    edges |= {Edge(hub, w) for w in draw(st.sets(
        vertex.filter(lambda w: w != hub), max_size=k + 3))}
    planted = draw(st.sets(vertex, max_size=min(n, k + 1)))
    for c in sorted(planted):
        edges |= {Edge(c, w) for w in draw(st.sets(
            vertex.filter(lambda w: w != c), max_size=k + 2))}
    return n, sorted(edges), k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(vc_instances())
def test_dpsa_array_decision_equals_kernelize_and_reference(instance):
    n, edges, k = instance
    u, v = dpsa.decode_edges([e.index(n) for e in edges], n)
    assert dpsa.kernelize_arrays(u, v, k, n) == kernel.kernelize(edges, k)
    want = kernel.vc_decide(edges, k)
    _same(want, ref_vc_decide(edges, k))
    _same(dpsa.vc_decide_arrays(u, v, k, n), want)
    # the whole query: sketch, n*k gate, recovery and decode
    state = dpsa.DpsaState(Config(n=n, k=6, seed=n))
    for e in edges:
        dpsa.dpsa_update(state, StreamUpdate(INSERT, e))
    _same(dpsa.dpsa_query(state, k), want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs, st.integers(0, 4))
def test_fvs_decide_equals_reference_and_oracle(edges, k):
    ans = fvs.fvs_decide(edges, k)
    _same(ans, ref_fvs_decide(edges, k))
    assert ans.kind == oracle_fvs(edges, k).kind
    if ans.is_yes:
        assert len(ans.cover) <= k and _acyclic(set(edges), set(ans.cover))


def test_families_equal_reference_and_oracle():
    for edges in FAMILIES:
        for k in range(5):
            ans = kernel.vc_decide(edges, k)
            _same(ans, ref_vc_decide(edges, k))
            assert ans.kind == oracle_vc(edges, k).kind
            ans = fvs.fvs_decide(edges, k)
            _same(ans, ref_fvs_decide(edges, k))
            assert ans.kind == oracle_fvs(edges, k).kind


# -- the bounds fire where they should, and only there ----------------------


def _count_subsets(monkeypatch):
    """Record every subset the FVS search enumerates."""
    seen = []

    def combinations(items, size):
        for combo in itertools.combinations(items, size):
            seen.append(combo)
            yield combo

    monkeypatch.setattr(fvs, "itertools",
                        types.SimpleNamespace(combinations=combinations))
    return seen


def test_packing_bound_answers_no_without_search(monkeypatch):
    # four fans leave four disjoint doubled pairs after the reductions
    edges = bridged_fans(4, 8)
    seen = _count_subsets(monkeypatch)
    assert fvs.fvs_decide(edges, 3).is_no
    assert seen == []
    _same(fvs.fvs_decide(edges, 4), ref_fvs_decide(edges, 4))


def test_no_without_packing_bound_searches(monkeypatch):
    # K4 has no vertex of degree < 3 and no doubled pair: the search runs
    seen = _count_subsets(monkeypatch)
    assert fvs.fvs_decide(K4, 1).is_no
    assert len(seen) == 1 + 4  # the empty set, then each single vertex
    assert oracle_fvs(K4, 1).is_no


def _bound_hits(monkeypatch):
    hits = []
    real = kernel.matching_exceeds

    def recording(edges, budget):
        out = real(edges, budget)
        hits.append(out)
        return out

    monkeypatch.setattr(kernel, "matching_exceeds", recording)
    return hits


def test_matching_bound_cuts_at_root(monkeypatch):
    # three disjoint edges survive kernelization at k=2 (3 <= 4 edges)
    edges = [Edge(1, 2), Edge(3, 4), Edge(5, 6)]
    hits = _bound_hits(monkeypatch)
    assert kernel.vc_decide(edges, 2).is_no
    assert hits == [True]
    assert oracle_vc(edges, 2).is_no


def test_no_without_matching_bound_branches(monkeypatch):
    # a 7-cycle needs 4; its greedy matching has 3 edges, within k=3
    c7 = [Edge(i, i % 7 + 1) for i in range(1, 8)]
    hits = _bound_hits(monkeypatch)
    assert kernel.vc_decide(c7, 3).is_no
    assert hits[0] is False and len(hits) > 1
    assert oracle_vc(c7, 3).is_no
    _same(kernel.vc_decide(c7, 4), ref_vc_decide(c7, 4))


def test_index_gadget_certificates_match_reference():
    from vcstream.harness.generators import gen_index_gadget
    for bit in (0, 1):
        x = [[1, 0, 1], [0, bit, 1], [1, 1, 0]]
        edges = gen_index_gadget(x, 2, 2)
        for k in (3, 4, 5):
            _same(kernel.vc_decide(edges, k), ref_vc_decide(edges, k))
            assert kernel.vc_decide(edges, k).kind == oracle_vc(edges, k).kind


# -- checks that survive python -O ------------------------------------------


def _run_optimised(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_forged_certificates_raise_under_optimisation():
    code = """
import sys
from vcstream import SolverError, dpsa, fvs, kernel
from vcstream.core import Config, Edge, INSERT, StreamUpdate, VcAnswer
assert False, "-O strips this"
tri = [Edge(1, 2), Edge(1, 3), Edge(2, 3)]
# a recovered triangle at k=2 forces no vertex, so its kernel is solved
state = dpsa.DpsaState(Config(n=3, k=2))
for e in tri:
    dpsa.dpsa_update(state, StreamUpdate(INSERT, e))
caught = []
# a solver that returns a cover missing an edge
kernel.solve_kernel = lambda kern: VcAnswer.yes({3})
for call in (lambda: kernel.vc_decide(tri, 2),
             lambda: kernel.check_cover({1, 2, 3}, tri, 2),
             lambda: fvs.check_fvs(set(), tri, 1),
             lambda: fvs.check_fvs({1, 2}, tri, 1),
             lambda: dpsa.dpsa_query(state, 2)):
    try:
        call()
    except SolverError as exc:
        caught.append(str(exc))
# a solver that returns a cover with more than k vertices
kernel.solve_kernel = lambda kern: VcAnswer.yes({1, 2, 3})
try:
    dpsa.dpsa_query(state, 2)
except SolverError as exc:
    caught.append(str(exc))
print(len(caught))
print(caught)
"""
    done = _run_optimised(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "6", done.stdout
    assert "'certificate misses an edge', 'certificate has 3 vertices, " \
        "k=2']" in done.stdout, done.stdout
