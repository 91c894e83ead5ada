"""Promised-dynamic maximal matching with per-matched-vertex sketches.

Maintains a maximal matching under edge inserts and deletes, stored
once as a map from each matched vertex to its mate.  Every matched
vertex carries a linear sketch of its incident edges; the dictionary T
records the edges known to sit in both endpoints' sketches, and
per-vertex timestamps (when each vertex's current sketch began)
disambiguate which single sketch holds an edge that T does not know
about.  Three invariants tie these together:

1. every live edge is in at least one endpoint's sketch;
2. for a live edge with both endpoints matched, the edge is missing from
   exactly the endpoint whose sketch began later, unless T lists it;
3. the edge sits in both sketches exactly when T lists it.

``vcstream.harness.check_invariants`` audits them on the sketches' own
cells.

Each vertex sketch has one size, x = min(2k+1, n-1), one failure
target, delta/2n, and one read (``SampleRecovery.recover()``).  While
its support is at most x the read is the whole sketched neighborhood,
peeled from the sum of the sketch's level grids; past x it is at least
x distinct neighbors from one level's subsample, level 0 while the
whole neighborhood fits the level capacity, read in part: the grids are
sized for a whole read of x neighbors and a read of x of more, not for
a whole read of the level capacity.

Deleting a matched edge triggers Rematch: each endpoint reads its
sketch and pairs with the smallest exposed neighbor.  A low-support
endpoint reads every neighbor.  A high-support one reads 2k+1 of them,
and under the promise at most 2k vertices are matched, so one of them
is exposed.  No vertex has more than n-1 neighbors, so when 2k+1
exceeds that every vertex is low.  The query takes k+1 neighbors of
each matched vertex's read, its mate first.  A recovery that stalls or
returns fewer than min(x, support) neighbors raises ``SketchFail``; the
state is then ``degraded``, and so is every later answer.

A recovery is a function of the sketch's cells alone, so each sketch
keeps its last read until a write could change what a fresh read
returns: any write after a read of level 0, and a write into the
subsample a deeper read took.  A high-support vertex reads a deep
level, so most writes to it keep its read, and a query re-reads only
the sketches whose read a write dropped.

An update whose edge leaves 1..n, and a query whose k is negative or
exceeds the state's, raise ``ValueError`` before anything changes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .core import (DELETE, Config, Edge, SketchFail, StreamUpdate,
                   VcAnswer, check_query_k)
from .kernel import vc_decide

if TYPE_CHECKING:
    from .sketch import SampleRecovery


class MatchingState:
    """Sketch-backed maximal matching over a promised dynamic stream.

    ``mate`` holds the matching once, as a map from each matched vertex
    to its mate: an edge e is matched when ``mate.get(e.u) == e.v``, and
    the matching outgrows k when more than 2k vertices are matched.
    ``violated_at`` is the clock of the first update after which the
    matching outgrew k, or None while the promise holds.
    """

    def __init__(self, config: Config):
        self.config = config
        self.clock = 0
        self.mate: dict[int, int] = {}
        self.ts: dict[int, int] = {}
        self.sketches: dict[int, SampleRecovery] = {}
        self.tdict: dict[Edge, None] = {}
        self.violated_at: int | None = None
        self.rematch_count = 0
        self.rematch_miss_count = 0
        self.sketch_fail_count = 0
        self._sketch_epoch = 0

    # -- plumbing ----------------------------------------------------------

    def _fresh_sketch(self, v: int) -> None:
        # numpy loads with the first sketch, not with the module
        from .sketch import SampleRecovery, derive_seed
        cfg = self.config
        self._sketch_epoch += 1
        self.sketches[v] = SampleRecovery(
            n_indices=cfg.n, capacity=cfg.x,
            seed=derive_seed(cfg.seed, "vertex-sketch", v, self._sketch_epoch),
            fail=cfg.delta / (2 * cfg.n), sampled=True)

    def _recover_neighbors(self, v: int) -> frozenset[int]:
        """v's sketched neighborhood, or past capacity x at least x
        distinct neighbors of it."""
        sk = self.sketches[v]
        try:
            got = sk.recover()
        except SketchFail as exc:
            self.sketch_fail_count += 1
            raise SketchFail(f"recovery failed for vertex {v}") from exc
        want = min(sk.capacity, sk.support)  # the capacity is x
        if len(got) < want:
            self.sketch_fail_count += 1
            raise SketchFail(f"recovered {len(got)} of {want} neighbors "
                             f"for vertex {v}")
        return got

    def _is_low(self, v: int) -> bool:
        return self.sketches[v].support <= self.config.x

    def _check_promise(self) -> None:
        if self.violated_at is None and len(self.mate) > 2 * self.config.k:
            self.violated_at = self.clock

    @property
    def degraded(self) -> bool:
        """True once a recovery failed or a Rematch missed; every answer
        from then on carries the flag."""
        return bool(self.sketch_fail_count or self.rematch_miss_count)

    def words(self) -> int:
        """Sketch words, each kept read among them, 2 per edge of T, and
        4 per matched vertex: 2 for its entry in ``mate`` and 2 for its
        timestamp."""
        sk = sum(s.words() for s in self.sketches.values())
        return sk + 2 * len(self.tdict) + 4 * len(self.mate)

    # -- stream entry points -----------------------------------------------

    def apply(self, upd: StreamUpdate) -> None:
        if upd.op == DELETE:
            self.deletion(upd.edge)
        else:
            self.insertion(upd.edge)

    def _check_edge(self, e: Edge) -> None:
        # before any change: the sketch write that would refuse an index
        # past n comes after the matching and T take the edge
        if e.u < 1 or e.v > self.config.n:
            raise ValueError(f"edge {e} outside 1..{self.config.n}")

    def insertion(self, e: Edge) -> None:
        self._check_edge(e)
        self.clock += 1
        if e.u not in self.mate and e.v not in self.mate:
            self.add_edge_to_matching(e, self.clock)
        else:
            self.insert_to_ds(e)
        self._check_promise()

    def deletion(self, e: Edge) -> None:
        self._check_edge(e)
        self.clock += 1
        if self.mate.get(e.u) == e.v:
            self.rematch(e, self.clock)
        else:
            self.delete_from_ds(e)
        self.announce_neighborhood(e.u)
        self.announce_neighborhood(e.v)
        self._check_promise()

    # -- procedures --------------------------------------------------------

    def add_edge_to_matching(self, e: Edge, t: int) -> None:
        self.mate[e.u], self.mate[e.v] = e.v, e.u
        self.tdict[e] = None
        for z in (e.u, e.v):
            if z not in self.sketches:
                self.ts[z] = t
                self._fresh_sketch(z)
                self.sketches[z].update(e.other(z), +1)
            # a retained sketch already holds e: during Rematch the edge
            # was found by recovering that very sketch.  It keeps its
            # timestamp, the time the sketch began: it holds every edge
            # to a vertex matched since, and invariant 2 reads the order
            # of the sketches' starts

    def insert_to_ds(self, e: Edge) -> None:
        if e.u in self.mate and e.v in self.mate:
            self.tdict[e] = None
        for z in (e.u, e.v):
            if z in self.mate:
                self.sketches[z].update(e.other(z), +1)

    def delete_from_ds(self, e: Edge) -> None:
        u, v = e.u, e.v
        if e in self.tdict:
            self.sketches[u].update(v, -1)
            self.sketches[v].update(u, -1)
            del self.tdict[e]
        elif u in self.mate and v in self.mate:
            if self.ts[u] < self.ts[v]:
                self.sketches[u].update(v, -1)
            else:
                self.sketches[v].update(u, -1)
        elif u in self.mate:
            self.sketches[u].update(v, -1)
        elif v in self.mate:
            self.sketches[v].update(u, -1)

    def announce_neighborhood(self, u: int) -> None:
        if u not in self.mate or not self._is_low(u):
            return
        for z in self._recover_neighbors(u):
            e = Edge(u, z)
            if z in self.mate and e not in self.tdict:
                self.tdict[e] = None
                self.sketches[z].update(u, +1)

    def delete_neighborhood(self, u: int) -> None:
        for z in self._recover_neighbors(u):
            e = Edge(u, z)
            if e in self.tdict:
                del self.tdict[e]
            else:
                self.sketches[z].update(u, +1)
        self._drop_vertex(u)

    def _drop_vertex(self, u: int) -> None:
        # T may still list edges at u that recovery did not return (a
        # degraded sketch, or a high-degree vertex whose 2k+1 recovered
        # neighbors were all matched); they sit in the other endpoint's
        # sketch alone from now
        for e in [e for e in self.tdict if u in (e.u, e.v)]:
            del self.tdict[e]
        del self.sketches[u]
        del self.ts[u]

    def rematch(self, e: Edge, t: int) -> None:
        self.rematch_count += 1
        self.delete_from_ds(e)
        # endpoints leave the matching logically; sketches and timestamps
        # stay alive until each endpoint's branch below has run
        del self.mate[e.u], self.mate[e.v]
        for w in sorted((e.u, e.v)):
            nbrs = self._recover_neighbors(w)
            exposed = sorted(z for z in nbrs if z not in self.mate)
            if exposed:
                self.add_edge_to_matching(Edge(w, exposed[0]), t)
            elif self._is_low(w):
                self.delete_neighborhood(w)
            else:
                # 2k+1 distinct neighbors, all matched: only a broken
                # promise gets here; discard w's state
                self.rematch_miss_count += 1
                self._drop_vertex(w)
        self._check_promise()

    # -- query -------------------------------------------------------------

    def extract_kernel_edges(self) -> set[Edge]:
        """Up to k+1 sketched edges per matched vertex, mate first.

        A vertex yields k+1 distinct neighbors of its one read, or all of
        them when it has fewer, or raises ``SketchFail``.
        """
        cap = self.config.k + 1
        out: set[Edge] = set()
        for v, mate in sorted(self.mate.items()):
            nbrs = sorted(self._recover_neighbors(v))
            picked = [mate] if mate in nbrs else []
            picked += [z for z in nbrs if z != mate]
            out.update(Edge(v, z) for z in picked[:cap])
        return out


def pdpsa_query(st: MatchingState, k: int | None = None) -> VcAnswer:
    if k is None:
        k = st.config.k
    # k+1 neighbors a vertex and the promise hold for the state's k
    check_query_k(k, st.config.k)
    if st.violated_at is not None:
        ans = VcAnswer.promise_violation()
    else:
        ans = vc_decide(st.extract_kernel_edges(), k)
    return replace(ans, degraded=st.degraded)
