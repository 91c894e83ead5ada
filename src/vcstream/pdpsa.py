"""Promised-dynamic maximal matching with per-matched-vertex sketches.

Maintains a maximal matching under edge inserts and deletes.  Every
matched vertex carries a linear sketch of its incident edges; the
dictionary T records the edges known to sit in both endpoints' sketches,
and per-vertex timestamps disambiguate which single sketch holds an edge
that T does not know about.  Three invariants tie these together:

1. every live edge is in at least one endpoint's sketch;
2. for a live edge with both endpoints matched, the edge is missing from
   exactly the endpoint matched later, unless T lists it;
3. the edge sits in both sketches exactly when T lists it.

Deleting a matched edge triggers Rematch: a low-support endpoint recovers
its sketched neighborhood exactly and pairs with the smallest exposed
neighbor; a high-support endpoint draws from its sampler bank instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (DELETE, Config, Edge, StreamUpdate, VcAnswer)
from .kernel import vc_decide

if TYPE_CHECKING:
    from .sketch import SampleRecovery

INF_TS = math.inf


class SketchFail(Exception):
    """A sketch recovery or sampling step failed; the run is unreliable."""


@dataclass
class PromiseReport:
    violated_at: int | None = None

    @property
    def ok(self) -> bool:
        return self.violated_at is None


class MatchingState:
    """Sketch-backed maximal matching over a promised dynamic stream.

    ``mirror=True`` makes every sketch carry an exact contents mirror so
    the invariant checker can read sketched neighborhoods without
    recovery; diagnostics only, never part of the space account.
    ``use_true_degrees=True`` switches the low/high-degree test from the
    sketched-support counter to true degrees tracked for every vertex
    (a strict-fidelity mode for differential testing; costs Theta(n)).
    """

    def __init__(self, config: Config, mirror: bool = False,
                 use_true_degrees: bool = False):
        self.config = config
        self.clock = 0
        self.matching: set[Edge] = set()
        self.matched: set[int] = set()
        self.ts: dict[int, float] = {}
        self.sketches: dict[int, SampleRecovery] = {}
        self.sup: dict[int, int] = {}
        self.tdict: dict[Edge, None] = {}
        self.promise = PromiseReport()
        self.mirror = mirror
        self.use_true_degrees = use_true_degrees
        self.degrees: dict[int, int] = {}
        self.rematch_count = 0
        self.rematch_miss_count = 0
        self.sketch_fail_count = 0
        self._sketch_epoch = 0

    # -- plumbing ----------------------------------------------------------

    def timestamp(self, v: int) -> float:
        return self.ts.get(v, INF_TS)

    def _fresh_sketch(self, v: int) -> None:
        # numpy loads with the first sketch, not with the module
        from .sketch import SampleRecovery, derive_seed
        cfg = self.config
        self._sketch_epoch += 1
        self.sketches[v] = SampleRecovery(
            n_indices=cfg.n, capacity=cfg.x, n_samplers=cfg.y,
            seed=derive_seed(cfg.seed, "vertex-sketch", v, self._sketch_epoch),
            delta=cfg.delta,
            sampler_fail=cfg.delta / (2 * cfg.n ** cfg.c),
            track_contents=self.mirror)
        self.sup[v] = 0

    def _sketch_add(self, v: int, e: Edge) -> None:
        self.sketches[v].update(e.other(v), +1)
        self.sup[v] += 1

    def _sketch_remove(self, v: int, e: Edge) -> None:
        self.sketches[v].update(e.other(v), -1)
        self.sup[v] -= 1

    def _recover_neighbors(self, v: int) -> set[int]:
        from .sketch import RecoveryFail
        try:
            return self.sketches[v].recover()
        except RecoveryFail as exc:
            self.sketch_fail_count += 1
            raise SketchFail(f"recovery failed for vertex {v}") from exc

    def _is_low(self, v: int) -> bool:
        if self.use_true_degrees:
            return self.degrees.get(v, 0) <= self.config.x
        return self.sup.get(v, 0) <= self.config.x

    def _check_promise(self) -> None:
        if self.promise.ok and len(self.matching) > self.config.k:
            self.promise.violated_at = self.clock

    def words(self) -> int:
        sk = sum(s.words() for s in self.sketches.values())
        return sk + 2 * len(self.tdict) + 2 * len(self.matching) \
            + 3 * len(self.matched)

    # -- stream entry points -----------------------------------------------

    def apply(self, upd: StreamUpdate) -> None:
        if upd.op == DELETE:
            self.deletion(upd.edge)
        else:
            self.insertion(upd.edge)

    def insertion(self, e: Edge) -> None:
        self.clock += 1
        if self.use_true_degrees:
            for z in (e.u, e.v):
                self.degrees[z] = self.degrees.get(z, 0) + 1
        if e.u not in self.matched and e.v not in self.matched:
            self.add_edge_to_matching(e, self.clock)
        else:
            self.insert_to_ds(e)
        self._check_promise()

    def deletion(self, e: Edge) -> None:
        self.clock += 1
        if self.use_true_degrees:
            for z in (e.u, e.v):
                self.degrees[z] -= 1
        if e in self.matching:
            self.rematch(e, self.clock)
        else:
            self.delete_from_ds(e)
        self.announce_neighborhood(e.u)
        self.announce_neighborhood(e.v)
        self._check_promise()

    # -- procedures --------------------------------------------------------

    def add_edge_to_matching(self, e: Edge, t: int) -> None:
        self.matching.add(e)
        self.tdict[e] = None
        for z in (e.u, e.v):
            self.matched.add(z)
            self.ts[z] = t
            if z not in self.sketches:
                self._fresh_sketch(z)
                self._sketch_add(z, e)
            # a retained sketch already holds e: during Rematch the edge
            # was found by recovering or sampling that very sketch

    def insert_to_ds(self, e: Edge) -> None:
        if e.u in self.matched and e.v in self.matched:
            self.tdict[e] = None
        for z in (e.u, e.v):
            if z in self.matched:
                self._sketch_add(z, e)

    def delete_from_ds(self, e: Edge) -> None:
        u, v = e.u, e.v
        if e in self.tdict:
            self._sketch_remove(u, e)
            self._sketch_remove(v, e)
            del self.tdict[e]
        elif u in self.matched and v in self.matched:
            if self.ts[u] < self.ts[v]:
                self._sketch_remove(u, e)
            else:
                self._sketch_remove(v, e)
        elif u in self.matched:
            self._sketch_remove(u, e)
        elif v in self.matched:
            self._sketch_remove(v, e)

    def announce_neighborhood(self, u: int) -> None:
        if u not in self.matched or not self._is_low(u):
            return
        for z in self._recover_neighbors(u):
            e = Edge(u, z)
            if z in self.matched and e not in self.tdict:
                self.tdict[e] = None
                self._sketch_add(z, e)

    def delete_neighborhood(self, u: int) -> None:
        for z in self._recover_neighbors(u):
            e = Edge(u, z)
            if e in self.tdict:
                del self.tdict[e]
            else:
                self._sketch_add(z, e)
        self._drop_vertex(u)

    def _drop_vertex(self, u: int) -> None:
        del self.sketches[u]
        del self.sup[u]
        del self.ts[u]
        self.matched.discard(u)

    def rematch(self, e: Edge, t: int) -> None:
        self.rematch_count += 1
        self.delete_from_ds(e)
        self.matching.discard(e)
        # endpoints leave the matching logically; sketches and timestamps
        # stay alive until each endpoint's branch below has run
        self.matched.discard(e.u)
        self.matched.discard(e.v)
        for w in sorted((e.u, e.v)):
            if self._is_low(w):
                exposed = sorted(z for z in self._recover_neighbors(w)
                                 if z not in self.matched)
                if exposed:
                    self.add_edge_to_matching(Edge(w, exposed[0]), t)
                else:
                    self.delete_neighborhood(w)
            else:
                hit = None
                for which in range(self.config.y):
                    got = self.sketches[w].sample(which)
                    if got.is_index and got.index not in self.matched:
                        hit = got.index
                        break
                if hit is not None:
                    self.add_edge_to_matching(Edge(w, hit), t)
                else:
                    self.rematch_miss_count += 1
                    self._abandon_vertex(w)
        self._check_promise()

    def _abandon_vertex(self, w: int) -> None:
        # high-degree rematch found no exposed sample (probability bounded
        # by the sampler analysis); discard w's state so T stays consistent
        for e in [e for e in self.tdict if w in (e.u, e.v)]:
            del self.tdict[e]
        self._drop_vertex(w)

    # -- query -------------------------------------------------------------

    def extract_kernel_edges(self) -> set[Edge]:
        """Up to k+1 sketched edges per matched vertex, mate first."""
        cap = self.config.k + 1
        mates = {}
        for e in self.matching:
            mates[e.u], mates[e.v] = e.v, e.u
        out: set[Edge] = set()
        for v in sorted(self.matched):
            if self.sup[v] <= self.config.x:
                nbrs = sorted(self._recover_neighbors(v))
            else:
                nbrs = []
                for which in range(self.config.y):
                    got = self.sketches[v].sample(which)
                    if got.is_index and got.index not in nbrs:
                        nbrs.append(got.index)
                    if len(nbrs) >= cap:
                        break
            picked = [mates[v]] if mates.get(v) in nbrs else []
            picked += [z for z in nbrs if z != mates.get(v)]
            out.update(Edge(v, z) for z in picked[:cap])
        return out


def pdpsa_query(st: MatchingState, k: int | None = None) -> VcAnswer:
    if not st.promise.ok:
        return VcAnswer.promise_violation()
    if k is None:
        k = st.config.k
    return vc_decide(st.extract_kernel_edges(), k)
