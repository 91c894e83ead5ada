"""Instance and stream generators: random, promised-dynamic, gadgets."""

from __future__ import annotations

import bisect
import random

from ..core import Config, DELETE, Edge, INSERT, StreamUpdate
from .streams import ShadowGraph


def _track(live: list[Edge], upd: StreamUpdate) -> None:
    """Keep ``live`` equal to ``sorted(shadow.edges())`` after ``upd``.

    ``rng.choice(live)`` then draws what it would draw from the sorted
    edge set, without sorting it on every deletion.
    """
    if upd.op == INSERT:
        bisect.insort(live, upd.edge)
    else:
        del live[bisect.bisect_left(live, upd.edge)]


def gen_random_stream(n: int, length: int, churn: float,
                      rng: random.Random) -> list[StreamUpdate]:
    """Valid dynamic stream: inserts of absent edges, deletes of live ones.

    A step deletes with probability ``churn``, and always when every
    edge is live, since no insert is left.  Raises ``ValueError``, before
    any draw, when no such stream exists: fewer than two vertices, or no
    churn and more updates than the n(n-1)/2 edges there are to insert.
    """
    if length > 0 and n < 2:
        raise ValueError(f"a random stream needs n >= 2 to insert an "
                         f"edge, not n={n}")
    pairs = n * (n - 1) // 2
    if churn <= 0 and length > pairs:
        raise ValueError(f"a random stream with churn {churn} never "
                         f"deletes, so n={n} allows at most {pairs} "
                         f"updates, not {length}")
    shadow = ShadowGraph()
    live: list[Edge] = []
    out: list[StreamUpdate] = []
    while len(out) < length:
        if shadow.m == pairs or shadow.m and rng.random() < churn:
            upd = StreamUpdate(DELETE, rng.choice(live))
        else:
            u, v = rng.sample(range(1, n + 1), 2)
            e = Edge(u, v)
            if shadow.has_edge(e):
                continue
            upd = StreamUpdate(INSERT, e)
        shadow.apply(upd)
        _track(live, upd)
        out.append(upd)
    return out


def gen_promised_stream(cfg: Config, length: int, churn: float,
                        rng: random.Random) -> list[StreamUpdate]:
    """Dynamic stream whose every prefix has a vertex cover of size <= k.

    A planted cover C with |C| <= k is chosen up front and every inserted
    edge touches C, so C covers each prefix by construction, and every
    inserted edge is checked against C.  A deletion cannot break a cover,
    so that checks every prefix exactly, at any n.
    Raises ``ValueError`` when 50 * length tries reach fewer than
    ``length`` updates, as when C's edges run out with no churn.
    """
    if cfg.k < 1:
        raise ValueError("promised streams need k >= 1")
    if length > 0 and cfg.n < 2:
        raise ValueError(f"a promised stream needs n >= 2 to insert an "
                         f"edge, not n={cfg.n}")
    cover = sorted(rng.sample(range(1, cfg.n + 1),
                              rng.randint(1, min(cfg.k, cfg.n))))
    planted = set(cover)
    shadow = ShadowGraph()
    live: list[Edge] = []
    out: list[StreamUpdate] = []
    tries = 0
    while len(out) < length and tries < 50 * length:
        tries += 1
        if shadow.m and rng.random() < churn:
            upd = StreamUpdate(DELETE, rng.choice(live))
        else:
            c = rng.choice(cover)
            v = rng.randrange(1, cfg.n + 1)
            if v == c:
                continue
            e = Edge(c, v)
            if shadow.has_edge(e):
                continue
            upd = StreamUpdate(INSERT, e)
        shadow.apply(upd)
        _track(live, upd)
        out.append(upd)
        if upd.op == INSERT \
                and upd.edge.u not in planted and upd.edge.v not in planted:
            raise RuntimeError(f"generated edge {upd.edge} misses the "
                               f"planted cover {cover}")
    if len(out) < length:
        raise ValueError(f"promised stream reached {len(out)} of "
                         f"{length} updates")
    return out


def gen_index_gadget(x_matrix: list[list[int]], big_i: int,
                     big_j: int) -> list[Edge]:
    """Hard instance on 6k vertices from a k x k bit matrix and an index.

    One side contributes edges (v_i, w_j) wherever the matrix is 1; the
    other pins every v_i (i != I) and w_j (j != J) with two pendant
    edges.  The minimum cover is 2k-2 plus the probed matrix bit.
    """
    k = len(x_matrix)
    if not 1 <= big_i <= k or not 1 <= big_j <= k:
        raise ValueError("probe out of range")

    def v(i):
        return i

    def w(j):
        return k + j

    def v1(i):
        return 2 * k + i

    def v2(i):
        return 3 * k + i

    def w1(j):
        return 4 * k + j

    def w2(j):
        return 5 * k + j

    edges = [Edge(v(i), w(j))
             for i in range(1, k + 1) for j in range(1, k + 1)
             if x_matrix[i - 1][j - 1]]
    for i in range(1, k + 1):
        if i != big_i:
            edges += [Edge(v(i), v1(i)), Edge(v(i), v2(i))]
    for j in range(1, k + 1):
        if j != big_j:
            edges += [Edge(w(j), w1(j)), Edge(w(j), w2(j))]
    return edges


def gen_disjointness_gadget(x_bits: list[int],
                            y_bits: list[int]) -> list[Edge]:
    """Chain of 8-vertex blocks; acyclic iff no position has x_i = y_i = 1."""
    if len(x_bits) != len(y_bits):
        raise ValueError("bit strings must have equal length")
    for bit in (*x_bits, *y_bits):
        if bit not in (0, 1):
            raise ValueError(f"gadget bits must be 0 or 1, not {bit}")
    n = len(x_bits)

    def vid(block, offset):
        # offsets: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7
        return 8 * block + offset + 1

    edges: list[Edge] = []
    for i in range(n):
        a, b, c, d = (vid(i, o) for o in range(4))
        e, f, g, h = (vid(i, o) for o in range(4, 8))
        edges += [Edge(b, g), Edge(c, e), Edge(d, f)]
        if i + 1 < n:
            edges.append(Edge(h, vid(i + 1, 0)))
        if x_bits[i] == 0:
            edges += [Edge(a, c), Edge(b, d)]
        else:
            edges += [Edge(a, b), Edge(c, d)]
        if y_bits[i] == 0:
            edges += [Edge(f, h), Edge(e, g)]
        else:
            edges += [Edge(f, e), Edge(g, h)]
    return edges


def edges_to_stream(edges) -> list[StreamUpdate]:
    return [StreamUpdate(INSERT, e) for e in edges]
