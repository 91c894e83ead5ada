"""Seeded stream generators for the benchmark workloads.

Stdlib only, and independent of ``vcstream``: a later change to the
program's own generators cannot change these inputs.  Every generator
returns a ``Workload``: stream texts in the program's file format plus,
for each query, what the independent checker needs to judge the answer.

Each live edge set is kept as a list plus a position map, so a deletion
costs O(1) instead of a sort of the whole live set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("dynamic-sketch", "insertion-solve")


@dataclass
class Expect:
    """What one query's answer must satisfy.

    ``yes`` is the required answer kind; ``edges`` is the live edge set
    at the query (pairs ``(u, v)`` with ``u < v``) that a Yes answer's
    set of at most ``k`` vertices must cover (``acyclic=False``) or leave
    acyclic when removed (``acyclic=True``).
    """

    yes: bool
    k: int
    edges: frozenset
    acyclic: bool = False


@dataclass
class Stream:
    text: str
    updates: int
    expects: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    streams: list

    @property
    def updates(self) -> int:
        return sum(s.updates for s in self.streams)

    @property
    def queries(self) -> int:
        return sum(len(s.expects) for s in self.streams)


class LiveSet:
    """Live edges with O(1) insert, delete and uniform choice."""

    def __init__(self):
        self.items: list = []
        self.pos: dict = {}

    def __contains__(self, e) -> bool:
        return e in self.pos

    def add(self, e) -> None:
        self.pos[e] = len(self.items)
        self.items.append(e)

    def remove(self, e) -> None:
        i = self.pos.pop(e)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i


class StreamWriter:
    """Emits stream text while tracking the live edge set."""

    def __init__(self, n: int, k: int, mode: str):
        self.k = k
        self.lines = [f"{n} {k} {mode}"]
        self.live = LiveSet()
        self.updates = 0
        self.expects: list = []

    def insert(self, u: int, v: int) -> None:
        e = (min(u, v), max(u, v))
        if e[0] == e[1] or e in self.live:
            raise ValueError(f"bad insert {e}")
        self.live.add(e)
        self.lines.append(f"+ {e[0]} {e[1]}")
        self.updates += 1

    def delete(self, e) -> None:
        self.live.remove(e)
        self.lines.append(f"- {e[0]} {e[1]}")
        self.updates += 1

    def query(self, yes: bool, acyclic: bool = False) -> None:
        self.expects.append(Expect(yes, self.k, frozenset(self.live.items),
                                   acyclic))
        self.lines.append("?")

    def finish(self, want_updates: int) -> Stream:
        if self.updates != want_updates:
            raise ValueError(f"stream has {self.updates} updates, "
                             f"asked for {want_updates}")
        return Stream("\n".join(self.lines) + "\n", self.updates,
                      self.expects)


def _fresh_neighbor(rng, w: StreamWriter, hub: int, leaves) -> int:
    while True:
        v = rng.choice(leaves)
        if (min(hub, v), max(hub, v)) not in w.live:
            return v


def planted_stream(rng, n: int, k: int, mode: str, warm: int, churn: int,
                   every: int, fifo: bool) -> Stream:
    """Dynamic stream whose live edges all touch a planted k-set C.

    ``warm`` inserts spread round-robin over C, then ``churn`` updates
    alternating delete/insert so the live count stays put, with a query
    after every ``every``-th churn update.  ``fifo`` deletes each hub's
    oldest live edge (the first ones are the greedy matching's edges, so
    rematches happen); otherwise deletions are uniform over live edges.
    Every prefix is covered by C, so every query must answer Yes.
    """
    cover = rng.sample(range(1, n + 1), k)
    cset = set(cover)
    leaves = [v for v in range(1, n + 1) if v not in cset]
    w = StreamWriter(n, k, mode)
    order = {c: [] for c in cover}  # per-hub insertion order, for fifo
    heads = {c: 0 for c in cover}

    def insert(hub):
        v = _fresh_neighbor(rng, w, hub, leaves)
        w.insert(hub, v)
        order[hub].append((min(hub, v), max(hub, v)))

    for i in range(warm):
        insert(cover[i % k])
    for j in range(churn):
        hub = cover[(j // 2) % k]
        if j % 2 == 0:
            if fifo:
                e = order[hub][heads[hub]]
                heads[hub] += 1
            else:
                e = rng.choice(w.live.items)
            w.delete(e)
        else:
            insert(hub)
        if (j + 1) % every == 0:
            w.query(yes=True)
    return w.finish(warm + churn)


def index_gadget(rng, g: int, bit: int) -> Stream:
    """The paper's lower-bound instance on 6g vertices, k = 2g - 2.

    Alice's part is the g x g bit matrix as edges (v_i, w_j); Bob's part
    pins every v_i (i != I) and w_j (j != J) with two pendant edges.  The
    minimum cover is 2g - 2 plus the probed bit x[I][J], so the query
    must answer Yes exactly when that bit is 0.  Exactly half of the
    g*g bits are 1, so every gadget has the same number of edges.
    Alice's edges stream first, each part in seeded random order.
    """
    big_i, big_j = rng.randint(1, g), rng.randint(1, g)
    others = [(i, j) for i in range(1, g + 1) for j in range(1, g + 1)
              if (i, j) != (big_i, big_j)]
    ones = rng.sample(others, g * g // 2 - bit) + [(big_i, big_j)] * bit
    alice = [(i, g + j) for i, j in ones]
    bob = []
    for i in range(1, g + 1):
        if i != big_i:
            bob += [(i, 2 * g + i), (i, 3 * g + i)]
    for j in range(1, g + 1):
        if j != big_j:
            bob += [(g + j, 4 * g + j), (g + j, 5 * g + j)]
    rng.shuffle(alice)
    rng.shuffle(bob)
    w = StreamWriter(6 * g, 2 * g - 2, "psa")
    for u, v in alice + bob:
        w.insert(u, v)
    w.query(yes=bit == 0)
    return w.finish(len(alice) + len(bob))


def fan_blocks(rng, blocks: int, size: int, k: int) -> Stream:
    """``blocks`` vertex-disjoint fans bridged hub to hub in a path.

    A fan is a hub joined to every vertex of a ``size``-vertex path.
    Removing its hub is necessary and sufficient, so the minimum
    feedback vertex set has exactly ``blocks`` vertices and the query
    must answer Yes exactly when ``blocks <= k``.  The fan's path ends
    have degree 2, so the solver's reductions fire, but its interior
    keeps degree 3 and survives as the residue the subset search works
    on.  Vertex labels are a seeded permutation; edge order is shuffled.
    """
    n = blocks * (size + 1)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    edges = []
    hubs = []
    for b in range(blocks):
        base = b * (size + 1)
        hub = label[base]
        path = label[base + 1: base + size + 1]
        hubs.append(hub)
        edges += [(hub, p) for p in path]
        edges += list(zip(path, path[1:]))
    edges += list(zip(hubs, hubs[1:]))
    rng.shuffle(edges)
    w = StreamWriter(n, k, "fvs")
    for u, v in edges:
        w.insert(u, v)
    w.query(yes=blocks <= k, acyclic=True)
    return w.finish(len(edges))


def _exact_ones(rng, count: int, ones: int) -> list:
    flags = [1] * ones + [0] * (count - ones)
    rng.shuffle(flags)
    return flags


def make(name: str, seed: int, scale: str = "full") -> Workload:
    """The named workload for ``seed``; ``scale="toy"`` for self-tests.

    Query kinds are sized so that p50 and p90 each fall inside one kind.
    dynamic-sketch: 100 pdpsa queries (about 1 ms) then 30 dpsa queries
    (about 50 ms), so p50 is a pdpsa query and p90 a dpsa one.
    insertion-solve: gadgets and fan graphs each answer No on 70% of
    their queries; No is an exhaustive search of fixed size, so p50 falls
    among the fvs No queries and p90 among the psa No queries.
    """
    rng = random.Random(f"{name}:{seed}")
    toy = scale == "toy"
    if name == "dynamic-sketch":
        # x = 8k log2(n/delta) = 254 at n=600, k=2; hubs hold 320 > x
        n, k = (60, 2) if toy else (600, 2)
        warm, churn, every = (40, 40, 4) if toy else (640, 800, 8)
        hubs = planted_stream(rng, n, k, "pdpsa", warm, churn, every,
                              fifo=True)
        # live edges stay at `warm`, under the n*k = 1800 gate
        n, k = (60, 3) if toy else (600, 3)
        warm, churn, every = (60, 12, 4) if toy else (300, 300, 10)
        recover = planted_stream(rng, n, k, "dpsa", warm, churn, every,
                                 fifo=False)
        return Workload(name, [hubs, recover])
    if name == "insertion-solve":
        g, count, ones = (4, 10, 7) if toy else (6, 300, 210)
        streams = [index_gadget(rng, g, bit)
                   for bit in _exact_ones(rng, count, ones)]
        k, size, count, ones = (2, 5, 10, 7) if toy else (3, 8, 300, 210)
        streams += [fan_blocks(rng, k + extra, size, k)
                    for extra in _exact_ones(rng, count, ones)]
        return Workload(name, streams)
    raise ValueError(f"unknown workload {name!r}")
