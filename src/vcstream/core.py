"""Shared domain types: edges, stream updates, configuration, shadow graph."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class SelfLoop(ValueError):
    """Raised when an edge is built from a single vertex."""


class InvalidStream(ValueError):
    """Raised when a stream deletes an absent edge or re-inserts a live one."""


class SolverError(RuntimeError):
    """A solver's result failed its own explicit check.

    Raised for a certificate that misses an edge, leaves a cycle or is
    over budget, and for a kernel past its size bound.  These checks are
    plain ``if`` tests, so they hold under ``python -O`` too; seeing this
    exception means a bug in the solver, never bad input.
    """


@dataclass(frozen=True, order=True, slots=True)
class Edge:
    """Canonical unordered vertex pair, always stored with u < v."""

    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise SelfLoop(f"self-loop on vertex {self.u}")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"{w} is not an endpoint of {self}")

    def index(self, n: int) -> int:
        """Bijection from edges over [1, n] to [1, n(n-1)/2]."""
        u, v = self.u, self.v
        # edges (1,2),(1,3),...,(1,n),(2,3),... in lexicographic order
        return (u - 1) * n - u * (u + 1) // 2 + v

    @staticmethod
    def from_index(idx: int, n: int) -> "Edge":
        """Inverse of ``index``."""
        pairs = n * (n - 1) // 2
        if not 1 <= idx <= pairs:
            raise ValueError(f"edge index {idx} out of [1, {pairs}]")
        # rows before row u hold (u-1)(2n-u)/2 edges; u is the largest u
        # with that count below idx, read off the quadratic's smaller
        # root (isqrt rounds down, so the root may be one too large)
        m = 2 * n - 1
        u = (m + 2 - math.isqrt(m * m - 8 * (idx - 1))) // 2
        if (u - 1) * (2 * n - u) // 2 >= idx:
            u -= 1
        return Edge(u, idx - ((u - 1) * n - u * (u + 1) // 2))


def canonical(u: int, v: int) -> Edge:
    """Canonical edge for the unordered pair {u, v}."""
    return Edge(u, v)


INSERT = "+"
DELETE = "-"


@dataclass(frozen=True, slots=True)
class StreamUpdate:
    op: str  # INSERT or DELETE
    edge: Edge

    def __post_init__(self):
        if self.op not in (INSERT, DELETE):
            raise ValueError(f"bad op {self.op!r}")


@dataclass
class Config:
    """Stream-wide parameters and derived sketch sizes.

    x and y follow the sizing formulas x = 8ck log2(n/delta) and
    y = 8c log2(n/delta); alpha scales both so tests can shrink sketches
    to probe the failure regime deliberately.
    """

    n: int
    k: int
    delta: float = 0.01
    c: float = 1.0
    alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")
        if self.c < 1:
            raise ValueError("c must be >= 1")

    @property
    def x(self) -> int:
        return max(1, math.ceil(self.alpha * 8 * self.c * self.k
                                * math.log2(self.n / self.delta)))

    @property
    def y(self) -> int:
        return max(1, math.ceil(self.alpha * 8 * self.c
                                * math.log2(self.n / self.delta)))


class ShadowGraph:
    """Plain adjacency-set graph tracking the live edge set of a stream.

    Test/oracle fixture; never counted against any streaming space budget.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: dict[int, set[int]] = {}
        self.m = 0

    def edges(self) -> set[Edge]:
        return {Edge(u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v}

    def degree(self, u: int) -> int:
        return len(self.adj.get(u, ()))

    def neighbors(self, u: int) -> set[int]:
        return set(self.adj.get(u, ()))

    def has_edge(self, e: Edge) -> bool:
        return e.v in self.adj.get(e.u, ())

    def insert(self, e: Edge) -> None:
        if self.has_edge(e):
            raise InvalidStream(f"insert of live edge {e}")
        self.adj.setdefault(e.u, set()).add(e.v)
        self.adj.setdefault(e.v, set()).add(e.u)
        self.m += 1

    def delete(self, e: Edge) -> None:
        if not self.has_edge(e):
            raise InvalidStream(f"delete of absent edge {e}")
        self.adj[e.u].discard(e.v)
        self.adj[e.v].discard(e.u)
        if not self.adj[e.u]:
            del self.adj[e.u]
        if not self.adj[e.v]:
            del self.adj[e.v]
        self.m -= 1

    def apply(self, upd: StreamUpdate) -> None:
        if upd.op == INSERT:
            self.insert(upd.edge)
        else:
            self.delete(upd.edge)


# ---------------------------------------------------------------------------
# Answers

YES = "yes"
NO = "no"
PROMISE_VIOLATION = "promise-violation"


@dataclass(frozen=True)
class VcAnswer:
    kind: str
    cover: frozenset[int] = field(default_factory=frozenset)

    @staticmethod
    def yes(cover) -> "VcAnswer":
        return VcAnswer(YES, frozenset(cover))

    @staticmethod
    def no() -> "VcAnswer":
        return VcAnswer(NO)

    @staticmethod
    def promise_violation() -> "VcAnswer":
        return VcAnswer(PROMISE_VIOLATION)

    @property
    def is_yes(self) -> bool:
        return self.kind == YES

    @property
    def is_no(self) -> bool:
        return self.kind == NO


def covers(cover, edges) -> bool:
    """True when every edge has at least one endpoint in cover."""
    cset = set(cover)
    return all(e.u in cset or e.v in cset for e in edges)


def matching_exceeds(pairs, budget: int) -> bool:
    """True when a greedy matching of the ``(u, v)`` pairs has more than
    ``budget`` pairs.

    The pairs it keeps share no vertex, so a lower bound that needs one
    vertex per pair (a vertex cover, or a set meeting every 2-cycle)
    exceeds ``budget`` too.
    """
    used: set[int] = set()
    size = 0
    for u, v in pairs:
        if u not in used and v not in used:
            size += 1
            if size > budget:
                return True
            used.add(u)
            used.add(v)
    return False
