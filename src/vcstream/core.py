"""Shared domain types: edges, stream updates, configuration, answers."""

from __future__ import annotations

import math
from collections import namedtuple
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


class SketchFail(Exception):
    """A sketch recovery or sampling step failed; the run is unreliable."""


class Edge(namedtuple("_VertexPair", "u v")):
    """Canonical unordered vertex pair: the int pair (u, v) with u < v.

    A ``tuple``, so it hashes, compares and orders as ``(u, v)`` does;
    its namedtuple base reads ``u`` and ``v`` in C.  Build one with
    ``Edge(u, v)``: ``_make`` and ``_replace`` skip the ordering.
    """

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "Edge":
        if u < v:
            return tuple.__new__(cls, (u, v))
        if u > v:
            return tuple.__new__(cls, (v, u))
        raise SelfLoop(f"self-loop on vertex {u}")

    def other(self, w: int) -> int:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise ValueError(f"{w} is not an endpoint of {self}")

    def index(self, n: int) -> int:
        """Bijection from edges over [1, n] to [1, n(n-1)/2]; an edge
        outside [1, n] raises ``ValueError``, since its formula would
        name another edge's index."""
        u, v = self
        if u < 1 or v > n:
            raise ValueError(f"edge {self} outside 1..{n}")
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


INSERT = "+"
DELETE = "-"


class StreamUpdate(namedtuple("_Update", "op edge")):
    """One stream update: ``op`` is INSERT or DELETE, ``edge`` an Edge.

    A ``tuple``, in the same idiom as ``Edge``: it hashes and compares as
    ``(op, edge)`` does, and its namedtuple base reads ``op`` and
    ``edge`` in C.  Build one with ``StreamUpdate(op, edge)``, which
    refuses any other op with ``ValueError``: ``_make`` and ``_replace``
    skip that check.
    """

    __slots__ = ()

    def __new__(cls, op: str, edge: Edge) -> "StreamUpdate":
        if op not in (INSERT, DELETE):
            raise ValueError(f"bad op {op!r}")
        return tuple.__new__(cls, (op, edge))


@dataclass
class Config:
    """Stream-wide parameters and the derived sketch capacity.

    x = min(2k+1, n-1) is the support up to which a pdpsa vertex sketch
    recovers its whole neighborhood.  Past it the sketch's level grids
    return 2k+1 distinct neighbors, of which at most 2k are matched under
    the promise, so Rematch finds an exposed one either way; the paper's
    x = 8ck log2(n/delta) is larger than that argument needs.  No vertex
    has more than n-1 neighbors, so a sketch sized for more holds nothing
    more.  delta sets each sketch's failure target: delta/2n for a pdpsa
    vertex sketch, delta/2N for dpsa's sketch over N edge slots.
    """

    n: int
    k: int
    delta: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0,1)")

    @property
    def x(self) -> int:
        return min(2 * self.k + 1, self.n - 1)


def check_query_k(k: int, state_k: int | None = None) -> None:
    """Raise ``ValueError`` for a query k below 0, or above ``state_k``
    when given: the k that a state's contents answer for."""
    if k < 0:
        raise ValueError(f"query k={k} is negative")
    if state_k is not None and k > state_k:
        raise ValueError(f"query k={k} exceeds the state's k={state_k}")


# ---------------------------------------------------------------------------
# Answers

YES = "yes"
NO = "no"
PROMISE_VIOLATION = "promise-violation"


@dataclass(frozen=True)
class VcAnswer:
    """An answer and its certificate.  ``degraded`` marks an answer from a
    randomized state after a sketch failure or a Rematch miss: it may be
    wrong."""

    kind: str
    cover: frozenset[int] = field(default_factory=frozenset)
    degraded: bool = False

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
    return all(u in cset or v in cset for u, v in edges)


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
