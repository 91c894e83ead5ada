"""Text stream files: header ``n k mode``, then ``+ u v`` / ``- u v`` / ``?``.

Parsing and emission round-trip byte-exactly.  A validating parse keeps
the set of live edges and rejects an insert of a live edge or a delete
of an absent one (``apply_live``'s rule, which the CLI applies as it
replays a stream).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import DELETE, INSERT, Edge, InvalidStream, StreamUpdate

MODES = ("psa", "pdpsa", "dpsa", "fvs")

QUERY = "?"  # query marker in the event list


class ShadowGraph:
    """Plain adjacency-set graph tracking the live edge set of a stream.

    Ground truth for the generators, the tests and the invariant
    checker, which audits the sketches against it; never counted against
    any streaming space budget.
    """

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.m = 0

    def edges(self) -> set[Edge]:
        return {Edge(u, v) for u, nbrs in self.adj.items() for v in nbrs if u < v}

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


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class StreamFile:
    n: int
    k: int
    mode: str
    events: list  # StreamUpdate | QUERY


def apply_live(live: set[Edge], upd: StreamUpdate) -> None:
    """Apply ``upd`` to ``live``, the set of live edges.

    Raises ``InvalidStream``, leaving ``live`` as it was, for an insert
    of a live edge or a delete of an absent one: the rule that a
    validating ``parse_stream`` checks every update against.
    """
    op, e = upd
    if op == INSERT:
        if e in live:
            raise InvalidStream(f"insert of live edge {e}")
        live.add(e)
    elif e in live:
        live.remove(e)
    else:
        raise InvalidStream(f"delete of absent edge {e}")


def parse_stream(text: str, validate: bool = False) -> StreamFile:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "missing header")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(1, f"bad header {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"bad header {lines[0]!r}") from None
    mode = head[2]
    if mode not in MODES:
        raise ParseError(1, f"unknown mode {mode!r}")
    if n < 1 or k < 0:
        raise ParseError(1, "need n >= 1 and k >= 0")

    # one pass a line; an edge is canonical once u < v, and an op is
    # checked here, so both are built without their checking __new__
    new = tuple.__new__
    live: set[Edge] | None = set() if validate else None
    events: list = []
    append = events.append
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            if parts == [QUERY]:
                append(QUERY)
                continue
            raise ParseError(lineno, f"bad update {line!r}")
        op, a, b = parts
        if op != INSERT and op != DELETE:
            raise ParseError(lineno, f"bad update {line!r}")
        try:
            u, v = int(a), int(b)
        except ValueError:
            raise ParseError(lineno, f"bad update {line!r}") from None
        if u > v:
            u, v = v, u
        if u < 1 or v > n or u == v:
            raise ParseError(lineno, f"bad endpoints {line!r}")
        upd = new(StreamUpdate, (op, new(Edge, (u, v))))
        if live is not None:
            try:
                apply_live(live, upd)
            except InvalidStream as exc:
                raise InvalidStream(f"line {lineno}: {exc}") from None
        append(upd)
    return StreamFile(n, k, mode, events)


def emit_stream(sf: StreamFile) -> str:
    out = [f"{sf.n} {sf.k} {sf.mode}"]
    for ev in sf.events:
        if ev == QUERY:
            out.append(QUERY)
        else:
            out.append(f"{ev.op} {ev.edge.u} {ev.edge.v}")
    return "\n".join(out) + "\n"
