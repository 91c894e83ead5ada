"""Text stream files: header ``n k mode``, then ``+ u v`` / ``- u v`` / ``?``.

Parsing and emission round-trip byte-exactly; a validating mode replays
the updates through a ``ShadowGraph`` and rejects semantic violations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import DELETE, INSERT, Edge, InvalidStream, StreamUpdate

MODES = ("psa", "pdpsa", "dpsa", "fvs")

QUERY = "?"  # query marker in the event list


class ShadowGraph:
    """Plain adjacency-set graph tracking the live edge set of a stream.

    The harness's ground truth: the CLI checks certificates and the
    invariant checker audits the sketches against it; never counted
    against any streaming space budget.
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

    shadow = ShadowGraph() if validate else None
    events: list = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts == [QUERY]:
            events.append(QUERY)
            continue
        if len(parts) != 3 or parts[0] not in (INSERT, DELETE):
            raise ParseError(lineno, f"bad update {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, f"bad update {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ParseError(lineno, f"bad endpoints {line!r}")
        upd = StreamUpdate(parts[0], Edge(u, v))
        if shadow is not None:
            try:
                shadow.apply(upd)
            except InvalidStream as exc:
                raise InvalidStream(f"line {lineno}: {exc}") from None
        events.append(upd)
    return StreamFile(n, k, mode, events)


def emit_stream(sf: StreamFile) -> str:
    out = [f"{sf.n} {sf.k} {sf.mode}"]
    for ev in sf.events:
        if ev == QUERY:
            out.append(QUERY)
        else:
            out.append(f"{ev.op} {ev.edge.u} {ev.edge.v}")
    return "\n".join(out) + "\n"
