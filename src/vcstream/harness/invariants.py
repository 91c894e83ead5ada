"""Invariant checker for the promised-dynamic matching state.

Checks that the mate map is a maximal matching of live edges (each
mate symmetric, each pair a live edge, each matched vertex sketched and
timestamped), then reads the state's exact mirror of its sketches'
contents (states built with ``mirror=True``) and compares it against a
shadow graph holding ground truth.  Returns violation strings instead
of raising so a property test can report all breaks from one stream
prefix at once.
"""

from __future__ import annotations

from ..core import Edge, ShadowGraph
from ..pdpsa import MatchingState


def check_invariants(st: MatchingState, shadow: ShadowGraph) -> list[str]:
    if st.mirror is None:
        raise ValueError("state was built without mirror=True")
    out: list[str] = []
    # each sketched vertex's neighborhood; the mirror drops zero weights
    sketched = {v: set(held) for v, held in st.mirror.items()}

    # the mate map: symmetric, each pair a live edge, each matched
    # vertex sketched and timestamped
    mate = st.mate
    for v, w in sorted(mate.items()):
        if w == v or mate.get(w) != v:
            out.append(f"mate of {v} is {w}, whose mate is {mate.get(w)}")
        elif v < w and not shadow.has_edge(Edge(v, w)):
            out.append(f"matching edge {Edge(v, w)} is not live")
        if v not in st.sketches or v not in st.ts:
            out.append(f"matched vertex {v} lacks sketch or timestamp")

    # maximality: no live edge with both endpoints exposed
    live = sorted(shadow.edges())
    for e in live:
        if e.u not in mate and e.v not in mate:
            out.append(f"live edge {e} has both endpoints exposed")

    for e in live:
        in_u = e.v in sketched.get(e.u, ())
        in_v = e.u in sketched.get(e.v, ())
        # invariant 1: at least one endpoint's sketch holds the edge
        if not in_u and not in_v:
            out.append(f"live edge {e} is in neither sketch")
        # invariant 3: in both sketches exactly when T lists it
        if (in_u and in_v) != (e in st.tdict):
            out.append(f"edge {e}: both-sketches={in_u and in_v} but "
                       f"T-listed={e in st.tdict}")
        # invariant 2: both matched, not in T: only the sketch that began
        # earlier holds the edge
        if (e.u in mate and e.v in mate
                and e not in st.tdict and in_u != in_v):
            early = e.u if st.ts[e.u] < st.ts[e.v] else e.v
            holder = e.u if in_u else e.v
            if holder != early:
                out.append(f"edge {e} held only by later endpoint {holder}")

    # T must list only live edges present in both sketches
    for e in st.tdict:
        if not shadow.has_edge(e):
            out.append(f"T lists dead edge {e}")

    # sketched support counters agree with the mirrors
    for v, nbrs in sketched.items():
        sup = st.sketches[v].support
        if sup != len(nbrs):
            out.append(f"support counter for {v} is {sup}, mirror "
                       f"has {len(nbrs)}")

    # no sketched phantom: every mirrored entry is a live edge or dead
    # residue is at least weight-consistent (weights must be +1)
    for v, held in st.mirror.items():
        for i, w in held.items():
            if w != 1:
                out.append(f"sketch of {v} holds index {i} with net "
                           f"weight {w}")
            elif not shadow.has_edge(Edge(v, i)):
                out.append(f"sketch of {v} holds dead edge ({v},{i})")

    return out
