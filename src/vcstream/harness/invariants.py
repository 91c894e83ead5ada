"""Invariant checker for the promised-dynamic matching state.

Checks that the mate map is a maximal matching of live edges (each
mate symmetric, each pair a live edge, each matched vertex sketched and
timestamped), that only matched vertices keep sketches, and that T
lists only live edges between sketched vertices.  Then it audits each
sketch's own cells against a shadow graph holding ground truth: the
pdpsa invariants fix, for each sketched vertex v, the live neighbors
whose edges v's sketch holds, and ``SampleRecovery.holds`` checks that
the sketch holds exactly those.  Returns violation strings, and never
raises, so a property test can report all breaks from one stream prefix
at once.
"""

from __future__ import annotations

import math

from ..core import Edge
from ..pdpsa import MatchingState
from .streams import ShadowGraph


def check_invariants(st: MatchingState, shadow: ShadowGraph) -> list[str]:
    out: list[str] = []

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
    for v in sorted(st.sketches):
        if v not in mate:
            out.append(f"sketched vertex {v} is not matched")

    # maximality: no live edge with both endpoints exposed
    for e in sorted(shadow.edges()):
        if e.u not in mate and e.v not in mate:
            out.append(f"live edge {e} has both endpoints exposed")
        if e.u not in st.sketches and e.v not in st.sketches:
            out.append(f"live edge {e} is in neither sketch")

    # T lists only live edges, each in both endpoints' sketches
    for e in st.tdict:
        if not shadow.has_edge(e):
            out.append(f"T lists dead edge {e}")
        for z in e:
            if z not in st.sketches:
                out.append(f"T lists {e}, whose endpoint {z} has no sketch")

    def began(u):
        # the order of the sketches' starts; on a tie the larger id's
        # sketch holds the edge, as ``delete_from_ds`` writes it
        return st.ts.get(u, math.inf), -u

    # v's sketch holds (v, z) when z is exposed (invariant 1), when T
    # lists it (invariant 3), or when v's sketch began first (invariant 2)
    for v, sk in sorted(st.sketches.items()):
        held = {z for z in shadow.adj.get(v, ())
                if z not in mate or Edge(v, z) in st.tdict
                or began(v) < began(z)}
        if not sk.holds(held):
            out.append(f"sketch of {v} (support {sk.support}) does not "
                       f"hold exactly its neighbors {sorted(held)}")

    return out
