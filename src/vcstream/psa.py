"""Insertion-only parameterized streaming algorithm for VC(k).

Greedy maximal matching plus, per matched vertex, a capped list of
incident edges: the matching edge first, then up to k others.  The
lists are the whole state: their keys are the matched vertices, and
each list's first edge is its vertex's matching edge.  Once more than
2k vertices are matched the matching exceeds k and the state goes
dead: any cover must then be larger than k, and that verdict is final
under insertions.  A query k below 0 or above the state's k raises
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, VcAnswer, check_query_k
from .kernel import vc_decide


@dataclass
class PsaState:
    k: int
    # matched vertex -> its matching edge, then up to k incident edges
    stored: dict[int, list[Edge]] = field(default_factory=dict)
    dead: bool = False

    @property
    def cap(self) -> int:
        # matching edge plus k witnesses; the extra slot keeps Yes
        # certificates valid when a matched vertex has degree exactly k+1
        return self.k + 1

    def stored_edges(self) -> set[Edge]:
        return {e for lst in self.stored.values() for e in lst}

    def words(self) -> int:
        """Two words per stored edge and two per matched vertex; a dead
        state keeps nothing."""
        return 2 * sum(len(lst) for lst in self.stored.values()) \
            + 2 * len(self.stored)


def psa_insert(st: PsaState, e: Edge) -> PsaState:
    if st.dead:
        return st
    if e.u not in st.stored and e.v not in st.stored:
        st.stored[e.u] = [e]
        st.stored[e.v] = [e]
        if len(st.stored) > 2 * st.k:
            st.dead = True
            st.stored.clear()
        return st
    for z in (e.u, e.v):
        lst = st.stored.get(z)
        if lst is not None and len(lst) < st.cap:
            lst.append(e)
    return st


def psa_query(st: PsaState, k: int | None = None) -> VcAnswer:
    if k is None:
        k = st.k
    # the stored edges and the dead verdict hold for the state's k
    check_query_k(k, st.k)
    if st.dead:
        return VcAnswer.no()
    return vc_decide(st.stored_edges(), k)
