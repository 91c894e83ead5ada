"""Insertion-only parameterized streaming algorithm for VC(k).

Greedy maximal matching plus, per matched vertex, a capped list of
incident edges (the matching edge and up to k others).  Once the
matching exceeds k the state goes dead: any cover must then be larger
than k, and that verdict is final under insertions.  A query k above
the state's k raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, VcAnswer
from .kernel import vc_decide


@dataclass
class PsaState:
    k: int
    matching: set[Edge] = field(default_factory=set)
    matched: set[int] = field(default_factory=set)
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
        return 2 * sum(len(lst) for lst in self.stored.values()) \
            + 2 * len(self.matching) + len(self.matched)


def psa_insert(st: PsaState, e: Edge) -> PsaState:
    if st.dead:
        return st
    if e.u not in st.matched and e.v not in st.matched:
        st.matching.add(e)
        st.matched.update((e.u, e.v))
        st.stored[e.u] = [e]
        st.stored[e.v] = [e]
        if len(st.matching) > st.k:
            st.dead = True
            st.stored.clear()
        return st
    for z in (e.u, e.v):
        if z in st.matched and len(st.stored[z]) < st.cap:
            st.stored[z].append(e)
    return st


def psa_query(st: PsaState, k: int | None = None) -> VcAnswer:
    if k is None:
        k = st.k
    elif k > st.k:
        # the stored edges and the dead verdict hold for the state's k
        raise ValueError(f"query k={k} exceeds the state's k={st.k}")
    if st.dead:
        return VcAnswer.no()
    return vc_decide(st.stored_edges(), k)
