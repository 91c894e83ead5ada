"""Unrestricted dynamic algorithm: one global edge sketch plus a counter.

A graph with a vertex cover of size k has at most n*k edges, so the
query path first gates on the live-edge count: above n*k the answer is
No without touching the sketch; otherwise the full edge set is recovered,
decoded from edge indices to edges in one numpy pass (``decode_edges``)
and kernelized.  The counter is exact for valid streams, which never
re-insert a live edge or delete an absent one.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .core import Config, DELETE, Edge, SketchFail, StreamUpdate, VcAnswer
from .kernel import vc_decide


class DpsaState:
    def __init__(self, config: Config):
        # numpy loads with the first sketch, not with the module
        from .sketch import SampleRecovery, derive_seed
        self.config = config
        n, k = config.n, config.k
        n_pairs = n * (n - 1) // 2
        # n = 1 has no edge slots; the sketch still needs one bucket
        capacity = max(1, min(n_pairs, n * k))
        self.sketch = SampleRecovery(
            n_indices=n_pairs, capacity=capacity, need=0,
            seed=derive_seed(config.seed, "global-edge-sketch"),
            delta=config.delta)
        self.live = 0
        # set once a recovery fails; every answer from then on carries it
        self.degraded = False

    def words(self) -> int:
        """The sketch plus two words: the live-edge counter and n*k."""
        return self.sketch.words() + 2


def decode_edges(indices, n: int) -> set[Edge]:
    """``{Edge.from_index(i, n) for i in indices}`` in one array pass;
    the float root of the discriminant (< 2^53) is exact or one high."""
    import numpy as np
    idx = np.fromiter(indices, dtype=np.int64, count=len(indices))
    m = 2 * n - 1
    disc = m * m - 8 * (idx - 1)
    root = np.sqrt(disc).astype(np.int64)
    root -= root * root > disc
    u = (m + 2 - root) // 2
    u -= (u - 1) * (2 * n - u) // 2 >= idx
    v = idx - ((u - 1) * n - u * (u + 1) // 2)
    # each (u, v) has u < v, so it is an Edge as it stands
    return set(map(partial(tuple.__new__, Edge), zip(u.tolist(), v.tolist())))


def dpsa_update(st: DpsaState, upd: StreamUpdate) -> DpsaState:
    delta = -1 if upd.op == DELETE else +1
    st.sketch.update(upd.edge.index(st.config.n), delta)
    st.live += delta
    return st


def dpsa_query(st: DpsaState, k: int | None = None) -> VcAnswer:
    cfg = st.config
    if k is None:
        k = cfg.k
    if st.live > cfg.n * k:
        ans = VcAnswer.no()
    else:
        try:
            found = st.sketch.recover()
        except SketchFail:
            st.degraded = True
            raise
        ans = vc_decide(decode_edges(found, cfg.n), k)
    return replace(ans, degraded=st.degraded)
