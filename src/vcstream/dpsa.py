"""Unrestricted dynamic algorithm: one global edge sketch plus a counter.

A graph with a vertex cover of size k has at most n*k edges, so the
query path first gates on the live-edge count: above n*k the answer is
No without touching the sketch.  The sketch holds n*``config.k`` edges,
so a query with a larger k whose live count lies between the two raises
``ValueError``, before it reads the sketch.  Otherwise the full edge
set is recovered, checked against the live count (a mismatch raises
``RecoveryFail`` and marks the state degraded), and decoded into two
int64 endpoint arrays in one numpy pass (``decode_edges``), and Buss's
rule runs on those arrays (``kernelize_arrays``): degrees by
``bincount``, high-degree vertices forced in ``kernel.kernelize``'s
order.  Only the surviving kernel, at most k'^2 edges, becomes ``Edge``
objects for ``kernel.solve_kernel``, and a Yes certificate is checked
against every recovered edge with a vertex mask.  The counter is exact
for valid streams, which never re-insert a live edge or delete an
absent one.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from . import kernel
from .core import (Config, DELETE, Edge, SketchFail, SolverError,
                   StreamUpdate, VcAnswer, check_query_k)


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
            n_indices=n_pairs, capacity=capacity,
            seed=derive_seed(config.seed, "global-edge-sketch"),
            fail=config.delta / (2 * max(1, n_pairs)))
        self.live = 0
        # set once a recovery fails; every answer from then on carries it
        self.degraded = False

    def words(self) -> int:
        """The sketch plus two words: the live-edge counter and n*k."""
        return self.sketch.words() + 2


def decode_edges(indices, n: int):
    """Endpoint arrays ``(u, v)`` of ``Edge.from_index(i, n)`` for each
    ``i`` in ``indices``, in order, in one array pass; u < v throughout.
    The float root of the discriminant (< 2^53) is exact or one high."""
    import numpy as np
    idx = np.fromiter(indices, dtype=np.int64, count=len(indices))
    m = 2 * n - 1
    disc = m * m - 8 * (idx - 1)
    root = np.sqrt(disc).astype(np.int64)
    root -= root * root > disc
    u = (m + 2 - root) // 2
    u -= (u - 1) * (2 * n - u) // 2 >= idx
    v = idx - ((u - 1) * n - u * (u + 1) // 2)
    return u, v


def kernelize_arrays(u, v, k: int, n: int) -> kernel.KernelInstance | None:
    """``kernel.kernelize`` on the endpoint arrays of a simple graph on
    vertices 1..n, for k >= 0: the same ``KernelInstance``, or None for
    a provable No.

    Degrees come from ``bincount``.  The smallest-id vertex of degree
    > k' is forced first and its neighbours' degrees drop by one; when
    k' reaches 0 with an edge left, or more than k'^2 edges survive the
    forced vertices, the answer is No.  Only the surviving kernel is
    built as ``Edge`` objects.
    """
    import numpy as np
    deg = np.bincount(u, minlength=n + 1) + np.bincount(v, minlength=n + 1)
    forced: list[int] = []
    k_res = k
    while True:
        high = np.flatnonzero(deg > k_res)
        if not len(high):
            break
        if k_res == 0:
            return None
        w = int(high[0])
        forced.append(w)
        k_res -= 1
        # a simple graph repeats no neighbour, so each index drops once;
        # a forced neighbour goes below 0, which never counts as high
        deg[v[u == w]] -= 1
        deg[u[v == w]] -= 1
        deg[w] = 0
    gone = np.zeros(n + 1, dtype=bool)
    gone[forced] = True
    keep = ~(gone[u] | gone[v])
    u, v = u[keep], v[keep]
    if len(u) > k_res * k_res:
        return None
    kept = set(map(partial(tuple.__new__, Edge), zip(u.tolist(), v.tolist())))
    return kernel.KernelInstance(kept, k_res, forced)


def check_cover_arrays(cover, u, v, k: int, n: int) -> None:
    """``kernel.check_cover`` against endpoint arrays over vertices 1..n:
    raise ``SolverError`` unless ``cover`` has at most ``k`` vertices and
    meets every edge (u[i], v[i])."""
    import numpy as np
    if len(cover) > k:
        raise SolverError(f"certificate has {len(cover)} vertices, k={k}")
    mask = np.zeros(n + 1, dtype=bool)
    # an id outside 1..n covers nothing; a negative one must not wrap
    mask[[w for w in cover if 1 <= w <= n]] = True
    if not (mask[u] | mask[v]).all():
        raise SolverError("certificate misses an edge")


def vc_decide_arrays(u, v, k: int, n: int) -> VcAnswer:
    """``kernel.vc_decide`` on endpoint arrays: Buss's rule on the arrays,
    the kernel solved by ``kernel.solve_kernel``, and a Yes certificate
    re-verified against every edge first."""
    kern = kernelize_arrays(u, v, k, n)
    if kern is None:
        return VcAnswer.no()
    # through the module, so a patched or traced solver is the one run
    ans = kernel.solve_kernel(kern)
    if ans.is_yes:
        check_cover_arrays(ans.cover, u, v, k, n)
    return ans


def dpsa_update(st: DpsaState, upd: StreamUpdate) -> DpsaState:
    delta = -1 if upd.op == DELETE else +1
    st.sketch.update(upd.edge.index(st.config.n), delta)
    st.live += delta
    return st


def dpsa_query(st: DpsaState, k: int | None = None) -> VcAnswer:
    from .sketch import RecoveryFail
    cfg = st.config
    if k is None:
        k = cfg.k
    check_query_k(k)
    if st.live > cfg.n * k:
        ans = VcAnswer.no()
    elif st.live > st.sketch.capacity:
        # a sound sketch that cannot hold this many edges: not degraded
        raise ValueError(f"{st.live} live edges exceed the sketch's "
                         f"capacity of {st.sketch.capacity} (n*k for "
                         f"k={cfg.k}); query with k <= {cfg.k}")
    else:
        try:
            found = st.sketch.recover()
            if len(found) != st.live:
                raise RecoveryFail(f"recovered {len(found)} edges of "
                                   f"{st.live} live")
        except SketchFail:
            st.degraded = True
            raise
        ans = vc_decide_arrays(*decode_edges(found, cfg.n), k, cfg.n)
    return replace(ans, degraded=st.degraded)
