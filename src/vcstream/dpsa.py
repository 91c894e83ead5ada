"""Unrestricted dynamic algorithm: one global edge sketch plus a counter.

A graph with a vertex cover of size k has at most n*k edges, so the
query path first gates on the live-edge count: above n*k the answer is
No without touching the sketch; otherwise the full edge set is recovered
and kernelized.  ``approx_mode`` swaps the exact counter for a
distinct-edge estimator so duplicate re-insertions are tolerated.
"""

from __future__ import annotations

import math
import random

from .core import Config, DELETE, Edge, StreamUpdate, VcAnswer
from .kernel import vc_decide
from .sketch import SampleRecovery, derive_seed


class EstimateFail(Exception):
    """Every estimator level overflowed; no usable distinct-count."""


class DistinctEdgeEstimator:
    """Level-hash distinct counter tolerating deletions and duplicates.

    Items are hashed to geometric levels; level l tracks exact net counts
    of the items reaching it, capped at ~8/eps^2 entries.  The estimate
    reads the lowest surviving level: distinct-at-level * 2^level.
    """

    def __init__(self, n_indices: int, seed: int, eps: float = 0.01,
                 delta: float = 0.01):
        self.n = n_indices
        self.eps = eps
        self.delta = delta
        self.levels = max(1, math.ceil(math.log2(max(n_indices, 2)))) + 1
        self.cap = math.ceil(8 / (eps * eps))
        self.counts: list[dict[int, int] | None] = [
            {} for _ in range(self.levels)]
        self.salt = random.Random(seed).getrandbits(61)

    def _level(self, index: int) -> int:
        h = hash((self.salt, index)) & ((1 << 61) - 1)
        tz = (h & -h).bit_length() - 1 if h else 61
        return min(tz, self.levels - 1)

    def update(self, index: int, delta: int) -> None:
        top = self._level(index)
        for lvl in range(top + 1):
            d = self.counts[lvl]
            if d is None:
                continue
            d[index] = d.get(index, 0) + delta
            if d[index] == 0:
                del d[index]
            elif len(d) > self.cap:
                self.counts[lvl] = None  # overflowed; level unusable

    def estimate(self) -> int:
        for lvl, d in enumerate(self.counts):
            if d is not None:
                return len(d) * (1 << lvl)
        raise EstimateFail("all levels overflowed")


class DpsaState:
    def __init__(self, config: Config, approx_mode: bool = False,
                 slack: float = 1.0):
        if approx_mode:
            slack = max(slack, 1.01)
        self.config = config
        self.approx_mode = approx_mode
        n, k = config.n, config.k
        n_pairs = n * (n - 1) // 2
        # n = 1 has no edge slots; the sketch still needs one bucket
        capacity = max(1, min(n_pairs, math.ceil(slack * n * k)))
        self.sketch = SampleRecovery(
            n_indices=n_pairs, capacity=capacity, n_samplers=0,
            seed=derive_seed(config.seed, "global-edge-sketch"),
            delta=config.delta)
        self.live = 0
        self.estimator = DistinctEdgeEstimator(
            n_pairs, derive_seed(config.seed, "distinct-edges"),
            delta=config.delta) if approx_mode else None


def dpsa_update(st: DpsaState, upd: StreamUpdate) -> DpsaState:
    delta = -1 if upd.op == DELETE else +1
    idx = upd.edge.index(st.config.n)
    st.sketch.update(idx, delta)
    st.live += delta
    if st.estimator is not None:
        st.estimator.update(idx, delta)
    return st


def distinct_edge_estimate(st: DpsaState) -> int:
    if st.estimator is None:
        raise ValueError("approx_mode is off")
    return st.estimator.estimate()


def dpsa_query(st: DpsaState, k: int | None = None) -> VcAnswer:
    cfg = st.config
    if k is None:
        k = cfg.k
    gate = distinct_edge_estimate(st) if st.approx_mode else st.live
    if gate > cfg.n * k:
        return VcAnswer.no()
    edges = {Edge.from_index(i, cfg.n) for i in st.sketch.recover()}
    return vc_decide(edges, k)
