"""States survive ``copy.deepcopy`` and a pickle round trip: a copy
updates the cells it reads, and recovers and answers as its original."""

import copy
import pickle
import random

import numpy as np
import pytest

from vcstream.core import INSERT, Config, Edge, StreamUpdate
from vcstream.dpsa import DpsaState, dpsa_query, dpsa_update
from vcstream.harness.generators import gen_promised_stream, gen_random_stream
from vcstream.pdpsa import MatchingState, pdpsa_query
from vcstream.sketch import SampleRecovery

COPIES = {"deepcopy": copy.deepcopy,
          "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_dpsa_state_answers_no_on_two_disjoint_edges(how):
    # the grids were a view taken once, which a copy rebuilt as an array
    # of its own: updates reached the cells, reads summed the stale grids,
    # and this answered Yes with an empty cover
    st = COPIES[how](DpsaState(Config(n=6, k=1)))
    for e in (Edge(1, 2), Edge(3, 4)):
        dpsa_update(st, StreamUpdate(INSERT, e))
    ans = dpsa_query(st)
    assert ans.is_no and not ans.degraded


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("need", [0, 4])
def test_a_copied_sketch_matches_its_original(how, need):
    # need > 0: a sampled sketch, whose read past capacity must return
    # at least ``need`` indices
    rng = random.Random(need)
    indices = rng.sample(range(1, 1001), 60)
    a = SampleRecovery(1000, capacity=20, seed=7, sampled=need > 0)
    for i in indices[:10]:
        a.update(i, +1)
    b = COPIES[how](a)
    assert b.state_equals(a)
    for s in (a, b):
        for i in indices[10:20]:
            s.update(i, +1)
    assert b.state_equals(a) and np.array_equal(b.grids, a.grids)
    assert b.recover() == a.recover() == set(indices[:20])
    if need:
        for s in (a, b):
            for i in indices[20:]:
                s.update(i, +1)
        assert b.recover() == a.recover()
        assert len(a.recover()) >= max(need, a.capacity)
        assert [b.sample(w) for w in range(4)] == [a.sample(w)
                                                   for w in range(4)]


def _replayed(state, apply, query, stream, how):
    """Apply the first half of ``stream`` to ``state``, copy it, and
    apply the rest to both, querying each after every tenth update."""
    half = len(stream) // 2
    for upd in stream[:half]:
        apply(state, upd)
    twin = COPIES[how](state)
    answers = [], []
    for j, upd in enumerate(stream[half:], start=1):
        for st, got in zip((state, twin), answers):
            apply(st, upd)
            if j % 10 == 0:
                got.append(query(st))
    return twin, answers


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_dpsa_state_matches_its_original(how):
    stream = gen_random_stream(12, 120, 0.45, random.Random(4))
    st = DpsaState(Config(n=12, k=4, seed=4))
    twin, (want, got) = _replayed(st, dpsa_update, dpsa_query, stream, how)
    assert twin.sketch.state_equals(st.sketch) and twin.live == st.live
    assert twin.sketch.recover() == st.sketch.recover()
    assert got == want
    assert any(a.is_yes for a in want) and any(a.is_no for a in want)
    assert not any(a.degraded for a in want)


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_matching_state_matches_its_original(how):
    cfg = Config(n=16, k=3, seed=9)
    stream = gen_promised_stream(cfg, 200, 0.3, random.Random(9))
    st = MatchingState(cfg)
    twin, (want, got) = _replayed(st, MatchingState.apply, pdpsa_query,
                                  stream, how)
    assert twin.mate == st.mate and twin.tdict == st.tdict
    assert twin.sketches.keys() == st.sketches.keys()
    for v, sk in st.sketches.items():
        assert twin.sketches[v].state_equals(sk)
        assert twin.sketches[v].recover() == sk.recover()
    assert got == want and not any(a.degraded for a in want)
