"""Every answer of a randomized mode is right or carries ``degraded``.

A hypothesis property over the failure parameter delta and the seeds:
dpsa on random +/-1 streams that stay within its n*k gate, and pdpsa on
promised streams.  Each query's answer must match the exhaustive oracle
or be flagged; a raised ``SketchFail`` counts as flagged, and a state
that raised one flags every later answer.  The flag rate at three
values of delta is committed for one (n, k) per mode.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from vcstream.core import Config, SketchFail, covers
from vcstream.dpsa import DpsaState, dpsa_query, dpsa_update
from vcstream.harness.generators import gen_promised_stream, gen_random_stream
from vcstream.harness.oracles import oracle_vc
from vcstream.harness.streams import ShadowGraph
from vcstream.pdpsa import MatchingState, pdpsa_query


def _replay(stream, cfg, update, query, every):
    """Answers at every ``every``-th update, each checked against the
    oracle.  Returns (checked answers, flagged answers)."""
    shadow = ShadowGraph()
    checked = flagged = 0
    for t, upd in enumerate(stream, 1):
        shadow.apply(upd)
        try:
            update(upd)
        except SketchFail:
            return checked, flagged + 1
        if t % every and t != len(stream):
            continue
        checked += 1
        try:
            ans = query()
        except SketchFail:
            flagged += 1
            continue
        if ans.degraded:
            flagged += 1
            continue
        want = oracle_vc(shadow.edges(), cfg.k)
        assert ans.kind == want.kind, (t, ans, want)
        if ans.is_yes:
            assert len(ans.cover) <= cfg.k
            assert covers(ans.cover, shadow.edges())
    return checked, flagged


@settings(max_examples=300, deadline=None, derandomize=True)
@given(delta=st.sampled_from([0.5, 0.1, 0.01, 1e-4]),
       seed=st.integers(0, 1 << 30), n=st.integers(4, 40),
       k=st.integers(1, 4), mode=st.sampled_from(["dpsa", "pdpsa"]))
def test_every_answer_matches_the_oracle_or_is_flagged(delta, seed, n, k,
                                                       mode):
    rng = random.Random(seed)
    cfg = Config(n=n, k=k, delta=delta, seed=seed)
    if mode == "dpsa":
        # at most n*k updates, so every query recovers the live edges
        stream = gen_random_stream(n, rng.randint(1, n * k), 0.3, rng)
        st_ = DpsaState(cfg)
        checked, _ = _replay(stream, cfg,
                             lambda upd: dpsa_update(st_, upd),
                             lambda: dpsa_query(st_), every=7)
    else:
        stream = gen_promised_stream(cfg, rng.randint(1, 4 * n), 0.3, rng)
        st_ = MatchingState(cfg)
        checked, _ = _replay(stream, cfg, st_.apply,
                             lambda: pdpsa_query(st_), every=7)
    assert checked >= 1


def _flag_counts(mode, n, k, delta, runs=30):
    """(flagged, checked) answers over ``runs`` seeded streams, a query
    every 5 updates: for dpsa, random streams of 5nk/4 updates, a tenth
    of them deletions, that end near n*k live edges, the capacity of its
    grid; for pdpsa, promised streams of 4n updates."""
    checked = flagged = 0
    for seed in range(runs):
        rng = random.Random(seed)
        cfg = Config(n=n, k=k, delta=delta, seed=seed)
        if mode == "dpsa":
            stream = gen_random_stream(n, n * k * 5 // 4, 0.1, rng)
            st_ = DpsaState(cfg)
            got = _replay(stream, cfg, lambda upd: dpsa_update(st_, upd),
                          lambda: dpsa_query(st_), every=5)
        else:
            stream = gen_promised_stream(cfg, 4 * n, 0.3, rng)
            st_ = MatchingState(cfg)
            got = _replay(stream, cfg, st_.apply, lambda: pdpsa_query(st_),
                          every=5)
        checked += got[0]
        flagged += got[1]
    return flagged, checked


# the measured (flagged, checked) answers per delta at one (n, k) a mode
_FLAG_CURVE = {
    ("dpsa", 30, 3): {0.1: (0, 690), 0.01: (0, 690), 1e-4: (0, 690)},
    ("pdpsa", 30, 2): {0.1: (0, 720), 0.01: (0, 720), 1e-4: (0, 720)},
}


@pytest.mark.parametrize(("mode", "n", "k"), sorted(_FLAG_CURVE))
def test_flag_rate_is_at_most_delta(mode, n, k):
    for delta, measured in _FLAG_CURVE[mode, n, k].items():
        flagged, checked = _flag_counts(mode, n, k, delta)
        assert (flagged, checked) == measured, delta
        assert flagged / checked <= delta
