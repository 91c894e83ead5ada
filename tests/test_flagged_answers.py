"""Every answer of a randomized mode is right or carries ``degraded``.

A hypothesis property over the failure parameter delta and the seeds:
dpsa on random +/-1 streams that stay within its n*k gate, and pdpsa on
promised streams.  Each query's answer must match the exhaustive oracle
or be flagged; a raised ``SketchFail`` counts as flagged, and a state
that raised one flags every later answer.
"""

import random

from hypothesis import given, settings, strategies as st

from vcstream.core import Config, ShadowGraph, SketchFail, covers
from vcstream.dpsa import DpsaState, dpsa_query, dpsa_update
from vcstream.harness.generators import gen_promised_stream, gen_random_stream
from vcstream.harness.oracles import oracle_vc
from vcstream.pdpsa import MatchingState, pdpsa_query


def _replay(stream, cfg, update, query, every):
    """Answers at every ``every``-th update, each checked against the
    oracle.  Returns (checked answers, flagged answers)."""
    shadow = ShadowGraph(cfg.n)
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
