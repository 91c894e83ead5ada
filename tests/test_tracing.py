"""The benchmark's tracer wraps vcstream's entry points from outside.

``perfbench/spans.py`` looks each traced name up in the ``__dict__`` of
its module or class, so renaming one, or inheriting it from a base
class, breaks traced benchmark runs and ``perfbench/selftest.py``.  The
worker, ``perfbench/worker.py``, drives the states through its own
``_ops`` table and reads run counters by name with a default of 0, so a
renamed counter would read 0 there without an error.
"""

import ast
import importlib
import pathlib

from vcstream import core, dpsa, fvs, kernel, pdpsa, psa, sketch
from vcstream.harness.streams import QUERY, parse_stream

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

TRACED = {
    sketch.SampleRecovery: ("__init__", "update", "sample", "recover"),
    pdpsa.MatchingState: ("apply", "announce_neighborhood", "rematch",
                          "extract_kernel_edges"),
}


def test_tracer_install_then_uninstall_restores_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    owners = (core, dpsa, fvs, kernel, pdpsa, psa, sketch, core.Edge,
              *TRACED)
    before = {owner: dict(vars(owner)) for owner in owners}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attrs in TRACED.items():
            for attr in attrs:
                assert vars(owner)[attr] is not before[owner][attr], attr
        s = sketch.SampleRecovery(600, capacity=3, seed=1, sampled=True)
        for i in range(1, 9):
            s.update(i, +1)
        assert len(s.recover()) >= 3
        assert s.sample(0).is_index
    finally:
        tracer.uninstall()
    for owner in owners:
        assert dict(vars(owner)) == before[owner], owner
    names = {span[0] for span in tracer.spans}
    assert {"sketch.init", "sketch.update", "sketch.recover",
            "sketch.sample"} <= names


# a small stream per mode, each with queries, for the worker's bindings
WORKER_STREAMS = {
    "psa": "6 2 psa\n+ 1 2\n+ 2 3\n?\n+ 4 5\n+ 3 4\n?\n",
    "pdpsa": "8 2 pdpsa\n+ 1 2\n+ 1 3\n+ 1 4\n?\n- 1 2\n+ 5 6\n?\n- 1 3\n?\n",
    "dpsa": "6 2 dpsa\n+ 1 2\n+ 2 3\n?\n- 1 2\n+ 4 5\n?\n",
    "fvs": "5 1 fvs\n+ 1 2\n+ 2 3\n?\n+ 1 3\n+ 3 4\n?\n",
}


def _worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("worker")


def test_worker_ops_replay_each_mode_and_count_words_as_the_states(
        monkeypatch):
    worker = _worker(monkeypatch)
    for mode, text in WORKER_STREAMS.items():
        sf = parse_stream(text, validate=True)
        new_state, update, query, words = worker._ops(mode)
        st = new_state(sf, core.Config(n=sf.n, k=sf.k, seed=0))
        for ev in sf.events:
            if ev != QUERY:
                update(st, sf, ev)
                continue
            assert query(st, sf).kind in ("yes", "no"), mode
            assert words(st, sf) == st.words(), mode


def _getattr_counters(source):
    """Names the worker reads with ``getattr(st, attr, 0)`` in a loop
    ``for key, attr in ((key, name), ...)``."""
    names = []
    for loop in ast.walk(ast.parse(source)):
        if not (isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Tuple)):
            continue
        bound = [getattr(t, "id", None) for t in loop.target.elts]
        reads = [c for c in ast.walk(loop) if isinstance(c, ast.Call)
                 and getattr(c.func, "id", None) == "getattr"
                 and len(c.args) == 3
                 and getattr(c.args[1], "id", None) in bound]
        for call in reads:
            at = bound.index(call.args[1].id)
            names += [pair.elts[at].value for pair in loop.iter.elts]
    return names


def test_worker_counters_exist_on_the_matching_state(monkeypatch):
    worker = _worker(monkeypatch)
    names = _getattr_counters(pathlib.Path(worker.__file__).read_text())
    assert len(names) >= 3
    st = pdpsa.MatchingState(core.Config(n=8, k=2))
    for name in names:
        assert isinstance(getattr(st, name), int), name


def test_traced_dpsa_stream_records_the_query_path(monkeypatch):
    worker = _worker(monkeypatch)
    spans = importlib.import_module("spans")
    sf = parse_stream(WORKER_STREAMS["dpsa"], validate=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        new_state, update, query, _ = worker._ops("dpsa")
        st = new_state(sf, core.Config(n=sf.n, k=sf.k, seed=0))
        live = []
        for ev in sf.events:
            if ev != QUERY:
                update(st, sf, ev)
                continue
            live.append(st.live)
            query(st, sf)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    parents = [tracer.spans[span[3]][0] if span[3] >= 0 else None
               for span in tracer.spans]
    recovers = [span for span in tracer.spans if span[0] == "sketch.recover"]
    assert [span[4] for span in recovers] == live
    assert all(tracer.spans[span[3]][0] == "dpsa.query" for span in recovers)
    # both queries leave a kernel (no vertex of degree > 2, 2 <= 4 edges)
    assert [parent for name, parent in zip(names, parents)
            if name == "kernel.solve"] == ["dpsa.query"] * len(live)
    # the query decodes its recovery and runs Buss's rule on arrays, not
    # edge by edge, so only the recovery and the solver sit under it
    assert {name for name, parent in zip(names, parents)
            if parent == "dpsa.query"} == {"sketch.recover", "kernel.solve"}
    assert "kernel.kernelize" not in names
    assert "core.edge_from_index" not in names
