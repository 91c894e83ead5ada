"""The benchmark's tracer wraps vcstream's entry points from outside.

``perfbench/spans.py`` looks each traced name up in the ``__dict__`` of
its module or class, so renaming one, or inheriting it from a base
class, breaks traced benchmark runs and ``perfbench/selftest.py``.
"""

import importlib
import pathlib

from vcstream import core, dpsa, fvs, kernel, pdpsa, psa, sketch

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
        s = sketch.SampleRecovery(600, capacity=2, need=3, seed=1)
        for i in range(1, 9):
            s.update(i, +1)
        assert len(s.recover(need=3)) >= 3
        assert s.sample(0).is_index
    finally:
        tracer.uninstall()
    for owner in owners:
        assert dict(vars(owner)) == before[owner], owner
    names = {span[0] for span in tracer.spans}
    assert {"sketch.init", "sketch.update", "sketch.recover",
            "sketch.sample"} <= names
