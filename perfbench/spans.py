"""Spans around calls into vcstream's layers, installed from outside.

``Tracer.install`` replaces each traced public function or method of the
imported ``vcstream`` modules with a wrapper that records one span, and
``Tracer.uninstall`` puts the originals back:
``(name, start, end, parent, note)``.  ``parent`` is the index of the
enclosing traced span (-1 at top level); ``note`` is a small fact read
from the arguments or the result, such as whether a sample hit.  Spans
stay in memory and are folded into per-layer metrics when a round ends.
"""

from __future__ import annotations

import functools
import time

FAILED = "failed"


def _is_hit(args, out):
    return out.is_index


def _size(args, out):
    return len(out)


def _kernel_edges(args, out):
    return None if out is None else len(out.edges)


def _gated(args, out):
    st = args[0]
    k = args[1] if len(args) > 1 and args[1] is not None else st.config.k
    return st.live > st.config.n * k


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def wrap(self, fn, name, note=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                spans[sid] = (name, t0, clock(), parent, FAILED)
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            spans[sid] = (name, t0, t1, parent,
                          note(args, out) if note else None)
            return out

        return traced

    def _patch(self, owner, attr, name, note=None) -> None:
        raw = owner.__dict__[attr]
        self._saved.append((owner, attr, raw))
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = self.wrap(fn, name, note)
        setattr(owner, attr, staticmethod(wrapped)
                if isinstance(raw, staticmethod) else wrapped)

    def install(self) -> None:
        """Wrap every traced entry point; callers must look names up after."""
        from vcstream import core, dpsa, fvs, kernel, pdpsa, psa, sketch

        for attr, name, note in (("__init__", "sketch.init", None),
                                 ("update", "sketch.update", None),
                                 ("sample", "sketch.sample", _is_hit),
                                 ("recover", "sketch.recover", _size)):
            self._patch(sketch.SampleRecovery, attr, name, note)
        self._patch(core.Edge, "from_index", "core.edge_from_index")
        self._patch(kernel, "kernelize", "kernel.kernelize", _kernel_edges)
        self._patch(kernel, "solve_kernel", "kernel.solve")
        for attr, name in (("apply", "pdpsa.apply"),
                           ("announce_neighborhood", "pdpsa.announce"),
                           ("rematch", "pdpsa.rematch"),
                           ("extract_kernel_edges", "pdpsa.extract")):
            self._patch(pdpsa.MatchingState, attr, name)
        self._patch(pdpsa, "pdpsa_query", "pdpsa.query")
        self._patch(psa, "psa_insert", "psa.insert")
        self._patch(psa, "psa_query", "psa.query")
        self._patch(dpsa, "dpsa_update", "dpsa.update")
        self._patch(dpsa, "dpsa_query", "dpsa.query", _gated)
        self._patch(fvs, "fvs_insert", "fvs.insert")
        self._patch(fvs, "fvs_decide", "fvs.decide")
        self._patch(fvs, "fvs_query", "fvs.query")

    def uninstall(self) -> None:
        """Put back every original that ``install`` replaced."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def take(self) -> dict:
        """Fold the recorded spans into per-name figures and clear them.

        Returns ``{name: [calls, total_s, self_s, notes]}`` (``notes``
        holds the spans' non-empty notes) plus the
        ``rematch_draws`` count: samples drawn directly inside Rematch.
        """
        spans, self.spans[:] = list(self.spans), []
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        draws = 0
        for sid, (name, t0, t1, parent, note) in enumerate(spans):
            row = out.setdefault(name, [0, 0.0, 0.0, []])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
            if note is not None:
                row[3].append(note)
            if name == "sketch.sample" and parent >= 0 \
                    and spans[parent][0] == "pdpsa.rematch":
                draws += 1
        out["rematch_draws"] = draws
        return out
