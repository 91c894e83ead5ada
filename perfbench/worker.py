"""One fresh, single-threaded process that sets up and replays a workload.

Usage (``run.py`` starts it; the request arrives as JSON on stdin)::

    python3 perfbench/worker.py T0 SECONDS TRACE

``T0`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (the clock is system-wide monotonic, so ``setup_s`` runs
from interpreter start to a state ready for its first update).
``SECONDS`` < 0 means set up and stop.  Otherwise whole rounds are
replayed until ``SECONDS`` have passed; each round replays every stream
of the workload once, from freshly built states, as a closed loop: each
update is applied after the previous call returns, and each query sits at
its fixed position in the stream.  With ``TRACE`` = 1 rounds run in
pairs, one traced and one not, in alternating order; the traced rounds
give the per-layer figures, and each pair one sample of the tracing
overhead.  The result is one JSON object on stdout.
"""

import json
import os
import sys
import time


def _ops(mode):
    """(new_state, update, query, words) for a mode, looked up late so
    that a tracer installed before this call is seen."""
    from vcstream import core, dpsa, fvs, pdpsa, psa
    if mode == "psa":
        def update(st, sf, ev):
            if ev.op != core.INSERT:
                raise ValueError("deletion in insertion-only mode")
            psa.psa_insert(st, ev.edge)
        return (lambda sf, cfg: psa.PsaState(k=sf.k), update,
                lambda st, sf: psa.psa_query(st, sf.k),
                lambda st, sf: st.words())
    if mode == "pdpsa":
        return (lambda sf, cfg: pdpsa.MatchingState(cfg),
                lambda st, sf, ev: st.apply(ev),
                lambda st, sf: pdpsa.pdpsa_query(st, sf.k),
                lambda st, sf: st.words())
    if mode == "dpsa":
        return (lambda sf, cfg: dpsa.DpsaState(cfg),
                lambda st, sf, ev: dpsa.dpsa_update(st, ev),
                lambda st, sf: dpsa.dpsa_query(st, sf.k),
                lambda st, sf: st.sketch.words() + 2)

    def fvs_update(st, sf, ev):
        if ev.op != core.INSERT:
            raise ValueError("deletion in insertion-only mode")
        fvs.fvs_insert(st, ev.edge, sf.n, sf.k)
    return (lambda sf, cfg: fvs.FvsState(), fvs_update,
            lambda st, sf: fvs.fvs_query(st, sf.k),
            lambda st, sf: 2 * len(st.stored) + 1)


def replay(files, states, ops):
    """One round.  Returns (replay_s, latencies_s, answers, words_peak).

    ``ops`` maps each stream's mode to ``_ops(mode)``.  An answer is
    ``[kind, cover]``, or ``["error", message]`` when the query raised or
    an earlier update of its stream did; its latency is then None.
    Reading ``words`` after a query is kept out of the replay time.
    """
    from vcstream.harness.streams import QUERY
    clock = time.perf_counter
    lat, answers, peak, excluded = [], [], 0, 0.0
    start = clock()
    for sf, st in zip(files, states):
        _, update, query, words = ops[sf.mode]
        broken = None
        for ev in sf.events:
            if ev != QUERY:
                if broken is None:
                    try:
                        update(st, sf, ev)
                    except Exception as exc:  # reported, never raised
                        broken = f"update raised {exc!r}"
                continue
            if broken is not None:
                answers.append(["error", broken])
                lat.append(None)
                continue
            q0 = clock()
            try:
                ans = query(st, sf)
            except Exception as exc:  # reported, never raised
                answers.append(["error", f"query raised {exc!r}"])
                lat.append(None)
                continue
            q1 = clock()
            lat.append(q1 - q0)
            answers.append([ans.kind, sorted(ans.cover)])
            peak = max(peak, words(st, sf))
            excluded += clock() - q1
    return clock() - start - excluded, lat, answers, peak


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(folds, counters, rounds):
    """Per-round per-layer figures from ``Tracer.take`` folds."""
    agg: dict = {}
    draws = 0
    for fold in folds:
        draws += fold.pop("rematch_draws")
        for name, (calls, total, own, notes) in fold.items():
            row = agg.setdefault(name, [0, 0.0, 0.0, []])
            row[0] += calls
            row[1] += total
            row[2] += own
            row[3] += notes

    def calls(name):
        return agg.get(name, [0])[0] / rounds

    def total(name):
        return agg.get(name, [0, 0.0])[1] / rounds

    def own(name):
        return agg.get(name, [0, 0.0, 0.0])[2] / rounds

    def notes(name):
        return agg.get(name, [0, 0.0, 0.0, []])[3]

    samples = notes("sketch.sample")
    recovered = [x for x in notes("sketch.recover") if x != "failed"]
    kern = notes("kernel.kernelize")
    upd_calls = agg.get("sketch.update", [0, 0.0])
    return {
        "sketch.init_s": total("sketch.init"),
        "sketch.init_calls": calls("sketch.init"),
        "sketch.update_s": total("sketch.update"),
        "sketch.update_calls": calls("sketch.update"),
        "sketch.update_us": (1e6 * upd_calls[1] / upd_calls[0]
                             if upd_calls[0] else 0.0),
        "sketch.sample_s": total("sketch.sample"),
        "sketch.sample_calls": calls("sketch.sample"),
        "sketch.sample_hit_ratio": (sum(1 for x in samples if x)
                                    / len(samples) if samples else 0.0),
        "sketch.recover_s": total("sketch.recover"),
        "sketch.recover_calls": calls("sketch.recover"),
        "sketch.recover_fails": (notes("sketch.recover").count("failed")
                                 / rounds),
        "sketch.recovered_mean": _mean(recovered),
        "core.edge_from_index_s": total("core.edge_from_index"),
        "core.edge_from_index_calls": calls("core.edge_from_index"),
        "kernel.kernelize_s": total("kernel.kernelize"),
        "kernel.kernel_edges_mean": _mean([x for x in kern
                                           if x is not None]),
        "kernel.no_by_bound": sum(1 for x in kern if x is None) / rounds,
        "kernel.solve_s": total("kernel.solve"),
        "psa.insert_s": total("psa.insert"),
        "psa.query_self_s": own("psa.query"),
        "pdpsa.apply_self_s": own("pdpsa.apply"),
        "pdpsa.announce_s": total("pdpsa.announce"),
        "pdpsa.announce_calls": calls("pdpsa.announce"),
        "pdpsa.extract_s": total("pdpsa.extract"),
        "pdpsa.rematches": counters.get("rematches", 0) / rounds,
        "pdpsa.rematch_draws": draws / rounds,
        "pdpsa.rematch_misses": counters.get("rematch_misses", 0) / rounds,
        "pdpsa.sketch_fails": counters.get("sketch_fails", 0) / rounds,
        "dpsa.update_self_s": own("dpsa.update"),
        "dpsa.query_self_s": own("dpsa.query"),
        "dpsa.gated": sum(1 for x in notes("dpsa.query") if x is True)
        / rounds,
        "fvs.insert_s": total("fvs.insert"),
        "fvs.decide_s": total("fvs.decide"),
        "fvs.decide_calls": calls("fvs.decide"),
    }


def main(argv):
    t0, seconds, trace = float(argv[1]), float(argv[2]), argv[3] == "1"
    req = json.loads(sys.stdin.read())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    clock = time.perf_counter
    ti = clock()
    import vcstream  # noqa: F401  (the import is what is timed)
    from vcstream.core import Config
    from vcstream.harness.streams import parse_stream
    tp = clock()
    files = [parse_stream(text, validate=True) for text in req["texts"]]
    tc = clock()
    cfgs = [Config(n=sf.n, k=sf.k, seed=req["seed"]) for sf in files]
    modes = {sf.mode for sf in files}
    ops = {m: _ops(m) for m in modes}
    states = [ops[sf.mode][0](sf, cfg) for sf, cfg in zip(files, cfgs)]
    ready = clock()
    out = {"setup_s": ready - t0, "import_s": tp - ti, "parse_s": tc - tp}
    if seconds < 0:
        print(json.dumps(out))
        return 0

    if trace:
        from spans import Tracer
        tracer = Tracer()
    rounds, folds, counters = [], [], {}
    begin = clock()
    while True:
        # traced runs go in pairs, untraced-traced then traced-untraced
        traced = trace and (len(rounds) % 2 == 1) != (len(rounds) % 4 >= 2)
        if traced:
            tracer.install()
        ops = {m: _ops(m) for m in modes}
        if states is None:
            states = [ops[sf.mode][0](sf, cfg)
                      for sf, cfg in zip(files, cfgs)]
        replay_s, lat, answers, peak = replay(files, states, ops)
        rounds.append({"replay_s": replay_s, "latencies_s": lat,
                       "answers": answers, "words_peak": peak,
                       "traced": traced})
        if traced:
            tracer.uninstall()
            folds.append(tracer.take())
            for st in states:
                for key, attr in (("rematches", "rematch_count"),
                                  ("rematch_misses", "rematch_miss_count"),
                                  ("sketch_fails", "sketch_fail_count")):
                    counters[key] = counters.get(key, 0) \
                        + getattr(st, attr, 0)
        states = None
        if clock() - begin >= seconds and (not trace or len(rounds) % 2 == 0):
            break
    if trace:
        out["layers"] = layer_metrics(folds, counters, len(folds))
    import resource
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rounds"] = rounds
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
