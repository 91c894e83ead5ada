"""vcstream benchmark: replay seeded streams through the four modes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dynamic-sketch --seed 1 --seconds 55 \
        --trace 0

Generates the workload's streams from ``--seed`` (``gen.py``), starts a
fresh single-threaded interpreter per measurement (``worker.py``), checks
every answer with ``check.py`` and prints, as its last line, one JSON
object: ``correct``, ``attempted`` and ``failed`` count queries, and
``metrics`` holds the end-to-end metrics (``--trace 0``) or the per-layer
ones (``--trace 1``).  ``--write-benchmark-json`` writes
``BENCHMARK.json`` in its fixed form instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Setups per run; setup_s is their median.  Half run before the replay
# and half after it, so they do not all fall in one spell of host speed.
SETUPS = 5
RUN_SECONDS = 55
WORKER_TIMEOUT_S = 150

WHY = {
    "dynamic-sketch": "pdpsa with two hubs past the sketch capacity and "
                      "FIFO churn forcing rematches (sketch writes), then "
                      "dpsa under the n*k gate (every query recovers)",
    "insertion-solve": "insertion-only index gadgets (the lower-bound "
                       "instance, kernelize plus branching) and bridged "
                       "fans (FVS subset search); no sketch",
}
# The host's speed drifts by up to 1.7x in spells of seconds to minutes,
# so runs of one commit can spread by a quarter and more.  Timings get
# the widest bound.  words_peak repeats exactly for a seed but varies a
# few percent from seed to seed on insertion-solve.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("updates_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_p90_ms", "ms", "lower", 0.25),
    ("words_peak", "words", "lower", 0.1),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]
PER_LAYER_UNITS = {"_s": "s", "_us": "us", "_calls": "count",
                   "_mean": "count", "_ratio": "ratio"}
PER_LAYER = [
    "harness.import_s", "harness.parse_stream_s",
    "sketch.init_s", "sketch.init_calls",
    "sketch.update_s", "sketch.update_calls", "sketch.update_us",
    "sketch.sample_s", "sketch.sample_calls", "sketch.sample_hit_ratio",
    "sketch.recover_s", "sketch.recover_calls", "sketch.recover_fails",
    "sketch.recovered_mean",
    "core.edge_from_index_s", "core.edge_from_index_calls",
    "kernel.kernelize_s", "kernel.kernel_edges_mean", "kernel.no_by_bound",
    "kernel.solve_s",
    "psa.insert_s", "psa.query_self_s",
    "pdpsa.apply_self_s", "pdpsa.announce_s", "pdpsa.announce_calls",
    "pdpsa.extract_s", "pdpsa.rematches", "pdpsa.rematch_draws",
    "pdpsa.rematch_misses", "pdpsa.sketch_fails",
    "dpsa.update_self_s", "dpsa.query_self_s", "dpsa.gated",
    "fvs.insert_s", "fvs.decide_s", "fvs.decide_calls",
    "trace.overhead_s", "trace.overhead_ratio",
]
HIGHER = {"sketch.sample_hit_ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in gen.WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": unit_of(n),
                       "better": "higher" if n in HIGHER else "lower"}
                      for n in PER_LAYER],
    }


def spawn(wl: gen.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    payload = json.dumps({"seed": seed,
                          "texts": [s.text for s in wl.streams]})
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), repr(t0),
         repr(seconds), "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(payload, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def position_latencies(rounds) -> list:
    """Each query position's median latency over the rounds.

    The host's speed drifts by up to 1.7x in spells of seconds to
    minutes.  A percentile pooled over single calls mixes the spells'
    shares into the tail; a median per position over the rounds keeps
    the run's typical speed, and a position's tail is its own query's.
    """
    out = []
    for calls in zip(*(r["latencies_s"] for r in rounds)):
        done = [x for x in calls if x is not None]
        if done:
            out.append(statistics.median(done))
    return out


def measure(wl: gen.Workload, seed: int, seconds: float, trace: bool,
            setups: int = SETUPS) -> dict:
    """Set up ``setups`` times, replay for ``seconds``; check and report."""
    before = [spawn(wl, seed, -1, False) for _ in range((setups - 1) // 2)]
    main = spawn(wl, seed, seconds, trace)
    after = [spawn(wl, seed, -1, False)
             for _ in range(setups - 1 - len(before))]
    setup = before + [main] + after
    expects = [e for s in wl.streams for e in s.expects]
    attempted = failed = wrong = 0
    for rnd in main["rounds"]:
        for exp, ans in zip(expects, rnd["answers"], strict=True):
            attempted += 1
            if check.judge(exp, ans) is not None:
                failed += 1
                wrong += ans[0] != "error"
    untraced = [r for r in main["rounds"] if not r["traced"]]
    if trace:
        pairs = zip(main["rounds"][::2], main["rounds"][1::2])
        over = statistics.median(
            (b["replay_s"] - a["replay_s"]) * (1 if b["traced"] else -1)
            for a, b in pairs)
        base = statistics.median(r["replay_s"] for r in untraced)
        metrics = dict(main["layers"])
        metrics["harness.import_s"] = statistics.median(
            s["import_s"] for s in setup)
        metrics["harness.parse_stream_s"] = statistics.median(
            s["parse_s"] for s in setup)
        metrics["trace.overhead_s"] = over
        metrics["trace.overhead_ratio"] = over / base
        named = {n: (metrics[n], unit_of(n)) for n in PER_LAYER}
    else:
        lat = position_latencies(untraced)
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        named = {
            "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
            "updates_per_s": (wl.updates * len(untraced)
                              / sum(r["replay_s"] for r in untraced), "1/s"),
            "query_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "query_p90_ms": (1e3 * deciles[8], "ms"),
            "words_peak": (max(r["words_peak"] for r in untraced), "words"),
            "peak_rss_mb": (main["peak_rss_kb"] / 1024, "MiB"),
        }
    return {"correct": wrong == 0, "attempted": attempted,
            "failed": failed, "rounds": len(main["rounds"]),
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u) in named.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "vcstream",
                                       "__init__.py")):
        print("error: no src/vcstream in this checkout", file=sys.stderr)
        return 2
    wl = gen.make(args.workload, args.seed)
    result = measure(wl, args.seed, args.seconds, args.trace == 1)
    del result["rounds"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
