"""Command-line driver: run stream files or generate instances.

Reports are line-oriented ``key=value`` text on stdout.  ``--delta``
sets the sketches' one failure target each: delta/2n for a pdpsa vertex
sketch, delta/2N for dpsa's sketch over its N edge slots.  Exit codes:
0 ok, 2 parse error or a header the states refuse (such as a dpsa n
past its sketch's index limit), 3 invalid stream (an insert of a live
edge, a delete of an absent one, or any delete in an insertion-only
mode), 4 promise violation, 5 unreliable run (a sketch failed, or a Yes
certificate failed its check against the live edges so far, which the
driver keeps in one set).
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from ..core import (INSERT, PROMISE_VIOLATION, Config, Edge, InvalidStream,
                    SketchFail, SolverError)
from ..dpsa import DpsaState, dpsa_query, dpsa_update
from ..fvs import FvsState, check_fvs, fvs_insert, fvs_query
from ..kernel import check_cover
from ..pdpsa import MatchingState, pdpsa_query
from ..psa import PsaState, psa_insert, psa_query
from .generators import (edges_to_stream, gen_disjointness_gadget,
                         gen_index_gadget, gen_promised_stream,
                         gen_random_stream)
from .streams import (MODES, QUERY, ParseError, StreamFile, apply_live,
                      emit_stream, parse_stream)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_PROMISE = 4
EXIT_UNRELIABLE = 5


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vcstream",
        description="streaming vertex cover / feedback vertex set driver")
    p.add_argument("--mode", choices=MODES,
                   help="override the mode in the stream header")
    p.add_argument("--k", type=int, help="override the header budget k")
    p.add_argument("--n", type=int, help="vertex count (generators)")
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", metavar="FILE",
                   help="stream file to run ('-' for stdin)")
    p.add_argument("--gen", choices=("random", "promised", "index",
                                     "disjointness"),
                   help="emit a generated stream instead of running one")
    p.add_argument("--length", type=int, default=100,
                   help="update count for random/promised generators")
    p.add_argument("--churn", type=float, default=0.3,
                   help="delete fraction for random/promised generators")
    p.add_argument("--gadget-k", type=int, default=2,
                   help="matrix side for the index gadget")
    p.add_argument("--probe-i", type=int, default=1)
    p.add_argument("--probe-j", type=int, default=1)
    p.add_argument("--x-bits", default="0",
                   help="bit string for the disjointness gadget, e.g. 0110")
    p.add_argument("--y-bits", default="0")
    return p


# -- generation -------------------------------------------------------------


def _bits(text: str) -> list[int]:
    # a digit past 1 is the gadget's to refuse
    for ch in text:
        if not ch.isdecimal():
            raise ValueError(f"gadget bits must be 0 or 1, not {ch!r}")
    return [int(ch) for ch in text]


def _generate(args) -> str:
    rng = random.Random(args.seed)
    if args.gen in ("random", "promised"):
        n = 20 if args.n is None else args.n
        if n < 1:
            raise ValueError(f"--n {n}: a stream needs at least one vertex")
        k = args.k if args.k is not None else 3
        if args.gen == "random":
            events = gen_random_stream(n, args.length, args.churn, rng)
        else:
            cfg = Config(n=n, k=k, delta=args.delta, seed=args.seed)
            events = gen_promised_stream(cfg, args.length, args.churn, rng)
        mode = args.mode or ("dpsa" if args.gen == "random" else "pdpsa")
        return emit_stream(StreamFile(n, k, mode, events + [QUERY]))
    if args.gen == "index":
        gk = args.gadget_k
        x = [[rng.randint(0, 1) for _ in range(gk)] for _ in range(gk)]
        edges = gen_index_gadget(x, args.probe_i, args.probe_j)
        k = args.k if args.k is not None else 2 * gk - 1
        return emit_stream(StreamFile(6 * gk, k, args.mode or "psa",
                                      edges_to_stream(edges) + [QUERY]))
    xb, yb = _bits(args.x_bits), _bits(args.y_bits)
    edges = gen_disjointness_gadget(xb, yb)
    k = args.k if args.k is not None else 0
    return emit_stream(StreamFile(8 * len(xb), k, args.mode or "fvs",
                                  edges_to_stream(edges) + [QUERY]))


# -- execution --------------------------------------------------------------


def _dpsa_query(st: DpsaState, k: int, out):
    gated = st.live > st.config.n * k
    print(f"recovery_skipped={str(gated).lower()}", file=out)
    return dpsa_query(st, k)


# mode -> (build(cfg), update(state, event, cfg), query(state, k, out),
#          Yes check(certificate, edges, k), insertion-only)
_MODES = {
    "psa": (lambda cfg: PsaState(k=cfg.k),
            lambda st, ev, cfg: psa_insert(st, ev.edge),
            lambda st, k, out: psa_query(st, k), check_cover, True),
    "pdpsa": (MatchingState, lambda st, ev, cfg: st.apply(ev),
              lambda st, k, out: pdpsa_query(st, k), check_cover, False),
    "dpsa": (DpsaState, lambda st, ev, cfg: dpsa_update(st, ev),
             _dpsa_query, check_cover, False),
    "fvs": (lambda cfg: FvsState(),
            lambda st, ev, cfg: fvs_insert(st, ev.edge, cfg.n, cfg.k),
            lambda st, k, out: fvs_query(st, k), check_fvs, True),
}

# run counters reported by the states that keep them
_COUNTERS = (("sketch_fails", "sketch_fail_count"),
             ("rematch_misses", "rematch_miss_count"),
             ("rematches", "rematch_count"))


def _run(sf: StreamFile, args, out) -> int:
    mode = args.mode or sf.mode
    k = args.k if args.k is not None else sf.k
    print(f"mode={mode}", file=out)
    print(f"n={sf.n}", file=out)
    print(f"k={k}", file=out)
    print(f"seed={args.seed}", file=out)

    build, update, query, check, insertion_only = _MODES[mode]
    try:
        cfg = Config(n=sf.n, k=k, delta=args.delta, seed=args.seed)
        st = build(cfg)
    except ValueError as exc:
        print(f"error={exc}", file=out)
        return EXIT_PARSE
    live: set[Edge] = set()
    started = time.perf_counter()
    n_queries = 0

    for ev in sf.events:
        if ev == QUERY:
            n_queries += 1
            print(f"query={n_queries}", file=out)
            try:
                ans = query(st, k, out)
            except SketchFail as exc:
                print(f"error={exc}", file=out)
                return EXIT_UNRELIABLE
            print(f"answer={ans.kind}", file=out)
            if ans.kind == PROMISE_VIOLATION:
                print(f"violated_at={st.violated_at}", file=out)
                return EXIT_PROMISE
            if ans.is_yes:
                cover = sorted(ans.cover)
                print("cover=" + ",".join(map(str, cover)), file=out)
                try:
                    check(cover, live, k)
                except SolverError:
                    print("verified=false", file=out)
                    return EXIT_UNRELIABLE
                print("verified=true", file=out)
            continue

        try:
            apply_live(live, ev)
            if insertion_only and ev.op != INSERT:
                raise InvalidStream("deletion in insertion-only mode")
        except InvalidStream as exc:
            print(f"error={exc}", file=out)
            return EXIT_INVALID
        try:
            update(st, ev, cfg)
        except SketchFail as exc:
            print(f"error={exc}", file=out)
            return EXIT_UNRELIABLE
        except ValueError as exc:
            # pdpsa builds a vertex's sketch at its first write, and the
            # sketch may refuse its size there as a state does at build
            print(f"error={exc}", file=out)
            return EXIT_PARSE

    print(f"words_stored={st.words()}", file=out)
    for key, attr in _COUNTERS:
        if hasattr(st, attr):
            print(f"{key}={getattr(st, attr)}", file=out)
    print(f"elapsed_s={time.perf_counter() - started:.3f}", file=out)
    return EXIT_OK


def run_cli(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    if args.gen:
        try:
            text = _generate(args)
            # write only a stream that --input reads back
            parse_stream(text)
        except ValueError as exc:
            print(f"error={exc}", file=sys.stderr)
            return EXIT_PARSE
        out.write(text)
        return EXIT_OK
    if not args.input:
        print("error=need --input FILE or --gen", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as f:
                text = f.read()
        sf = parse_stream(text)
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_PARSE
    return _run(sf, args, out)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
