"""Stream files, generators, oracles, CLI."""

import io
import itertools
import os
import random
import subprocess
import sys

import pytest

import vcstream
from vcstream.core import (Config, Edge, InvalidStream, ShadowGraph,
                           StreamUpdate)
from vcstream.core import INSERT, DELETE
from vcstream.harness.cli import run_cli
from vcstream.harness.generators import (edges_to_stream,
                                         gen_disjointness_gadget,
                                         gen_index_gadget,
                                         gen_promised_stream,
                                         gen_random_stream)
from vcstream.harness.oracles import (BudgetExceeded, oracle_fvs,
                                      oracle_min_fvs, oracle_min_vc,
                                      oracle_vc, _acyclic)
from vcstream.harness.streams import (QUERY, ParseError, StreamFile,
                                      emit_stream, parse_stream)


# -- stream files -----------------------------------------------------------


def test_parse_minimal():
    sf = parse_stream("3 1 psa\n+ 1 2\n?\n")
    assert (sf.n, sf.k, sf.mode) == (3, 1, "psa")
    assert sf.events[0].edge == Edge(1, 2)
    assert sf.events[1] == QUERY


@pytest.mark.parametrize("text", [
    "", "x y z\n", "3 1 nope\n", "3 1 psa\n* 1 2\n", "3 1 psa\n+ 1 9\n",
    "3 1 psa\n+ 1 1\n", "0 1 psa\n",
])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_stream(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_stream("3 1 psa\n+ 1 2\n+ bad\n")
    assert err.value.lineno == 3


def test_validating_mode_catches_absent_delete():
    with pytest.raises(InvalidStream):
        parse_stream("3 1 pdpsa\n- 1 2\n", validate=True)
    parse_stream("3 1 pdpsa\n- 1 2\n")  # non-validating accepts it


def test_round_trip_byte_exact():
    rng = random.Random(1)
    events = gen_random_stream(20, 1000, 0.4, rng)
    mixed = []
    for i, ev in enumerate(events):
        mixed.append(ev)
        if i % 37 == 0:
            mixed.append(QUERY)
    text = emit_stream(StreamFile(20, 3, "dpsa", mixed))
    assert emit_stream(parse_stream(text)) == text


# -- generators -------------------------------------------------------------


def test_random_stream_is_valid():
    rng = random.Random(2)
    sh = ShadowGraph(15)
    for upd in gen_random_stream(15, 400, 0.45, rng):
        sh.apply(upd)  # raises on invalid


def test_promised_stream_prefixes_covered():
    rng = random.Random(3)
    for seed in range(25):
        cfg = Config(n=15, k=3, seed=seed)
        sh = ShadowGraph(15)
        for upd in gen_promised_stream(cfg, 60, 0.35, rng):
            sh.apply(upd)
            assert oracle_vc(sh.edges(), cfg.k).is_yes


def test_promised_insertion_only_when_churn_zero():
    rng = random.Random(4)
    cfg = Config(n=10, k=2, seed=4)
    # the planted cover drawn here has one vertex, hence 9 edges to insert
    stream = gen_promised_stream(cfg, 9, 0.0, rng)
    assert len(stream) == 9
    assert all(upd.op == INSERT for upd in stream)


def test_promised_stream_raises_when_short():
    # a one-vertex cover at n=10 has 9 edges, and without churn nothing
    # frees room for more
    with pytest.raises(ValueError, match="reached 9 of 100 updates"):
        gen_promised_stream(Config(n=10, k=1), 100, 0.0, random.Random(0))


def test_cli_promised_generator_short_stream_exit_2(capsys):
    buf = io.StringIO()
    assert run_cli(["--gen", "promised", "--n", "10", "--k", "1",
                    "--length", "100", "--churn", "0"], out=buf) == 2
    assert buf.getvalue() == ""
    assert ("error=promised stream reached 9 of 100 updates"
            in capsys.readouterr().err)


@pytest.mark.parametrize("gen", ["random", "promised"])
@pytest.mark.parametrize("n", [0, -3])
def test_cli_generator_rejects_fewer_than_one_vertex(gen, n, capsys):
    # an explicit --n 0 is not "no --n": it used to write a 20-vertex stream
    buf = io.StringIO()
    assert run_cli(["--gen", gen, "--n", str(n), "--length", "3"],
                   out=buf) == 2
    assert buf.getvalue() == ""
    assert f"error=--n {n}:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    # without churn the generator retried inserts into K3 for ever
    (["random", "--n", "3", "--length", "5", "--churn", "0"],
     "a random stream with churn 0.0 never deletes, so n=3 allows at "
     "most 3 updates, not 5"),
    (["random", "--n", "1", "--length", "3"],
     "a random stream needs n >= 2 to insert an edge, not n=1"),
    (["promised", "--n", "1", "--length", "3"],
     "a promised stream needs n >= 2 to insert an edge, not n=1"),
])
def test_cli_generator_rejects_impossible_streams(args, message):
    done = _python(["-m", "vcstream.harness.cli", "--gen", *args])
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr == f"error={message}\n"


def test_random_stream_without_churn_fills_the_graph():
    events = gen_random_stream(3, 3, 0.0, random.Random(0))
    assert sorted(upd.edge for upd in events) == [(1, 2), (1, 3), (2, 3)]
    assert gen_random_stream(1, 0, 0.0, random.Random(0)) == []


def test_random_stream_deletes_when_the_graph_is_full():
    # with churn 1e-9 each step once spun on inserts into the full K3
    events = gen_random_stream(3, 5, 1e-9, random.Random(0))
    assert [upd.op for upd in events] == [INSERT] * 3 + [DELETE, INSERT]
    sh = ShadowGraph(3)
    for upd in events:
        sh.apply(upd)  # raises on invalid


def test_cli_generator_defaults_to_20_vertices():
    for gen in ("random", "promised"):
        buf = io.StringIO()
        assert run_cli(["--gen", gen, "--length", "3"], out=buf) == 0
        assert parse_stream(buf.getvalue(), validate=True).n == 20


# The generators as they were before they kept a sorted live-edge list;
# every seeded stream must come out the same.


def _old_random_stream(n, length, churn, rng):
    shadow = ShadowGraph(n)
    out = []
    while len(out) < length:
        if shadow.m and rng.random() < churn:
            upd = StreamUpdate(DELETE, rng.choice(sorted(shadow.edges())))
        else:
            u, v = rng.sample(range(1, n + 1), 2)
            e = Edge(u, v)
            if shadow.has_edge(e):
                continue
            upd = StreamUpdate(INSERT, e)
        shadow.apply(upd)
        out.append(upd)
    return out


def _old_promised_stream(cfg, length, churn, rng):
    cover = sorted(rng.sample(range(1, cfg.n + 1), rng.randint(1, cfg.k)))
    shadow = ShadowGraph(cfg.n)
    out = []
    tries = 0
    while len(out) < length and tries < 50 * length:
        tries += 1
        if shadow.m and rng.random() < churn:
            upd = StreamUpdate(DELETE, rng.choice(sorted(shadow.edges())))
        else:
            c = rng.choice(cover)
            v = rng.randrange(1, cfg.n + 1)
            if v == c:
                continue
            e = Edge(c, v)
            if shadow.has_edge(e):
                continue
            upd = StreamUpdate(INSERT, e)
        shadow.apply(upd)
        out.append(upd)
    return out


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_generators_match_sorting_versions(seed):
    for n, churn in ((8, 0.45), (40, 0.3), (120, 0.6)):
        assert (gen_random_stream(n, 500, churn, random.Random(seed))
                == _old_random_stream(n, 500, churn, random.Random(seed)))
        cfg = Config(n=n, k=3, seed=seed)
        assert (gen_promised_stream(cfg, 400, churn, random.Random(seed))
                == _old_promised_stream(cfg, 400, churn,
                                        random.Random(seed)))


def test_index_gadget_all_zero_k2():
    edges = gen_index_gadget([[0, 0], [0, 0]], 1, 1)
    assert oracle_min_vc(edges)[0] == 2  # 2k-2


def test_index_gadget_probed_one_k2():
    x = [[1, 0], [0, 0]]
    assert oracle_min_vc(gen_index_gadget(x, 1, 1))[0] == 3  # 2k-1


def test_index_gadget_random_sweep():
    rng = random.Random(6)
    for k in (2, 3):
        for _ in range(15):
            x = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
            i, j = rng.randint(1, k), rng.randint(1, k)
            size, _ = oracle_min_vc(gen_index_gadget(x, i, j))
            assert size == 2 * k - 2 + x[i - 1][j - 1]


def test_disjointness_single_block_path_and_cycle():
    assert _acyclic(gen_disjointness_gadget([0], [0]), set())
    assert not _acyclic(gen_disjointness_gadget([1], [1]), set())


def test_disjointness_equals_bitwise_disjointness():
    for n in (1, 2, 3, 4):
        for bits in itertools.product([0, 1], repeat=2 * n):
            x, y = list(bits[:n]), list(bits[n:])
            disjoint = all(not (a and b) for a, b in zip(x, y))
            acyclic = _acyclic(gen_disjointness_gadget(x, y), set())
            assert acyclic == disjoint


# -- oracles ----------------------------------------------------------------


def test_oracle_triangle():
    tri = [Edge(1, 2), Edge(1, 3), Edge(2, 3)]
    assert oracle_vc(tri, 1).is_no
    assert oracle_vc(tri, 2).is_yes


def test_oracle_c5():
    c5 = [Edge(i, i % 5 + 1) for i in range(1, 6)]
    assert oracle_min_vc(c5)[0] == 3


def test_oracle_budget_guard():
    big = [Edge(i, i + 1) for i in range(1, 60)]
    with pytest.raises(BudgetExceeded):
        oracle_vc(big, 3)
    with pytest.raises(BudgetExceeded):
        oracle_fvs(big, 3)


def test_oracle_fvs_k4():
    k4 = [Edge(u, v) for u, v in itertools.combinations(range(1, 5), 2)]
    assert oracle_min_fvs(k4)[0] == 2


# -- cli --------------------------------------------------------------------


def run(args):
    buf = io.StringIO()
    code = run_cli(args, out=buf)
    return code, dict(
        line.split("=", 1) for line in buf.getvalue().splitlines()
        if "=" in line and not line.startswith("query"))


def test_cli_psa_three_disjoint_edges(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("6 2 psa\n+ 1 2\n+ 3 4\n+ 5 6\n?\n")
    code, report = run(["--input", str(f)])
    assert code == 0
    assert report["answer"] == "no"


def test_cli_pdpsa_promised_round_trip(tmp_path):
    gen = tmp_path / "g.txt"
    buf = io.StringIO()
    assert run_cli(["--gen", "promised", "--n", "14", "--k", "3",
                    "--seed", "9", "--length", "80"], out=buf) == 0
    gen.write_text(buf.getvalue())
    code, report = run(["--input", str(gen), "--seed", "9"])
    assert code == 0
    assert report["answer"] == "yes"
    cover = [int(s) for s in report["cover"].split(",")]
    assert len(cover) <= 3
    assert report["verified"] == "true"


def test_cli_dpsa_gate_reported(tmp_path):
    lines = ["6 2 dpsa"]
    lines += [f"+ {u} {v}" for u, v in itertools.combinations(range(1, 7), 2)]
    lines.append("?")
    f = tmp_path / "k6.txt"
    f.write_text("\n".join(lines) + "\n")
    code, report = run(["--input", str(f)])
    assert code == 0
    assert report["answer"] == "no"
    assert report["recovery_skipped"] == "true"


def test_cli_dpsa_single_vertex_yes(tmp_path):
    f = tmp_path / "one.txt"
    f.write_text("1 0 dpsa\n?\n")
    code, report = run(["--input", str(f)])
    assert code == 0
    assert report["answer"] == "yes"
    assert report["cover"] == ""


def test_cli_parse_error_exit_2(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("oops\n")
    assert run_cli(["--input", str(f)]) == 2


def test_cli_invalid_stream_exit_3(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3 1 dpsa\n- 1 2\n?\n")
    code, _ = run(["--input", str(f)])
    assert code == 3


def test_cli_promise_violation_exit_4(tmp_path):
    f = tmp_path / "pv.txt"
    f.write_text("6 1 pdpsa\n+ 1 2\n+ 3 4\n?\n")
    code, report = run(["--input", str(f)])
    assert code == 4
    assert report["answer"] == "promise-violation"


def test_cli_generated_streams_parse_back():
    for mode, extra in [("random", []), ("promised", []),
                        ("index", ["--gadget-k", "3"]),
                        ("disjointness", ["--x-bits", "0110",
                                          "--y-bits", "1001"])]:
        buf = io.StringIO()
        assert run_cli(["--gen", mode, "--seed", "1"] + extra, out=buf) == 0
        sf = parse_stream(buf.getvalue(), validate=True)
        assert sf.events


def test_cli_promised_generator_past_oracle_budget():
    # 100 vertices is past the brute-force oracle's 40; the planted
    # cover check is exact at any n
    buf = io.StringIO()
    assert run_cli(["--gen", "promised", "--n", "100", "--length", "300"],
                   out=buf) == 0
    sf = parse_stream(buf.getvalue(), validate=True)
    assert sum(ev != QUERY for ev in sf.events) == 300


def _degraded_pdpsa(tmp_path):
    # a promised stream whose sketches recover whole neighborhoods only
    # up to x = 2k+1 = 9 and read the larger ones (up to 19 neighbors,
    # in Rematch and at queries) from their level grids
    buf = io.StringIO()
    assert run_cli(["--gen", "promised", "--n", "30", "--k", "4", "--seed",
                    "3", "--length", "300"], out=buf) == 0
    f = tmp_path / "p.txt"
    f.write_text(buf.getvalue())
    return f


def test_cli_pdpsa_degraded_recovery_runs_to_the_end(tmp_path):
    # recovery returned a strict subset of a neighborhood, and a T edge it
    # missed outlived the dropped sketch (KeyError in _sketch_remove)
    f = _degraded_pdpsa(tmp_path)
    code, report = run(["--input", str(f), "--seed", "9"])
    assert code == 0
    assert report["sketch_fails"] == "0"


def test_cli_unverified_certificate_exit_5(tmp_path, monkeypatch):
    # a state that lost every edge but the matching's answers Yes with a
    # certificate that misses live edges; no seed of the real sketches
    # does that on this stream, and a recovery that returns too few
    # neighbors now raises SketchFail instead
    from vcstream.pdpsa import MatchingState
    monkeypatch.setattr(MatchingState, "extract_kernel_edges",
                        lambda self: set(self.matching))
    f = _degraded_pdpsa(tmp_path)
    code, report = run(["--input", str(f), "--seed", "10"])
    assert code == 5
    assert report["answer"] == "yes"
    assert report["verified"] == "false"


def test_cli_sketch_fail_at_update_exit_5(tmp_path, monkeypatch):
    # every level read stalls; the first high-support Rematch reaches one
    from vcstream.sketch import RecoveryFail, SampleRecovery
    real = SampleRecovery.recover

    def stall(self):
        if self.support > self.capacity:
            raise RecoveryFail("peeling stalled")
        return real(self)
    monkeypatch.setattr(SampleRecovery, "recover", stall)
    f = _degraded_pdpsa(tmp_path)
    code, report = run(["--input", str(f), "--seed", "7"])
    assert code == 5
    assert report["error"] == "recovery failed for vertex 18"
    assert "answer" not in report


def test_cli_dpsa_recovery_fail_at_query_exit_5(tmp_path, monkeypatch):
    from vcstream.sketch import RecoveryFail, SampleRecovery

    def stall(self):
        raise RecoveryFail("peeling stalled with 2 residual mass")
    monkeypatch.setattr(SampleRecovery, "recover", stall)
    f = tmp_path / "s.txt"
    f.write_text("4 1 dpsa\n+ 1 2\n?\n")
    code, report = run(["--input", str(f)])
    assert code == 5
    assert report["recovery_skipped"] == "false"
    assert report["error"] == "peeling stalled with 2 residual mass"


# -- imports ----------------------------------------------------------------


def _python(args, stdin="", cwd=None, timeout=60):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(vcstream.__file__)))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=timeout,
                          cwd=cwd)


def test_insertion_only_imports_load_no_numpy(tmp_path):
    code = """
import io
import sys
import vcstream, vcstream.harness, vcstream.harness.streams
import vcstream.harness.cli
from vcstream import dpsa, fvs, pdpsa, psa
for mode in ("psa", "fvs"):
    with open("s.txt", "w") as f:
        f.write(f"3 1 {mode}\\n+ 1 2\\n+ 2 3\\n?\\n")
    assert vcstream.harness.cli.run_cli(["--input", "s.txt"],
                                        out=io.StringIO()) == 0
heavy = ("numpy", "numpy.random", "hashlib", "_hashlib")
before = [m for m in heavy if m in sys.modules]
from vcstream.core import Config
dpsa.DpsaState(Config(n=5, k=1))
after = [m for m in heavy if m in sys.modules]
print(before, after)
"""
    # a sketch needs numpy itself, but neither numpy.random nor OpenSSL's
    # hashes (_hashlib)
    done = _python(["-c", code], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "['numpy']"]


def test_lazy_exports_resolve():
    from vcstream import SampleRecovery, harness
    from vcstream.sketch import SampleRecovery as direct
    assert SampleRecovery is direct
    assert harness.run_cli is run_cli
    with pytest.raises(AttributeError):
        vcstream.no_such_name


def test_cli_module_run_has_no_runtime_warning():
    done = _python(["-W", "error::RuntimeWarning", "-m",
                    "vcstream.harness.cli", "--input", "-"],
                   stdin="1 0 dpsa\n?\n")
    assert done.returncode == 0, done.stderr
    assert "answer=yes" in done.stdout


@pytest.mark.parametrize("header, code, line", [
    # past the two-prime sketch's old ceiling of n = 77 936
    ("80000 1 dpsa", 0, "answer=yes"),
    # 2k+1 = 2001 neighbours, capped at the n-1 = 4 a vertex can have
    ("5 1000 pdpsa", 0, "answer=yes"),
    # n(n-1)/2 edge slots past P/2: refused at build time, in its own words
    ("33554433 1 dpsa", 2,
     "error=562949970198528 indices exceed the sketch's limit of "
     "562949953421298 (P/2, P = 2^50 - 27)"),
])
def test_cli_headers_build_or_are_refused(header, code, line):
    done = _python(["-m", "vcstream.harness.cli", "--input", "-"],
                   stdin=f"{header}\n+ 1 2\n?\n")
    assert done.returncode == code, done.stderr
    assert line in done.stdout.splitlines()
    assert "Traceback" not in done.stderr


def _header_run(header):
    # a one-vertex graph has no edge to insert
    body = "?\n" if header.startswith("1 ") else "+ 1 2\n?\n- 1 2\n?\n"
    return pytest.param(["--input", "-"], f"{header}\n{body}", id=header)


def _gen_run(gen, churn):
    return pytest.param(["--gen", gen, "--n", "3", "--k", "1", "--length",
                         "5", "--churn", churn], "", id=f"{gen}-{churn}")


@pytest.mark.parametrize("args, stdin", [
    *(_header_run(f"{n} {k} {mode}")
      for mode in ("psa", "pdpsa", "dpsa", "fvs")
      for n in (1, 2) for k in (0, 1)),
    # past the old two-prime ceiling of n = 77 936
    _header_run("77937 1 dpsa"),
    # 7.8e7 edge slots, whose cells would pass the word budget: refused
    # before the grid is sized
    _header_run("77936 1000 dpsa"),
    # k far past n - 1
    _header_run("5 1000 pdpsa"),
    # a level capacity for need = 2001, found by bisection
    _header_run("3000 1000 pdpsa"),
    # generators on a graph they fill at once
    *(_gen_run(gen, churn) for gen in ("random", "promised")
      for churn in ("0", "1e-9")),
])
def test_cli_small_headers_finish_in_their_own_words(args, stdin):
    # each run ends within the timeout, with an exit code of its own and
    # no traceback; a header whose sketch would ask for much memory is
    # refused with exit 2.  pdpsa at k = 0 breaks its promise with the
    # first edge: exit 4
    done = _python(["-m", "vcstream.harness.cli", *args], stdin=stdin,
                   timeout=30)
    assert done.returncode in (0, 2, 3, 5) or (
        done.returncode == 4 and stdin.startswith("2 0 pdpsa")
        and "answer=promise-violation" in done.stdout), done.stderr
    assert "Traceback" not in done.stderr
    if stdin.startswith("77936 1000 dpsa"):
        assert done.returncode == 2 and "past the budget" in done.stdout


def test_pdpsa_words_stop_growing_once_2k_plus_1_passes_n_minus_1(tmp_path):
    # a vertex of five has at most four neighbours, so every k >= 2
    # sizes its sketches for four; 38 458 words at k = 1000 before
    words = set()
    for k in (2, 3, 10, 1000):
        f = tmp_path / f"k{k}.txt"
        f.write_text(f"5 {k} pdpsa\n+ 1 2\n?\n")
        code, report = run(["--input", str(f)])
        assert code == 0 and report["answer"] == "yes"
        words.add(int(report["words_stored"]))
    assert len(words) == 1 and words.pop() <= 482


def test_cli_config_the_states_refuse_exits_2(tmp_path):
    # --k overrides a header the parser accepted; Config refuses it at
    # build time, which used to end in a traceback
    f = tmp_path / "s.txt"
    f.write_text("4 1 dpsa\n+ 1 2\n?\n")
    code, report = run(["--input", str(f), "--k", "-1"])
    assert code == 2
    assert report["error"] == "k must be >= 0" and "answer" not in report
