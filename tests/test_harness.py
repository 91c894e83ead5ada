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
    stream = gen_promised_stream(cfg, 25, 0.0, rng)
    assert all(upd.op == INSERT for upd in stream)


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
    code, report = run(["--input", str(gen), "--validate", "--seed", "9"])
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


# -- imports ----------------------------------------------------------------


def _python(args, stdin=""):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(vcstream.__file__)))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60)


def test_insertion_only_imports_load_no_numpy():
    code = """
import sys
import vcstream, vcstream.harness, vcstream.harness.streams
from vcstream import dpsa, fvs, pdpsa, psa
before = [m for m in ("numpy", "hashlib") if m in sys.modules]
from vcstream.core import Config
dpsa.DpsaState(Config(n=5, k=1))
after = [m for m in ("numpy", "hashlib") if m in sys.modules]
print(before, after)
"""
    done = _python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "['numpy',", "'hashlib']"]


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
