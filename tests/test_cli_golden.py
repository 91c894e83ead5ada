"""The CLI's report, line for line, on small fixed seeded streams.

Every ``key=value`` line except ``elapsed_s`` is compared with text
recorded from an earlier build, so a change to the driver that alters
any answer, certificate, space count, counter or error line fails here.
"""

import io
import os
import random
import subprocess
import sys

import pytest

import vcstream
from vcstream.core import Config
from vcstream.harness.cli import run_cli
from vcstream.harness.generators import (edges_to_stream,
                                         gen_disjointness_gadget,
                                         gen_promised_stream,
                                         gen_random_stream)
from vcstream.harness.streams import QUERY, StreamFile, emit_stream


def _with_queries(n, k, mode, events, every):
    out = []
    for i, ev in enumerate(events, start=1):
        out.append(ev)
        if i % every == 0:
            out.append(QUERY)
    if out[-1] != QUERY:
        out.append(QUERY)
    return emit_stream(StreamFile(n, k, mode, out))


def _psa():
    events = gen_random_stream(10, 24, 0.0, random.Random(3))
    return _with_queries(10, 3, "psa", events, 4)


def _pdpsa():
    cfg = Config(n=14, k=3, seed=9)
    events = gen_promised_stream(cfg, 80, 0.3, random.Random(9))
    return _with_queries(14, 3, "pdpsa", events, 10)


def _dpsa():
    events = gen_random_stream(8, 40, 0.3, random.Random(4))
    return _with_queries(8, 1, "dpsa", events, 5)


def _fvs():
    edges = gen_disjointness_gadget([0, 1, 1], [1, 0, 1])
    return _with_queries(24, 1, "fvs", edges_to_stream(edges), 6)


def _fvs_random():
    events = gen_random_stream(9, 20, 0.0, random.Random(6))
    return _with_queries(9, 2, "fvs", events, 4)


CASES = {
    "psa": (_psa, []),
    "psa-deletion": (lambda: "4 1 psa\n+ 1 2\n?\n- 1 2\n?\n", []),
    "pdpsa": (_pdpsa, ["--seed", "9"]),
    "pdpsa-promise-violation": (
        lambda: "8 1 pdpsa\n+ 1 2\n?\n+ 3 4\n+ 5 6\n?\n", ["--seed", "2"]),
    "dpsa": (_dpsa, ["--seed", "4"]),
    "dpsa-absent-delete": (lambda: "5 1 dpsa\n+ 1 2\n?\n- 2 3\n?\n", []),
    "fvs": (_fvs, []),
    "fvs-random": (_fvs_random, []),
    "fvs-deletion": (lambda: "4 1 fvs\n+ 1 2\n+ 2 3\n?\n- 1 2\n?\n", []),
}

GOLDEN = {
    "dpsa": (0, """
mode=dpsa
n=8
k=1
seed=4
query=1
recovery_skipped=false
answer=yes
cover=5
verified=true
query=2
recovery_skipped=false
answer=no
query=3
recovery_skipped=false
answer=no
query=4
recovery_skipped=false
answer=no
query=5
recovery_skipped=false
answer=no
query=6
recovery_skipped=true
answer=no
query=7
recovery_skipped=true
answer=no
query=8
recovery_skipped=true
answer=no
words_stored=86
"""),
    "dpsa-absent-delete": (3, """
mode=dpsa
n=5
k=1
seed=0
query=1
recovery_skipped=false
answer=yes
cover=1
verified=true
error=delete of absent edge Edge(u=2, v=3)
"""),
    "fvs": (0, """
mode=fvs
n=24
k=1
seed=0
query=1
answer=yes
cover=
verified=true
query=2
answer=yes
cover=
verified=true
query=3
answer=yes
cover=
verified=true
query=4
answer=yes
cover=22
verified=true
words_stored=47
"""),
    "fvs-deletion": (3, """
mode=fvs
n=4
k=1
seed=0
query=1
answer=yes
cover=
verified=true
error=deletion in insertion-only mode
"""),
    "fvs-random": (0, """
mode=fvs
n=9
k=2
seed=0
query=1
answer=yes
cover=
verified=true
query=2
answer=yes
cover=9
verified=true
query=3
answer=yes
cover=1,2
verified=true
query=4
answer=no
query=5
answer=no
words_stored=41
"""),
    "pdpsa": (0, """
mode=pdpsa
n=14
k=3
seed=9
query=1
answer=yes
cover=4,6,10
verified=true
query=2
answer=yes
cover=6,9,10
verified=true
query=3
answer=yes
cover=6,10
verified=true
query=4
answer=yes
cover=6,10
verified=true
query=5
answer=yes
cover=4,6,10
verified=true
query=6
answer=yes
cover=4,6,10
verified=true
query=7
answer=yes
cover=2,6,10
verified=true
query=8
answer=yes
cover=2,6,9
verified=true
words_stored=822
sketch_fails=0
rematch_misses=0
rematches=11
"""),
    "pdpsa-promise-violation": (4, """
mode=pdpsa
n=8
k=1
seed=2
query=1
answer=yes
cover=1
verified=true
query=2
answer=promise-violation
violated_at=2
"""),
    "psa": (0, """
mode=psa
n=10
k=3
seed=0
query=1
answer=yes
cover=1,4,8
verified=true
query=2
answer=no
query=3
answer=no
query=4
answer=no
query=5
answer=no
query=6
answer=no
words_stored=0
"""),
    "psa-deletion": (3, """
mode=psa
n=4
k=1
seed=0
query=1
answer=yes
cover=1
verified=true
error=deletion in insertion-only mode
"""),
}


def _without_elapsed(report):
    return "\n".join(line for line in report.splitlines()
                     if not line.startswith("elapsed_s="))


def _report(name, path):
    build, extra = CASES[name]
    path.write_text(build())
    buf = io.StringIO()
    code = run_cli(["--input", str(path)] + extra, out=buf)
    return code, _without_elapsed(buf.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path):
    code, text = _report(name, tmp_path / "s.txt")
    want_code, want_text = GOLDEN[name]
    assert code == want_code
    assert text == want_text.strip("\n")


@pytest.mark.parametrize("name", ["pdpsa", "dpsa"])
def test_cli_report_is_the_same_under_python_O(name, tmp_path):
    # -O strips assert statements, so no check behind a report may be one
    build, extra = CASES[name]
    path = tmp_path / "s.txt"
    path.write_text(build())
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(vcstream.__file__)))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "vcstream.harness.cli", "--input",
         str(path), *extra], env=env, capture_output=True, text=True,
        timeout=120)
    want_code, want_text = GOLDEN[name]
    assert done.returncode == want_code, done.stderr
    assert _without_elapsed(done.stdout) == want_text.strip("\n")
