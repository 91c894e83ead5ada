"""``parse_stream`` against a reference parser, on streams with faults.

The reference is the per-line parser that replayed each update through
a ``ShadowGraph``.  ``parse_stream`` must accept the same streams with
the same events, and reject the others with the same exception type,
line number and message, with validation on and off.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from vcstream.core import DELETE, INSERT, Edge, InvalidStream, StreamUpdate
from vcstream.harness.streams import (MODES, QUERY, ParseError, ShadowGraph,
                                      StreamFile, apply_live, emit_stream,
                                      parse_stream)


def reference_parse(text: str, validate: bool = False) -> StreamFile:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(1, "missing header")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(1, f"bad header {lines[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(1, f"bad header {lines[0]!r}") from None
    mode = head[2]
    if mode not in MODES:
        raise ParseError(1, f"unknown mode {mode!r}")
    if n < 1 or k < 0:
        raise ParseError(1, "need n >= 1 and k >= 0")

    shadow = ShadowGraph() if validate else None
    events: list = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if parts == [QUERY]:
            events.append(QUERY)
            continue
        if len(parts) != 3 or parts[0] not in (INSERT, DELETE):
            raise ParseError(lineno, f"bad update {line!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, f"bad update {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ParseError(lineno, f"bad endpoints {line!r}")
        upd = StreamUpdate(parts[0], Edge(u, v))
        if shadow is not None:
            try:
                shadow.apply(upd)
            except InvalidStream as exc:
                raise InvalidStream(f"line {lineno}: {exc}") from None
        events.append(upd)
    return StreamFile(n, k, mode, events)


def outcome(parse, text, validate):
    try:
        sf = parse(text, validate)
    except ValueError as exc:
        return type(exc), getattr(exc, "lineno", None), str(exc)
    return sf


# updates over [1, n], so that at small n repeated inserts and absent
# deletes arise by themselves, with faults of form injected at random
UPDATES = [INSERT] * 3 + [DELETE] + [QUERY]
FAULTS = ["spaced-query", "bad-op", "out-of-range", "self-loop",
          "stray-token", "missing-token", "not-an-int", "blank",
          "double-query"]


@st.composite
def stream_texts(draw):
    n = draw(st.integers(2, 7))
    head = draw(st.sampled_from(
        [f"{n} {draw(st.integers(0, 3))} {draw(st.sampled_from(MODES))}"]
        * 30 + [f"{n} 1", "0 1 psa", f"{n} -1 dpsa", f"{n} 1 vc",
                f"{n} x psa", f" {n}\t2  fvs "]))
    kinds = [draw(st.sampled_from(UPDATES))
             for _ in range(draw(st.integers(0, 40)))]
    for _ in range(draw(st.integers(0, 2))):
        kinds.insert(draw(st.integers(0, len(kinds))),
                     draw(st.sampled_from(FAULTS)))
    lines = [head]
    for kind in kinds:
        u = draw(st.integers(1, n))
        v = draw(st.integers(1, n - 1))
        v += v >= u  # any v but u
        tokens = [DELETE if kind == DELETE else INSERT, str(u), str(v)]
        if kind == QUERY:
            tokens = [QUERY]
        elif kind == "spaced-query":
            tokens = ["", QUERY, ""]
        elif kind == "double-query":
            tokens = [QUERY, QUERY]
        elif kind == "bad-op":
            tokens[0] = draw(st.sampled_from(["*", "x", "+-", "?", "++"]))
        elif kind == "out-of-range":
            tokens[draw(st.integers(1, 2))] = str(
                draw(st.sampled_from([0, -1, n + 1, 10 ** 20])))
        elif kind == "self-loop":
            tokens[2] = tokens[1]
        elif kind == "stray-token":
            tokens.append(draw(st.sampled_from(["1", "x", QUERY])))
        elif kind == "missing-token":
            del tokens[draw(st.integers(0, 2))]
        elif kind == "not-an-int":
            tokens[draw(st.integers(1, 2))] = draw(
                st.sampled_from(["a", "1.5", "0x2"]))
        elif kind == "blank":
            tokens = []
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        pad = draw(st.sampled_from(["", " ", "\t", "\r"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(tokens)
                     + pad)
    return "\n".join(lines) + draw(st.sampled_from(["\n"] * 4
                                                    + ["", "\n\n"]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stream_texts(), st.booleans())
@example("3 1 psa\n+ 1 2\n  ?  \n+ 2 1\n", True)
@example("3 1 pdpsa\n+ 1 2\n- 2 1\n- 1 2\n", True)
@example("3 1 dpsa\n+ 3 1\n\n?\n", False)
@example("3 1 fvs\n+ 1 2\n+- 1 3\n", True)
def test_parse_matches_the_shadow_graph_replay(text, validate):
    got = outcome(parse_stream, text, validate)
    want = outcome(reference_parse, text, validate)
    assert got == want
    if isinstance(got, tuple):
        return
    for ev in got.events:
        assert ev == QUERY or (type(ev) is StreamUpdate
                               and type(ev.edge) is Edge)
    assert parse_stream(emit_stream(got)) == got


def test_validating_mode_catches_insert_of_live_edge():
    text = "4 1 psa\n+ 1 2\n?\n+ 3 4\n+ 2 1\n?\n"
    with pytest.raises(InvalidStream) as err:
        parse_stream(text, validate=True)
    assert str(err.value) == "line 5: insert of live edge Edge(u=1, v=2)"
    assert len(parse_stream(text).events) == 5  # non-validating accepts it
    # an edge deleted in between may come back
    parse_stream("4 1 dpsa\n+ 1 2\n- 1 2\n+ 2 1\n", validate=True)


def test_apply_live_leaves_the_set_as_it_was_on_a_rejection():
    live = {Edge(1, 2)}
    with pytest.raises(InvalidStream, match="insert of live edge"):
        apply_live(live, StreamUpdate(INSERT, Edge(2, 1)))
    with pytest.raises(InvalidStream, match="delete of absent edge"):
        apply_live(live, StreamUpdate(DELETE, Edge(1, 3)))
    assert live == {Edge(1, 2)}
    apply_live(live, StreamUpdate(DELETE, Edge(1, 2)))
    assert live == set()
