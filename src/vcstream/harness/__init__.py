"""Stream file I/O, CLI, generators, oracles and the invariant checker."""

from .generators import (edges_to_stream, gen_disjointness_gadget,
                         gen_index_gadget, gen_promised_stream,
                         gen_random_stream)
from .invariants import check_invariants
from .oracles import (BudgetExceeded, oracle_fvs, oracle_min_fvs,
                      oracle_min_vc, oracle_vc)
from .streams import (MODES, QUERY, ParseError, ShadowGraph, StreamFile,
                      emit_stream, parse_stream)

# The CLI loads on first use of these names (PEP 562): importing it here
# would put it in sys.modules before ``python -m vcstream.harness.cli``
# runs it as __main__.
_CLI_NAMES = ("main", "run_cli")

__all__ = [
    *_CLI_NAMES,
    "edges_to_stream", "gen_disjointness_gadget", "gen_index_gadget",
    "gen_promised_stream", "gen_random_stream",
    "check_invariants",
    "BudgetExceeded", "oracle_fvs", "oracle_min_fvs", "oracle_min_vc",
    "oracle_vc",
    "MODES", "QUERY", "ParseError", "ShadowGraph", "StreamFile",
    "emit_stream", "parse_stream",
]


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
