"""Streaming decision algorithms for parameterized vertex cover and FVS."""

from .core import (Config, Edge, InvalidStream, SelfLoop, ShadowGraph,
                   SolverError, StreamUpdate, VcAnswer, covers)
from .dpsa import DpsaState, dpsa_query, dpsa_update
from .fvs import FvsState, fvs_decide, fvs_insert, fvs_query
from .kernel import KernelInstance, kernelize, solve_kernel, vc_decide
from .pdpsa import MatchingState, SketchFail, pdpsa_query
from .psa import PsaState, psa_insert, psa_query

# The sketch module needs numpy; it loads on first use of these names
# (PEP 562), so the insertion-only modes never import numpy.
_SKETCH_NAMES = ("L0Sampler", "OneSparseDetector", "RecoveryFail",
                 "SampleRecovery")

__all__ = [
    "Config", "Edge", "InvalidStream", "SelfLoop", "ShadowGraph",
    "SolverError", "StreamUpdate", "VcAnswer", "covers",
    "DpsaState", "dpsa_query", "dpsa_update",
    "FvsState", "fvs_decide", "fvs_insert", "fvs_query",
    "KernelInstance", "kernelize", "solve_kernel", "vc_decide",
    "MatchingState", "SketchFail", "pdpsa_query",
    "PsaState", "psa_insert", "psa_query",
    *_SKETCH_NAMES,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SKETCH_NAMES:
        from . import sketch
        return getattr(sketch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
