"""Baseline rpeq evaluators the paper compares against (or relates to).

* :class:`DomEvaluator` — materialize the tree, evaluate declaratively
  (the Saxon analog; also the semantics oracle for differential tests).
* :class:`TreeAutomatonEvaluator` — NFA state-set evaluation over the
  materialized tree (the Fxgrep analog).
* :class:`XScanEvaluator` — lazy-DFA streaming evaluation of the
  qualifier-free fragment (the X-Scan / Green et al. analog).
* :class:`NaiveStreamEvaluator` — buffer the stream, then DOM-evaluate
  (what a system without a streaming evaluator must do).

:mod:`repro.baselines.shared_network` holds the multi-query comparison
point, ``SharedNetworkEngine`` (one prefix-shared transducer network,
the paper's Sec. IX sketch); it builds on :mod:`repro.core`, so import
it from its module.
"""

from .dom_eval import DomEvaluator
from .naive_stream import NaiveStreamEvaluator
from .tree_automaton import TreeAutomatonEvaluator
from .xscan import XScanEvaluator

__all__ = [
    "DomEvaluator",
    "NaiveStreamEvaluator",
    "TreeAutomatonEvaluator",
    "XScanEvaluator",
]
