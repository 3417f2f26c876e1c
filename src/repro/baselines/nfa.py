"""Re-export: the NFA compiler lives in :mod:`repro.rpeq.nfa`.

The automaton baselines (:mod:`.tree_automaton`, :mod:`.xscan`) were its
first users, but the production fast lanes and the DTD analysis compile
the same automata, and production code must not depend on baselines.
"""

from ..rpeq.nfa import Nfa, compile_nfa

__all__ = ["Nfa", "compile_nfa"]
