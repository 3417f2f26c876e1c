"""Schema-aware query analysis: can a query ever match under a DTD?

Multi-query systems of the paper's era (YFilter and friends) prune
subscriptions that a document schema makes unsatisfiable before any
document arrives.  This module provides that check for rpeq against the
DTD substrate: a product construction between the query's NFA and the
DTD's parent→child relation.

The DTD is abstracted to its *label graph* (which child labels can occur
under which element type), ignoring ordering and cardinality.  That makes
the analysis an **over-approximation of satisfiability**: a query
reported unsatisfiable is genuinely dead under every document valid for
the DTD (sound pruning); a query reported satisfiable might still never
match (the content model's ordering could forbid the required siblings).

Qualifier conditions are checked recursively from the element types at
which the guard applies.  ``following``/``preceding`` steps are treated
conservatively (assumed satisfiable) — they reach outside the subtree the
label graph models.
"""

from __future__ import annotations

from ..rpeq.nfa import Nfa, compile_nfa
from ..errors import UnsupportedFeatureError
from ..rpeq.ast import Rpeq
from .model import Dtd

#: pseudo element type for the document root ``$``
_ROOT_TYPE = "$"


class SchemaAnalyzer:
    """Satisfiability of rpeq queries under a DTD's label graph."""

    def __init__(self, dtd: Dtd) -> None:
        self.dtd = dtd
        self._children: dict[str, frozenset[str]] = {}
        all_names = frozenset(dtd.elements)
        for name, decl in dtd.elements.items():
            if decl.empty:
                self._children[name] = frozenset()
            elif decl.model is None:
                # ANY: any declared element type may appear.
                self._children[name] = all_names
            else:
                self._children[name] = frozenset(decl.model.symbols()) & all_names
        self._children[_ROOT_TYPE] = frozenset((dtd.root,))
        self._condition_cache: dict[tuple[Rpeq, str], bool] = {}

    # ------------------------------------------------------------------

    def query_is_satisfiable(self, expr: Rpeq) -> bool:
        """Whether some DTD-valid document makes the query non-empty."""
        try:
            nfa = compile_nfa(expr, allow_qualifiers=True)
        except UnsupportedFeatureError:
            # following/preceding: outside the label-graph model.
            return True
        return self._satisfiable_from(nfa, _ROOT_TYPE)

    def prune(self, queries: dict[str, str | Rpeq]) -> dict[str, bool]:
        """Map each query id to its satisfiability verdict."""
        from ..rpeq.parser import parse

        return {
            query_id: self.query_is_satisfiable(
                parse(query) if isinstance(query, str) else query
            )
            for query_id, query in queries.items()
        }

    def reachable_types(self) -> set[str]:
        """Element types reachable from the root through the label graph."""
        seen: set[str] = set()
        frontier = [self.dtd.root]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._children.get(current, ()))
        return seen & set(self.dtd.elements)

    def dead_types(self) -> set[str]:
        """Declared element types no valid document can ever contain.

        Useful for DTD linting: declarations outside the root's reach are
        usually editing leftovers.
        """
        return set(self.dtd.elements) - self.reachable_types()

    def condition_satisfiable_somewhere(self, condition: Rpeq) -> bool:
        """Whether a qualifier condition can match from *any* reachable type.

        ``False`` means the condition is contradictory under the DTD: no
        element of any valid document satisfies it, so an enclosing
        ``E[F]`` is statically dead.  Used by the rpeq linter (``RPQ011``).
        """
        candidates = sorted(self.reachable_types()) + [_ROOT_TYPE]
        return any(
            self._condition_satisfiable(condition, element_type)
            for element_type in candidates
        )

    # ------------------------------------------------------------------

    def _satisfiable_from(self, nfa: Nfa, element_type: str) -> bool:
        """Reachability of the accept state in the (NFA x types) product."""
        start = self._guarded_closure(nfa, frozenset((nfa.start,)), element_type)
        frontier = [(state, element_type) for state in start]
        seen = set(frontier)
        for state, _type in frontier:
            if state == nfa.accept:
                return True
        while frontier:
            state, current_type = frontier.pop()
            for test, target in nfa.transitions.get(state, ()):
                for child in self._children.get(current_type, ()):
                    if not test.matches(child):
                        continue
                    for reached in self._guarded_closure(
                        nfa, frozenset((target,)), child
                    ):
                        if reached == nfa.accept:
                            return True
                        pair = (reached, child)
                        if pair not in seen:
                            seen.add(pair)
                            frontier.append(pair)
        return False

    def _guarded_closure(
        self, nfa: Nfa, states: frozenset[int], element_type: str
    ) -> frozenset[int]:
        """Epsilon closure, taking guarded edges only when the qualifier
        condition is itself satisfiable from ``element_type``."""
        result: set[int] = set()
        stack = list(states)
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            stack.extend(nfa.epsilon.get(state, ()))
            for condition, target in nfa.guarded_epsilon.get(state, ()):
                if target in result:
                    continue
                if self._condition_satisfiable(condition, element_type):
                    stack.append(target)
        return frozenset(result)

    def _condition_satisfiable(self, condition: Rpeq, element_type: str) -> bool:
        key = (condition, element_type)
        cached = self._condition_cache.get(key)
        if cached is not None:
            return cached
        # Break potential recursion optimistically (recursive DTDs).
        self._condition_cache[key] = True
        try:
            nfa = compile_nfa(condition, allow_qualifiers=True)
        except UnsupportedFeatureError:
            return True
        verdict = self._satisfiable_from(nfa, element_type)
        self._condition_cache[key] = verdict
        return verdict
