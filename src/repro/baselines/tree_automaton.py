"""Tree-automaton evaluation over the materialized tree — the Fxgrep analog.

Fxgrep evaluates regular tree expressions against a parsed document.  Our
analog compiles the rpeq to an NFA with qualifier *guards* (see
:mod:`repro.rpeq.nfa`) and runs NFA state sets down the materialized
tree: the state set of a node is derived from its parent's by one labelled
move, guard-filtered at the node, then epsilon-closed.  A node is a match
when its state set contains the accepting state.

Algorithmically this is a genuinely different evaluation strategy from
both the SPEX network and the declarative DOM oracle, which is exactly
what makes it valuable for differential testing — three independent
implementations must agree on every random query/document pair.
"""

from __future__ import annotations

from typing import Iterable

from ..rpeq.ast import Rpeq
from ..xmlstream.events import Event
from ..xmlstream.tree import Document, Node, build_document
from .dom_eval import _exists, _Memo
from ..rpeq.nfa import Nfa, compile_nfa


class TreeAutomatonEvaluator:
    """In-memory state-set evaluator for the full rpeq language."""

    name = "treegrep"

    def __init__(self, query: Rpeq) -> None:
        self._nfa: Nfa = compile_nfa(query, allow_qualifiers=True)

    def evaluate_document(self, document: Document) -> list[Node]:
        """Nodes selected by the query, in document order."""
        memo = _Memo()
        matches: list[Node] = []
        root_states = self._closure(
            frozenset((self._nfa.start,)), document.root, memo
        )
        if self._nfa.accept in root_states:
            matches.append(document.root)
        stack: list[tuple[Node, frozenset[int]]] = [
            (child, root_states) for child in reversed(document.root.children)
        ]
        while stack:
            node, parent_states = stack.pop()
            states = self._advance(parent_states, node, memo)
            if self._nfa.accept in states:
                matches.append(node)
            if states:
                stack.extend((child, states) for child in reversed(node.children))
            # With an empty state set no descendant can ever match: prune.
        return sorted(matches, key=lambda node: node.position)

    def evaluate(self, events: Iterable[Event]) -> list[Node]:
        """Materialize the stream, then evaluate (baseline cost model)."""
        return self.evaluate_document(build_document(events))

    # ------------------------------------------------------------------

    def _advance(
        self, states: frozenset[int], node: Node, memo: _Memo
    ) -> frozenset[int]:
        moved = frozenset(
            target
            for state in states
            for test, target in self._nfa.transitions.get(state, ())
            if test.matches(node.label)
        )
        return self._closure(moved, node, memo)

    def _closure(
        self, states: frozenset[int], node: Node, memo: _Memo
    ) -> frozenset[int]:
        """Epsilon closure at a tree node, taking guarded epsilon edges
        only when their qualifier condition holds at ``node``."""
        result: set[int] = set()
        stack = list(states)
        while stack:
            state = stack.pop()
            if state in result:
                continue
            result.add(state)
            stack.extend(self._nfa.epsilon.get(state, ()))
            for condition, target in self._nfa.guarded_epsilon.get(state, ()):
                if target not in result and _exists(condition, node, memo):
                    stack.append(target)
        return frozenset(result)
