"""Lazy-DFA streaming evaluation — the X-Scan / Green et al. analog.

Compiles a *qualifier-free* rpeq to an NFA and runs it over the stream
with a stack of state sets, determinizing lazily: the subset transition
for a (state-set, label) pair is computed on first use and memoized.
This is the approach of the related work the paper cites ([2], [18]) and
serves as the streaming baseline in the ablation experiments — it shows
what SPEX adds (qualifiers, formulas, progressive candidate handling) and
what it costs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..rpeq.ast import Rpeq
from ..xmlstream.events import (
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
)
from ..rpeq.nfa import Nfa, compile_nfa


class XScanEvaluator:
    """Streaming matcher for the qualifier-free rpeq fragment.

    Raises:
        UnsupportedFeatureError: at construction, if the query contains
            qualifiers.
    """

    name = "xscan"

    def __init__(self, query: Rpeq) -> None:
        self._nfa: Nfa = compile_nfa(query, allow_qualifiers=False)
        self._dfa_cache: dict[tuple[frozenset[int], str], frozenset[int]] = {}
        self._closure_cache: dict[frozenset[int], frozenset[int]] = {}

    @property
    def dfa_states_built(self) -> int:
        """Number of lazily materialized subset transitions (for E10)."""
        return len(self._dfa_cache)

    def _closure(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        result = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for target in self._nfa.epsilon.get(state, ()):
                if target not in result:
                    result.add(target)
                    stack.append(target)
        frozen = frozenset(result)
        self._closure_cache[states] = frozen
        return frozen

    def _step(self, states: frozenset[int], label: str) -> frozenset[int]:
        key = (states, label)
        cached = self._dfa_cache.get(key)
        if cached is not None:
            return cached
        moved = frozenset(
            target
            for state in states
            for test, target in self._nfa.transitions.get(state, ())
            if test.matches(label)
        )
        result = self._closure(moved)
        self._dfa_cache[key] = result
        return result

    def matches(self, events: Iterable[Event]) -> Iterator[int]:
        """Yield document-order positions of matched elements.

        Position 0 denotes the virtual root (selected by queries with an
        epsilon component), aligning with the other evaluators.
        """
        stack: list[frozenset[int]] = []
        position = 0
        for event in events:
            if isinstance(event, StartDocument):
                initial = self._closure(frozenset((self._nfa.start,)))
                if self._nfa.accept in initial:
                    yield 0
                stack.append(initial)
            elif isinstance(event, StartElement):
                position += 1
                current = self._step(stack[-1], event.label)
                if self._nfa.accept in current:
                    yield position
                stack.append(current)
            elif isinstance(event, (EndElement, EndDocument)):
                stack.pop()

    def evaluate(self, events: Iterable[Event]) -> list[int]:
        """All matched positions, eagerly."""
        return list(self.matches(events))
