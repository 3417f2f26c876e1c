"""NFA compilation of rpeq, shared by every automaton-based evaluator.

A regular path expression denotes a regular language over label tests; a
standard Thompson construction yields an NFA whose transitions are
labelled with tests (a concrete name, or the wildcard).  Qualifiers are
handled as *guards*: the sub-automaton of ``E[F]`` marks its final state
with the condition ``F``, and a run may occupy a guarded state at tree
node ``v`` only if ``F`` selects at least one node from ``v``.

The automaton machinery implements the evaluation strategy of the DFA-
based related work (X-Scan, Green et al.): state *sets* pushed on a stack
along the tree/stream, with transition results memoized so the subset
construction happens lazily, only for label/state-set combinations that
actually occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UnsupportedFeatureError
from .ast import (
    Concat,
    Empty,
    Following,
    Label,
    OptionalExpr,
    Plus,
    Preceding,
    Qualifier,
    Rpeq,
    Star,
    Union,
)


@dataclass
class Nfa:
    """An NFA over label tests with optional per-state qualifier guards.

    Attributes:
        start: initial state.
        accept: unique accepting state.
        transitions: labelled edges ``state -> [(test, target), ...]``.
        epsilon: unlabelled edges ``state -> [target, ...]``.
        guarded_epsilon: conditional unlabelled edges
            ``state -> [(condition, target), ...]`` — traversable at a
            tree node only when the qualifier condition holds there.
            Guards live on edges, not states, so that a qualifier filters
            only the node it qualifies, never intermediate nodes of a
            closure chain passing through the same NFA state.
    """

    start: int
    accept: int
    transitions: dict[int, list[tuple[Label, int]]] = field(default_factory=dict)
    epsilon: dict[int, list[int]] = field(default_factory=dict)
    guarded_epsilon: dict[int, list[tuple[Rpeq, int]]] = field(default_factory=dict)

    @property
    def size(self) -> int:
        states = {self.start, self.accept}
        states.update(self.transitions)
        states.update(t for edges in self.transitions.values() for _, t in edges)
        states.update(self.epsilon)
        states.update(t for targets in self.epsilon.values() for t in targets)
        states.update(self.guarded_epsilon)
        states.update(t for edges in self.guarded_epsilon.values() for _, t in edges)
        return len(states)


class _Builder:
    """Thompson construction.

    Fragments returned by :meth:`build` may carry internal edges out of
    their accept state (the ``+`` self-loop), so combinators that add
    bypass edges (``*``, ``?``) wrap the fragment in fresh start/accept
    states first — otherwise a bypass would expose the internal loop to
    contexts that never entered the fragment.
    """

    def __init__(self, allow_qualifiers: bool) -> None:
        self.allow_qualifiers = allow_qualifiers
        self.transitions: dict[int, list[tuple[Label, int]]] = {}
        self.epsilon: dict[int, list[int]] = {}
        self.guarded_epsilon: dict[int, list[tuple[Rpeq, int]]] = {}
        self._next_state = 0

    def fresh(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def edge(self, source: int, test: Label, target: int) -> None:
        self.transitions.setdefault(source, []).append((test, target))

    def eps(self, source: int, target: int) -> None:
        self.epsilon.setdefault(source, []).append(target)

    def guarded_eps(self, source: int, condition: Rpeq, target: int) -> None:
        self.guarded_epsilon.setdefault(source, []).append((condition, target))

    def _wrapped(self, inner: tuple[int, int]) -> tuple[int, int]:
        """Isolate a fragment behind fresh start/accept states."""
        inner_start, inner_accept = inner
        start, accept = self.fresh(), self.fresh()
        self.eps(start, inner_start)
        self.eps(inner_accept, accept)
        return start, accept

    def build(self, expr: Rpeq) -> tuple[int, int]:
        """Return (start, accept) of the fragment for ``expr``."""
        if isinstance(expr, (Following, Preceding)):
            raise UnsupportedFeatureError(
                "following/preceding steps are not path-regular; the "
                "automaton-based evaluators support the core rpeq "
                "language only"
            )
        if isinstance(expr, Empty):
            start, accept = self.fresh(), self.fresh()
            self.eps(start, accept)
            return start, accept
        if isinstance(expr, Label):
            start, accept = self.fresh(), self.fresh()
            self.edge(start, expr, accept)
            return start, accept
        if isinstance(expr, Plus):
            start, accept = self.fresh(), self.fresh()
            self.edge(start, expr.label, accept)
            self.edge(accept, expr.label, accept)
            return start, accept
        if isinstance(expr, Star):
            start, accept = self._wrapped(self.build(Plus(expr.label)))
            self.eps(start, accept)
            return start, accept
        if isinstance(expr, OptionalExpr):
            start, accept = self._wrapped(self.build(expr.inner))
            self.eps(start, accept)
            return start, accept
        if isinstance(expr, Concat):
            left_start, left_accept = self.build(expr.left)
            right_start, right_accept = self.build(expr.right)
            self.eps(left_accept, right_start)
            return left_start, right_accept
        if isinstance(expr, Union):
            start, accept = self.fresh(), self.fresh()
            left_start, left_accept = self.build(expr.left)
            right_start, right_accept = self.build(expr.right)
            self.eps(start, left_start)
            self.eps(start, right_start)
            self.eps(left_accept, accept)
            self.eps(right_accept, accept)
            return start, accept
        if isinstance(expr, Qualifier):
            if not self.allow_qualifiers:
                raise UnsupportedFeatureError(
                    "this evaluator handles the qualifier-free fragment "
                    "only (like the DFA-based related work); qualifier "
                    f"found: {expr.condition!r}"
                )
            start, accept = self.build(expr.base)
            # The guard lives on an epsilon edge out of the base's accept:
            # a run continues past the qualifier only from nodes where the
            # condition holds, while the base's own states stay unguarded
            # (closure chains may pass through nodes failing the guard).
            qualified = self.fresh()
            self.guarded_eps(accept, expr.condition, qualified)
            return start, qualified
        raise TypeError(f"not an rpeq node: {expr!r}")


def compile_nfa(expr: Rpeq, allow_qualifiers: bool = True) -> Nfa:
    """Compile an rpeq AST to an :class:`Nfa`.

    Args:
        expr: the query.
        allow_qualifiers: when ``False`` (the X-Scan model), qualifiers
            raise :class:`~repro.errors.UnsupportedFeatureError`.
    """
    builder = _Builder(allow_qualifiers)
    start, accept = builder.build(expr)
    return Nfa(
        start=start,
        accept=accept,
        transitions=builder.transitions,
        epsilon=builder.epsilon,
        guarded_epsilon=builder.guarded_epsilon,
    )


@dataclass
class HeadedNfa:
    """``head·tail`` as one automaton whose seam stays visible.

    The fast lane's headed runner needs two facts per state set that the
    plain concatenation loses: whether the *head* accepts here
    (``head_accept`` is live) and whether the run has moved *into* the
    tail (a state of ``tail_inner`` is live).  Both are recorded as
    explicit states of the construction, never read off state numbers.

    Attributes:
        nfa: the automaton of ``head·tail`` (qualifier-free).
        head_accept: the head fragment's accepting state; the tail is
            entered from it by one epsilon edge.
        tail_inner: the tail's accepting state plus every tail state
            entered by consuming a label — i.e. the tail minus the
            states merely epsilon-reachable from its start.
    """

    nfa: Nfa
    head_accept: int
    tail_inner: frozenset[int]


def compile_headed_nfa(head: Rpeq, tail: Rpeq) -> HeadedNfa:
    """Compile qualifier-free ``head·tail``, keeping the seam (see above)."""
    builder = _Builder(allow_qualifiers=False)
    start, head_accept = builder.build(head)
    tail_start, accept = builder.build(tail)
    builder.eps(head_accept, tail_start)
    # The tail fragment has no edge back into the head, so everything
    # reachable from its start is a tail state.
    inner = {accept}
    seen = {tail_start}
    frontier = [tail_start]
    while frontier:
        state = frontier.pop()
        consumed = [target for _, target in builder.transitions.get(state, ())]
        inner.update(consumed)
        for target in consumed + builder.epsilon.get(state, []):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    nfa = Nfa(
        start=start,
        accept=accept,
        transitions=builder.transitions,
        epsilon=builder.epsilon,
    )
    return HeadedNfa(nfa, head_accept, frozenset(inner))
