"""The seam-preserving ``head.tail`` automaton, and where the compiler lives.

The construction itself is covered by ``tests/baselines/test_nfa.py``
(through the re-export its first users keep importing); this file
covers what the fast lane's headed runner adds on top.
"""

import ast
import importlib
import inspect

import pytest

from repro.rpeq.nfa import Nfa, compile_headed_nfa, compile_nfa
from repro.rpeq.parser import parse


def closure(nfa: Nfa, states: set[int]) -> set[int]:
    seen = set(states)
    frontier = list(states)
    while frontier:
        for target in nfa.epsilon.get(frontier.pop(), ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def run(nfa: Nfa, path: list[str]) -> set[int]:
    states = closure(nfa, {nfa.start})
    for label in path:
        moved = {
            target
            for state in states
            for test, target in nfa.transitions.get(state, ())
            if test.matches(label)
        }
        states = closure(nfa, moved)
    return states


class TestHeadedNfa:
    def test_accepts_the_concatenation(self):
        headed = compile_headed_nfa(parse("_*.a"), parse("b?.c"))
        plain = compile_nfa(parse("_*.a.b?.c"), allow_qualifiers=False)
        for path in (["a", "c"], ["x", "a", "b", "c"], ["a"], ["a", "b"], ["c"]):
            assert (headed.nfa.accept in run(headed.nfa, path)) == (
                plain.accept in run(plain, path)
            ), path

    def test_head_accept_is_live_exactly_where_the_head_accepts(self):
        headed = compile_headed_nfa(parse("_*.a"), parse("b.c"))
        head = compile_nfa(parse("_*.a"), allow_qualifiers=False)
        for path in ([], ["a"], ["x", "a"], ["a", "b"], ["a", "a"], ["a", "b", "c"]):
            assert (headed.head_accept in run(headed.nfa, path)) == (
                head.accept in run(head, path)
            ), path

    def test_tail_inner_is_entered_only_by_consuming_inside_the_tail(self):
        headed = compile_headed_nfa(parse("_*.a"), parse("b?.c"))
        live = lambda path: bool(run(headed.nfa, path) & headed.tail_inner)  # noqa: E731
        # on the element the head accepts, only the tail's entry states
        # are live — epsilon-reachable, nothing consumed yet
        assert not live(["a"]) and not live(["x", "a"])
        assert live(["a", "b"]) and live(["a", "c"]) and live(["a", "b", "c"])
        assert not live(["a", "x"]) and not live(["a", "c", "c"])

    def test_epsilon_accepting_tail_is_inner_at_the_seam(self):
        """A tail that accepts ε accepts on the head's element itself."""
        headed = compile_headed_nfa(parse("a"), parse("c?"))
        assert headed.nfa.accept in headed.tail_inner
        assert run(headed.nfa, ["a"]) & headed.tail_inner

    def test_looping_tail_entry_state_counts_as_inner_once_consumed(self):
        headed = compile_headed_nfa(parse("a"), parse("b+.c"))
        assert not run(headed.nfa, ["a"]) & headed.tail_inner
        assert run(headed.nfa, ["a", "b", "b"]) & headed.tail_inner

    def test_qualifiers_are_rejected(self):
        from repro.errors import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            compile_headed_nfa(parse("a"), parse("b[c]"))


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.fastlane",
        "repro.dtd.analysis",
        "repro.core.multiquery",
        "repro.core.shards",
    ],
)
def test_production_code_does_not_import_baselines(module):
    tree = ast.parse(inspect.getsource(importlib.import_module(module)))
    imported = [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    ]
    assert not [name for name in imported if "baselines" in name]


def test_baselines_use_the_same_compiler():
    from repro.baselines import tree_automaton, xscan

    for baseline in (tree_automaton, xscan):
        assert baseline.compile_nfa is compile_nfa and baseline.Nfa is Nfa
