"""Unit tests for the NFA construction shared by automaton baselines."""

import pytest

from repro.errors import UnsupportedFeatureError
from repro.rpeq.nfa import compile_nfa
from repro.rpeq.parser import parse


class TestConstruction:
    def test_label(self):
        nfa = compile_nfa(parse("a"))
        assert nfa.size == 2
        (edges,) = nfa.transitions.values()
        assert edges[0][0].name == "a"

    def test_plus_has_self_loop(self):
        nfa = compile_nfa(parse("a+"))
        loops = [
            (src, tgt)
            for src, edges in nfa.transitions.items()
            for _, tgt in edges
            if src == tgt
        ]
        assert loops

    def test_star_isolated_from_context(self):
        """The ?/* bypass must not expose the + self-loop (Thompson trap).

        Regression test: '(b._.a*)?' must not accept the single-step
        path 'a'.
        """
        from repro.baselines.xscan import XScanEvaluator
        from repro.xmlstream.parser import parse_string

        matcher = XScanEvaluator(parse("(b._.a*)?"))
        assert matcher.evaluate(parse_string("<a/>")) == [0]  # root only

    def test_qualifier_guard_on_edge(self):
        nfa = compile_nfa(parse("a[b]"))
        assert len(nfa.guarded_epsilon) == 1

    def test_qualifiers_rejected_when_disallowed(self):
        with pytest.raises(UnsupportedFeatureError):
            compile_nfa(parse("a[b]"), allow_qualifiers=False)

    def test_size_grows_linearly(self):
        sizes = [compile_nfa(parse(".".join(["a"] * n))).size for n in (2, 4, 8)]
        assert sizes[2] - sizes[1] == 2 * (sizes[1] - sizes[0])
