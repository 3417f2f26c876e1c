"""Unit and property tests for the structural rules of the rewriter."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.analysis import analyze
from repro.rpeq.parser import parse

from ..conftest import event_streams, rpeq_queries, simplify


def simp(query):
    return simplify(parse(query))


class TestRules:
    @pytest.mark.parametrize(
        "before,after",
        [
            ("(a|a)", "a"),
            ("(a|a).b", "a.b"),
            ("a??", "a?"),
            ("a+?", "a*"),
            ("a*?", "a*"),
            ("_*._*", "_*"),
            ("a*.a*", "a*"),
            ("a*.a+", "a+"),
            ("a+.a*", "a+"),
            ("(a|_)", "_"),
            ("(_|a)", "_"),
            ("(a+|_+)", "_+"),
            ("a[b?]", "a"),
            ("a[_*]", "a"),
            ("a[b][b]", "a[b]"),
            ("a[b[c?]]", "a[b]"),
        ],
    )
    def test_rewrites(self, before, after):
        assert simp(before) == parse(after)

    @pytest.mark.parametrize(
        "unchanged",
        ["a", "a.b", "a[b]", "a+.b+", "(a|b)", "a?.b", "_*.a[b].c", "a+.a+"],
    )
    def test_irreducible(self, unchanged):
        assert simp(unchanged) == parse(unchanged)

    def test_different_labels_not_fused(self):
        assert simp("a*.b*") == parse("a*.b*")

    def test_axes_untouched(self):
        assert simp("a.following::b") == parse("a.following::b")

    def test_simplification_shrinks_network(self):
        from repro import SpexEngine

        raw = SpexEngine(parse("(a|a)[b?]._*._*.c??")).network_degree()
        simplified = SpexEngine(simplify(parse("(a|a)[b?]._*._*.c??"))).network_degree()
        assert simplified < raw


class TestSemanticsPreserved:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rpeq_queries(), event_streams())
    def test_simplified_query_equivalent(self, expr, events):
        from repro.baselines import DomEvaluator
        from repro.xmlstream.tree import build_document

        document = build_document(events)
        original = sorted(
            n.position for n in DomEvaluator(expr).evaluate_document(document)
        )
        rewritten = sorted(
            n.position
            for n in DomEvaluator(simplify(expr)).evaluate_document(document)
        )
        assert rewritten == original

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rpeq_queries(), event_streams())
    def test_streaming_engine_agrees_on_simplified_form(self, expr, events):
        from repro import SpexEngine

        original = SpexEngine(expr, collect_events=False).positions(iter(events))
        rewritten = SpexEngine(simplify(expr), collect_events=False).positions(
            iter(events)
        )
        assert rewritten == original

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rpeq_queries())
    def test_never_grows(self, expr):
        assert analyze(simplify(expr)).length <= analyze(expr).length

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rpeq_queries())
    def test_idempotent(self, expr):
        once = simplify(expr)
        assert simplify(once) == once
