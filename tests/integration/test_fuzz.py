"""Heavier randomized sweeps — the suite's last line of defense.

These go beyond the per-feature hypothesis tests: bigger documents,
combined features (axes + qualifiers + simplifier + shared networks in
one sweep), and degenerate extremes (very deep, very wide).  Runtime is
kept to a few seconds per test by fixed trial budgets.
"""

import random

import pytest

from repro import SpexEngine
from repro.baselines import DomEvaluator, TreeAutomatonEvaluator, XScanEvaluator
from repro.rpeq import GeneratorConfig, analyze, random_rpeq
from repro.xmlstream.tree import build_document

from ..conftest import make_random_events, simplify


def oracle(expr, events):
    return sorted(
        n.position
        for n in DomEvaluator(expr).evaluate_document(build_document(events))
    )


class TestCombinedSweep:
    """One sweep, all engines and transforms on the same inputs."""

    def test_everything_agrees(self, rng):
        config = GeneratorConfig(max_depth=4)
        for trial in range(120):
            expr = random_rpeq(rng, config)
            events = make_random_events(rng, max_children=3, max_depth=5)
            expected = oracle(expr, events)
            engines = {
                "spex": SpexEngine(expr, collect_events=False),
                "spex-literal": SpexEngine(expr, collect_events=False, optimize=False),
                "spex-simplified": SpexEngine(simplify(expr), collect_events=False),
            }
            for name, engine in engines.items():
                got = sorted(engine.positions(iter(events)))
                assert got == expected, (trial, name, expr)
            automaton = sorted(
                n.position
                for n in TreeAutomatonEvaluator(expr).evaluate_document(
                    build_document(events)
                )
            )
            assert automaton == expected, (trial, "treegrep", expr)
            if analyze(expr).qualifiers == 0:
                xscan = sorted(XScanEvaluator(expr).evaluate(iter(events)))
                assert xscan == expected, (trial, "xscan", expr)

    def test_shared_vs_independent_networks(self, rng):
        from repro.baselines.shared_network import SharedNetworkEngine
        from repro.core.multiquery import MultiQueryEngine

        config = GeneratorConfig(max_depth=3)
        for _ in range(25):
            queries = {f"q{i}": random_rpeq(rng, config) for i in range(5)}
            events = make_random_events(rng, max_depth=4)
            shared = SharedNetworkEngine(queries).evaluate(iter(events))
            plain = MultiQueryEngine(queries).evaluate(iter(events))
            assert {k: [m.position for m in v] for k, v in shared.items()} == {
                k: [m.position for m in v] for k, v in plain.items()
            }


class TestExtremes:
    def test_very_deep_document(self):
        depth = 3000
        doc = "<a>" * depth + "<z/>" + "</a>" * depth
        engine = SpexEngine("_*.z", collect_events=False)
        assert engine.count(doc) == 1
        assert engine.stats.network.max_stack == depth + 2

    def test_very_deep_with_qualifier(self):
        depth = 1500
        doc = "<a>" * depth + "<z/>" + "</a>" * depth
        engine = SpexEngine("_*.a[z]", collect_events=False)
        assert engine.count(doc) == 1
        assert len(engine._last_store._states) == 0

    def test_very_wide_with_qualifier(self):
        doc = "<r>" + "<a><b/></a>" * 3000 + "</r>"
        engine = SpexEngine("r.a[b]", collect_events=False)
        assert engine.count(doc) == 3000
        # Each instance resolves and releases immediately: flat memory.
        assert engine.stats.peak_live_variables <= 2

    def test_pathological_same_label_nesting(self):
        """Closure scopes nested 60 deep with a qualifier on each."""
        depth = 60
        doc = "<a>" * depth + "<b/>" + "</a>" * depth
        engine = SpexEngine("_*.a[b]", collect_events=False)
        # Every a has the b as descendant?  No — [b] tests children:
        # only the innermost a has the b child.
        assert engine.count(doc) == 1
        engine2 = SpexEngine("_*.a[_*.b]", collect_events=False)
        assert engine2.count(doc) == depth

    def test_many_documents_sequentially(self, rng):
        engine = SpexEngine("_*.a[b]", collect_events=False)
        for _ in range(50):
            events = make_random_events(rng, max_children=3, max_depth=4)
            expr_expected = oracle(engine.query, events)
            assert sorted(engine.positions(iter(events))) == expr_expected


class TestAxisFuzz:
    AXIS_QUERIES = [
        "_*.a.following::b",
        "_*.a.preceding::b",
        "_*.a[following::b].c",
        "_*.a[preceding::b].c",
        "_*._[following::a].b",
        "_*.a[b.following::c]",
        "_*.following::a.preceding::b",
    ]

    def test_axes_against_oracle(self, rng):
        from repro.rpeq.parser import parse

        for trial in range(150):
            expr = parse(rng.choice(self.AXIS_QUERIES))
            events = make_random_events(rng, max_children=3, max_depth=4)
            expected = oracle(expr, events)
            got = sorted(
                SpexEngine(expr, collect_events=False).positions(iter(events))
            )
            assert got == expected, (trial, expr)


class TestLongQueries:
    """Lemma V.1 at scale: thousand-step queries compile and evaluate."""

    def test_long_chain_compiles_linearly(self):
        from repro.rpeq.parser import parse

        query = parse(".".join(["a"] * 2000))
        engine = SpexEngine(query, collect_events=False)
        assert engine.network_degree() == 2002

    def test_long_chain_evaluates(self):
        from repro.rpeq.parser import parse
        from repro.xmlstream.parser import parse_string

        depth = 2000
        query = parse(".".join(["a"] * depth))
        doc = "<a>" * depth + "</a>" * depth
        engine = SpexEngine(query, collect_events=False)
        assert engine.positions(parse_string(doc)) == [depth]
        oracle_nodes = DomEvaluator(query).evaluate(parse_string(doc))
        assert [n.position for n in oracle_nodes] == [depth]

    def test_long_chain_unparse_round_trip(self):
        from repro.rpeq.parser import parse
        from repro.rpeq.unparse import unparse

        text = ".".join(["a"] * 2000)
        assert unparse(parse(text)) == text

    def test_long_union_chain(self):
        from repro.rpeq.parser import parse

        query = parse("|".join([f"l{i}" for i in range(500)]))
        engine = SpexEngine(query, collect_events=False)
        assert engine.positions("<l7/>") == [1]
