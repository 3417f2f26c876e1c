"""Unit tests for the SpexEngine facade."""

import pytest

from repro import SpexEngine, evaluate
from repro.errors import QuerySyntaxError
from repro.rpeq.parser import parse

from ..conftest import PAPER_DOC


class TestEvaluation:
    def test_accepts_query_string(self):
        assert SpexEngine("a.c").positions(PAPER_DOC) == [5]

    def test_accepts_ast(self):
        assert SpexEngine(parse("a.c")).positions(PAPER_DOC) == [5]

    def test_bad_query_raises_at_construction(self):
        with pytest.raises(QuerySyntaxError):
            SpexEngine("a..b")

    def test_evaluate_returns_matches(self):
        matches = SpexEngine("_*.c").evaluate(PAPER_DOC)
        assert [m.label for m in matches] == ["c", "c"]

    def test_count(self):
        assert SpexEngine("_*._").count(PAPER_DOC) == 5

    def test_module_level_convenience(self):
        assert [m.position for m in evaluate("a.c", PAPER_DOC)] == [5]

    def test_engine_reusable_across_runs(self):
        engine = SpexEngine("a.c")
        assert engine.positions(PAPER_DOC) == engine.positions(PAPER_DOC)

    def test_accepts_event_iterable(self):
        from repro.xmlstream.parser import parse_string

        assert SpexEngine("a.c").positions(parse_string(PAPER_DOC)) == [5]

    def test_run_is_lazy(self):
        """No stream consumption before the first next()."""
        consumed = []

        def stream():
            from repro.xmlstream.parser import parse_string

            for event in parse_string(PAPER_DOC):
                consumed.append(event)
                yield event

        iterator = SpexEngine("_*._").run(stream())
        assert consumed == []
        next(iterator)
        assert 0 < len(consumed) < 12


class TestPositionsOnlyMode:
    def test_matches_carry_no_events(self):
        engine = SpexEngine("a.c", collect_events=False)
        (match,) = engine.evaluate(PAPER_DOC)
        assert match.events is None
        assert match.position == 5


class TestStats:
    def test_stats_populated_after_run(self):
        engine = SpexEngine("_*.a[b].c")
        engine.evaluate(PAPER_DOC)
        stats = engine.stats
        assert stats.network.events == 12
        assert stats.network.degree == engine.network_degree()
        assert stats.condition_variables == 2  # two a-elements qualified
        assert stats.query.qualifiers == 1

    def test_network_degree_without_run(self):
        assert SpexEngine("a").network_degree() == 3

    def test_describe_network(self):
        text = SpexEngine("a[b]").describe_network()
        assert "VC(q0)" in text and "VD(q0)" in text


class TestDocumentsWithText:
    def test_text_preserved_in_fragments(self):
        doc = "<r><a><b>hello</b></a></r>"
        (match,) = SpexEngine("_*.a").evaluate(doc)
        assert match.to_xml() == "<a><b>hello</b></a>"

    def test_text_does_not_affect_matching(self):
        doc = "<r>x<a>y</a>z</r>"
        assert SpexEngine("r.a").positions(doc) == [2]


class TestConveniences:
    def test_first(self):
        match = SpexEngine("_*.c").first(PAPER_DOC)
        assert match is not None and match.position == 3

    def test_first_none_when_empty(self):
        assert SpexEngine("x").first(PAPER_DOC) is None

    def test_first_short_circuits(self):
        consumed = []

        def stream():
            from repro.xmlstream.parser import parse_string

            for event in parse_string(PAPER_DOC):
                consumed.append(event)
                yield event

        SpexEngine("_*.a", collect_events=False).first(stream())
        assert len(consumed) < 12

    def test_exists(self):
        assert SpexEngine("_*.b").exists(PAPER_DOC)
        assert not SpexEngine("_*.x").exists(PAPER_DOC)


class TestMatchHelpers:
    def test_text(self):
        doc = "<r><a>hello <b>wor</b>ld</a></r>"
        (match,) = SpexEngine("r.a").evaluate(doc)
        assert match.text() == "hello world"

    def test_size(self):
        doc = "<r><a><b/><c><d/></c></a></r>"
        (match,) = SpexEngine("r.a").evaluate(doc)
        assert match.size() == 4

    def test_helpers_require_events(self):
        import pytest as _pytest

        (match,) = SpexEngine("a", collect_events=False).evaluate("<a/>")
        with _pytest.raises(ValueError):
            match.text()
        with _pytest.raises(ValueError):
            match.size()


class TestStatsSummary:
    def test_summary_lines(self):
        engine = SpexEngine("_*.a[b].c")
        engine.evaluate(PAPER_DOC)
        summary = engine.stats.summary()
        assert "rpeq*[]" in summary
        assert "events processed      : 12" in summary
        assert "condition variables   : 2" in summary

    def test_summary_without_run(self):
        summary = SpexEngine("a").stats.summary()
        assert "events processed      : 0" in summary


class TestEarlyExitOnInfiniteStreams:
    """first()/exists() must close the run generator on early exit, so a
    match decision on an unbounded source stops reading immediately."""

    def test_first_on_infinite_ticker(self):
        from repro.workloads import stock_ticker

        pulled = {"events": 0}

        def metered():
            for event in stock_ticker(seed=7):  # no limit: endless
                pulled["events"] += 1
                yield event

        match = SpexEngine("_*.trade.price").first(metered())
        assert match is not None and match.label == "price"
        # the decision needed only the first trade's worth of events
        assert pulled["events"] < 20

    def test_exists_on_infinite_ticker(self):
        from repro.workloads import stock_ticker

        assert SpexEngine("_*.trade[alert]").exists(stock_ticker(seed=7))

    def test_first_closes_the_source_generator(self):
        from repro.workloads import stock_ticker

        closed = {"flag": False}

        def tracked():
            try:
                yield from stock_ticker(seed=7)
            finally:
                closed["flag"] = True

        SpexEngine("_*.trade").first(tracked())
        assert closed["flag"], "early exit must close the source, not leak it"

    def test_first_none_on_finite_miss(self):
        assert SpexEngine("_*.zz").first("<a><b/></a>") is None


class TestTrailingDocument:
    """A live event source that stops inside its last document: prefix
    semantics keep that document back, under every policy, unless the
    caller requires the end."""

    @staticmethod
    def stream():
        from repro.xmlstream.parser import parse_string

        good = list(parse_string("<r><a/></r>"))
        truncated = list(parse_string("<r><a/><a/></r>"))[:-2]  # no </r></$>
        return good + truncated

    def run(self, **kwargs):
        from repro.xmlstream import ErrorReport

        engine = SpexEngine("_*.a")
        report = ErrorReport()
        positions = [
            match.position
            for match in engine.run(self.stream(), report=report, **kwargs)
        ]
        return positions, report, engine.stats

    def test_skip_withholds_it_without_a_record(self):
        positions, report, stats = self.run(on_error="skip")
        assert positions == [2]
        assert stats.documents_skipped == 0
        assert report.ok

    def test_required_end_skips_it_with_one_record(self):
        positions, report, stats = self.run(on_error="skip", require_end=True)
        assert positions == [2]
        assert report.documents_skipped == stats.documents_skipped == 1
        assert len(report.records) == 1

    def test_repair_withholds_it_too(self):
        positions, report, _stats = self.run(on_error="repair")
        assert positions == [2]
        assert report.ok

    def test_strict_required_end_raises(self):
        from repro.errors import StreamError

        with pytest.raises(StreamError, match="ended before"):
            self.run(require_end=True)
        assert self.run()[0] == [2, 4, 5]  # strict positions span documents


class TestStatsParity:
    """``stats`` of a pass equals a bare network driven event by event:
    the ladder's exact work counts (``core.network.messages``,
    ``max_stack``, ``max_formula_size``) are read off ``stats``."""

    @staticmethod
    def queries():
        from repro.workloads import query_corpus

        corpus = dict.fromkeys(query_corpus().values())
        return [*corpus, "_*.a[b].c", "_*.b[_*.c].d"]

    @staticmethod
    def document(query):
        """A seeded random tree over the query's own labels and one more."""
        import re

        from repro.workloads import random_tree

        labels = sorted({*re.findall(r"[A-Za-z]\w*", query), "x"})
        return list(random_tree(seed=7, elements=800, max_depth=8, labels=labels))

    @staticmethod
    def reference(query, events, optimize):
        from repro.core.compiler import compile_network

        network, store = compile_network(
            parse(query), collect_events=False, optimize=optimize
        )
        for event in events:
            network.process_event(event)
        return network, store

    @pytest.mark.parametrize("optimize", [True, False])
    def test_stats_equal_a_direct_network_loop(self, optimize):
        for query in self.queries():
            events = self.document(query)
            engine = SpexEngine(query, collect_events=False, optimize=optimize)
            matches = engine.count(iter(events))
            network, store = self.reference(query, events, optimize)
            stats = engine.stats
            assert stats.network == network.stats(), query
            assert stats.output == network.sink.output_stats, query
            assert stats.condition_variables == store.total_variables, query
            assert stats.peak_live_variables == store.peak_live_variables, query
            output = stats.output
            assert matches == output.candidates_created - output.candidates_dropped
