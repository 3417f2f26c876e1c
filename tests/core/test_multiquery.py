"""Unit tests for the multi-query (SDI) engine."""

import pytest

from repro.core.multiquery import MultiQueryEngine
from repro.errors import StreamError
from repro.xmlstream import ErrorReport, events_from_tags

from ..conftest import PAPER_DOC


class TestRun:
    def test_mapping_interface(self):
        engine = MultiQueryEngine({"q1": "a.c", "q2": "_*.b"})
        results = engine.evaluate(PAPER_DOC)
        assert [m.position for m in results["q1"]] == [5]
        assert [m.position for m in results["q2"]] == [4]

    def test_iterable_interface_uses_text_as_id(self):
        engine = MultiQueryEngine(["a.c", "_*.b"])
        results = engine.evaluate(PAPER_DOC)
        assert set(results) == {"a.c", "_*.b"}

    def test_single_pass_sharing(self):
        """The stream is consumed once for all queries."""
        from repro.xmlstream.parser import parse_string

        events = list(parse_string(PAPER_DOC))
        reads = []

        def stream():
            for event in events:
                reads.append(event)
                yield event

        engine = MultiQueryEngine({"q1": "_*.c", "q2": "_*.b"})
        engine.evaluate(stream())
        assert len(reads) == len(events)

    def test_len(self):
        assert len(MultiQueryEngine(["a", "b"])) == 2

    def test_results_tagged_progressively(self):
        engine = MultiQueryEngine({"all": "_*._"})
        seen = list(engine.run(PAPER_DOC))
        assert [(qid, m.position) for qid, m in seen] == [
            ("all", 1), ("all", 2), ("all", 3), ("all", 4), ("all", 5),
        ]


class TestFilterDocuments:
    def test_boolean_matching(self):
        engine = MultiQueryEngine({"has-b": "_*.b", "has-x": "_*.x"})
        assert engine.filter_documents(PAPER_DOC) == {"has-b": True, "has-x": False}

    def test_short_circuit_does_not_change_answers(self):
        queries = {"q1": "a.c", "q2": "_*.a[b]", "q3": "x"}
        engine = MultiQueryEngine(queries)
        filtered = engine.filter_documents(PAPER_DOC)
        full = {k: bool(v) for k, v in engine.evaluate(PAPER_DOC).items()}
        assert filtered == full

    def test_qualifier_queries_supported(self):
        engine = MultiQueryEngine({"q": "_*.a[b]"})
        assert engine.filter_documents(PAPER_DOC)["q"] is True


class TestFilterDocumentsRecovery:
    """SDI robustness: one poisoned document in a multi-document feed."""

    #: Three subscriber documents; the middle one has a mismatched end
    #: tag and must be quarantined under SKIP_DOCUMENT.
    DOC_A = ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
    DOC_BAD = ["<$>", "<c>", "</d>", "</$>"]
    DOC_C = ["<$>", "<c>", "</c>", "</$>"]
    QUERIES = {"has-b": "_*.b", "has-c": "_*.c", "has-x": "_*.x"}

    def stream(self):
        return events_from_tags(self.DOC_A + self.DOC_BAD + self.DOC_C)

    def test_strict_multi_document_poisons_the_run(self):
        engine = MultiQueryEngine(self.QUERIES)
        with pytest.raises(StreamError):
            list(engine.run(self.stream()))

    def test_skip_keeps_remaining_verdicts_correct(self):
        engine = MultiQueryEngine(self.QUERIES)
        report = ErrorReport()
        verdicts = engine.filter_documents(
            self.stream(), on_error="skip", report=report
        )
        # has-c matches document C even though the only other <c> sat in
        # the quarantined document; has-b matches document A; has-x no one.
        assert verdicts == {"has-b": True, "has-c": True, "has-x": False}
        assert report.documents_seen == 3
        assert report.documents_skipped == 1
        [record] = report.records
        assert record.document == 1 and record.action == "skipped"

    def test_skip_excludes_the_bad_documents_matches(self):
        # Only the quarantined document contains <d>: under skip, the
        # verdict must be False — no silent wrong answers either way.
        engine = MultiQueryEngine({"has-d": "_*.d"})
        verdicts = engine.filter_documents(
            events_from_tags(
                self.DOC_A
                + ["<$>", "<d>", "</d>", "<c>", "</$>"]  # malformed, has <d>
                + self.DOC_C
            ),
            on_error="skip",
        )
        assert verdicts == {"has-d": False}

    def test_repair_recovers_the_bad_documents_content(self):
        engine = MultiQueryEngine(self.QUERIES)
        report = ErrorReport()
        verdicts = engine.filter_documents(
            self.stream(), on_error="repair", report=report
        )
        # Repair drops the orphan </d> but keeps <c>…</c>: has-c now also
        # matches the repaired middle document.
        assert verdicts == {"has-b": True, "has-c": True, "has-x": False}
        assert report.documents_skipped == 0
        assert not report.ok

    def test_filter_stream_yields_per_surviving_document(self):
        engine = MultiQueryEngine(self.QUERIES)
        report = ErrorReport()
        verdicts = list(
            engine.filter_stream(self.stream(), on_error="skip", report=report)
        )
        assert verdicts == [
            {"has-b": True, "has-c": False, "has-x": False},
            {"has-b": False, "has-c": True, "has-x": False},
        ]
        assert report.documents_skipped == 1

    def test_run_skips_bad_document_matches(self):
        engine = MultiQueryEngine(self.QUERIES)
        report = ErrorReport()
        tagged = list(engine.run(self.stream(), on_error="skip", report=report))
        assert [(qid, m.position) for qid, m in tagged] == [
            ("has-b", 2),
            ("has-c", 1),
        ]
        assert report.documents_skipped == 1
