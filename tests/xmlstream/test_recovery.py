"""Recovery policies: strict, skip-document, repair."""

from itertools import islice

import pytest

from repro.errors import StreamError
from repro.xmlstream import (
    ErrorReport,
    RecoveryPolicy,
    StartDocument,
    as_policy,
    events_from_tags,
    recovering,
    tags_from_events,
)

GOOD = ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
TRUNCATED = ["<$>", "<a>", "<b>", "</b>"]
MISMATCHED = ["<$>", "<a>", "</b>", "</$>"]


def run(tags, policy, report=None, require_end=True):
    return tags_from_events(
        recovering(events_from_tags(tags), policy, report, require_end=require_end)
    )


class TestPolicyCoercion:
    def test_names(self):
        assert as_policy("strict") is RecoveryPolicy.STRICT
        assert as_policy("skip") is RecoveryPolicy.SKIP_DOCUMENT
        assert as_policy("repair") is RecoveryPolicy.REPAIR
        assert as_policy(RecoveryPolicy.REPAIR) is RecoveryPolicy.REPAIR

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            as_policy("lenient")


class TestStrict:
    def test_clean_stream_passes_unchanged(self):
        assert run(GOOD, "strict") == GOOD

    def test_multi_document_stream_accepted(self):
        stream = GOOD + GOOD
        assert run(stream, "strict") == stream

    def test_mismatch_raises(self):
        with pytest.raises(StreamError, match="does not close|no open element"):
            run(MISMATCHED, "strict")

    def test_truncation_raises(self):
        with pytest.raises(StreamError, match="ended before"):
            run(TRUNCATED, "strict")

    def test_truncation_tolerated_without_require_end(self):
        assert run(TRUNCATED, "strict", require_end=False) == TRUNCATED

    def test_garbage_between_documents_raises(self):
        with pytest.raises(StreamError, match="expected <\\$>"):
            run(GOOD + ["<x>"], "strict")

    def test_source_stream_error_propagates(self):
        def source():
            yield StartDocument()
            raise StreamError("connection reset")

        with pytest.raises(StreamError, match="connection reset"):
            list(recovering(source(), "strict"))


class TestSkipDocument:
    def test_clean_stream_passes_unchanged(self):
        report = ErrorReport()
        assert run(GOOD, "skip", report) == GOOD
        assert report.ok
        assert report.documents_seen == 1

    def test_bad_middle_document_quarantined(self):
        stream = GOOD + MISMATCHED + GOOD
        report = ErrorReport()
        assert run(stream, "skip", report) == GOOD + GOOD
        assert report.documents_seen == 3
        assert report.documents_skipped == 1
        [record] = report.records
        assert record.document == 1
        assert record.action == "skipped"

    def test_truncated_final_document_withheld(self):
        report = ErrorReport()
        assert run(GOOD + TRUNCATED, "skip", report) == GOOD
        assert report.documents_skipped == 1

    def test_truncated_prefix_without_require_end_silently_withheld(self):
        report = ErrorReport()
        assert run(GOOD + TRUNCATED, "skip", report, require_end=False) == GOOD
        assert report.documents_skipped == 0
        assert report.ok

    def test_duplicate_start_document_opens_next(self):
        # <$> inside a document invalidates it; the same <$> starts the
        # next document, which is well-formed here.
        stream = ["<$>", "<a>"] + GOOD
        report = ErrorReport()
        assert run(stream, "skip", report) == GOOD
        assert report.documents_seen == 2
        assert report.documents_skipped == 1

    def test_garbage_between_documents_dropped(self):
        stream = GOOD + ["</x>", "oops"] + GOOD
        report = ErrorReport()
        assert run(stream, "skip", report) == GOOD + GOOD
        assert report.events_dropped == 2
        assert any(r.action == "dropped" for r in report.records)

    def test_source_error_quarantines_open_document(self):
        def source():
            yield from events_from_tags(GOOD)
            yield from events_from_tags(["<$>", "<a>"])
            raise StreamError("connection reset")

        report = ErrorReport()
        got = tags_from_events(recovering(source(), "skip", report))
        assert got == GOOD
        assert report.documents_skipped == 1


class TestRepair:
    def test_clean_stream_passes_unchanged(self):
        report = ErrorReport()
        assert run(GOOD, "repair", report) == GOOD
        assert report.ok

    def test_truncation_auto_closed(self):
        report = ErrorReport()
        got = run(TRUNCATED, "repair", report)
        assert got == ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
        assert report.events_repaired == 2  # </a> and </$>

    def test_orphan_end_tag_dropped(self):
        report = ErrorReport()
        got = run(MISMATCHED, "repair", report)
        assert got == ["<$>", "<a>", "</a>", "</$>"]
        assert report.events_dropped == 1

    def test_mismatched_end_closes_intervening(self):
        report = ErrorReport()
        got = run(["<$>", "<a>", "<b>", "</a>", "</$>"], "repair", report)
        assert got == ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
        assert report.events_repaired == 1

    def test_end_document_closes_open_elements(self):
        report = ErrorReport()
        got = run(["<$>", "<a>", "<b>", "</$>"], "repair", report)
        assert got == ["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]
        assert report.events_repaired == 2

    def test_missing_envelope_synthesized(self):
        report = ErrorReport()
        got = run(["<a>", "</a>", "</$>"], "repair", report)
        assert got == ["<$>", "<a>", "</a>", "</$>"]
        assert report.events_repaired == 1

    def test_duplicate_start_document_closes_the_document(self):
        # the second <$> opens the next document, as under skip; the
        # first one is closed, not merged into it
        report = ErrorReport()
        got = run(["<$>", "<a>", "<$>", "</a>", "</$>"], "repair", report)
        assert got == ["<$>", "<a>", "</a>", "</$>", "<$>", "</$>"]
        assert report.events_repaired == 2  # </a> and </$>
        assert report.events_dropped == 1  # the orphan </a>
        assert report.documents_seen == 2
        assert [(r.document, r.action) for r in report.records] == [
            (0, "repaired"),
            (1, "repaired"),
        ]

    def test_source_error_treated_as_truncation(self):
        def source():
            yield from events_from_tags(["<$>", "<a>"])
            raise StreamError("parser gave up")

        report = ErrorReport()
        got = tags_from_events(recovering(source(), "repair", report))
        assert got == ["<$>", "<a>", "</a>", "</$>"]
        assert report.events_repaired == 2

    def test_repair_is_lazy(self):
        # The repair path must not buffer documents: pulling the first
        # document of an endless stream terminates.
        def endless():
            while True:
                yield from events_from_tags(GOOD)

        repaired = recovering(endless(), "repair", require_end=False)
        assert tags_from_events(islice(repaired, len(GOOD))) == GOOD

    def test_repaired_output_is_well_formed(self):
        # Every repaired stream must re-validate under STRICT.
        nasty = [
            TRUNCATED,
            MISMATCHED,
            ["<$>", "</a>", "<a>", "</$>"],
            ["<a>", "<b>", "</a>"],
            GOOD + ["</x>"] + TRUNCATED,
        ]
        for tags in nasty:
            repaired = list(recovering(events_from_tags(tags), "repair"))
            # must not raise:
            assert list(recovering(repaired, "strict")) == repaired


class TestErrorReport:
    def test_callback_fires_per_record(self):
        seen = []
        report = ErrorReport(callback=seen.append)
        run(GOOD + MISMATCHED + GOOD, "skip", report)
        assert seen == report.records
        assert len(seen) == 1

    def test_summary_mentions_counts(self):
        report = ErrorReport()
        run(GOOD + MISMATCHED, "skip", report)
        summary = report.summary()
        assert "2 document(s)" in summary
        assert "1 skipped" in summary


class TestSourceFailureVisibility:
    def test_parser_flushes_prefix_before_raising(self):
        # A SAX error mid-chunk must not swallow the events already
        # parsed from that chunk: the recovery layer repairs the
        # readable prefix only if the source hands it over.
        from repro.xmlstream.parser import parse_string

        events = []
        with pytest.raises(StreamError):
            for event in parse_string("<a><b></b></a><x></y>"):
                events.append(event)
        assert "<b>" in tags_from_events(iter(events))

    def test_repair_recovers_prefix_of_multi_root_text(self):
        from repro import SpexEngine

        engine = SpexEngine("_*.b", collect_events=False)
        matches = list(engine.run("<a><b></b></a><x></y>", on_error="repair"))
        assert [m.position for m in matches] == [2]

    def test_dead_source_is_not_reported_ok(self):
        def dead():
            raise StreamError("connection reset")
            yield  # pragma: no cover

        report = ErrorReport()
        assert list(recovering(dead(), "skip", report)) == []
        assert not report.ok
        [record] = report.records
        assert record.document == -1 and record.action == "dropped"
