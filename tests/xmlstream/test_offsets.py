"""Unit tests for the stream cursor: the one envelope state machine."""

import os
import random

import pytest

from repro.errors import StreamError
from repro.xmlstream import events_from_tags
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from repro.xmlstream.offsets import StreamCursor, skip_events

from ..conftest import make_random_events

TRIALS = int(os.environ.get("SOAK_TRIALS", "30"))


def cursor_after(tags):
    cursor = StreamCursor()
    for event in events_from_tags(tags):
        cursor.advance(event)
    return cursor


#: (accepted prefix, rejected event, message fragment) per violation class
VIOLATIONS = [
    (["<$>", "<a>"], EndElement("b"), "</b> does not close <a>"),
    (["<$>", "<a>", "<b>"], EndElement("a"), "</a> does not close <b>"),
    (["<$>"], EndElement("a"), "</a> with no open element"),
    (["<$>", "<a>"], StartDocument(), "duplicate <$>"),
    (["<$>", "<a>"], EndDocument(), "</$> with unclosed elements ['a']"),
    ([], EndDocument(), "</$> without <$>"),
    (["<$>", "</$>"], EndDocument(), "</$> without <$>"),
    ([], StartElement("a"), "<a> before <$>"),
    ([], Text("x"), "x before <$>"),
    ([], EndElement("a"), "</a> before <$>"),
    (["<$>", "</$>"], StartElement("a"), "expected <$> between documents, got <a>"),
    (["<$>", "</$>"], Text("x"), "expected <$> between documents, got x"),
    (["<$>", "</$>"], EndElement("a"), "expected <$> between documents, got </a>"),
]


class TestAdvance:
    def test_counts_and_tracks_the_envelope(self):
        cursor = cursor_after(["<$>", "<a>", "t", "<b>"])
        assert cursor.events_read == 4
        assert cursor.open_labels == ["a", "b"]
        assert cursor.in_document and cursor.documents_seen == 1

    def test_accepts_a_sequence_of_documents(self):
        cursor = cursor_after(["<$>", "<a>", "</a>", "</$>", "<$>", "</$>"])
        assert cursor.events_read == 6
        assert cursor.documents_seen == 2
        assert not cursor.in_document and cursor.open_labels == []

    @pytest.mark.parametrize("prefix, event, message", VIOLATIONS)
    def test_violation_raises_and_moves_nothing(self, prefix, event, message):
        cursor = cursor_after(prefix)
        before = cursor.state()
        with pytest.raises(StreamError) as raised:
            cursor.advance(event)
        assert message in str(raised.value)
        assert cursor.state() == before
        assert cursor.events_read == len(prefix)

    def test_a_rejected_event_can_be_followed_by_the_right_one(self):
        cursor = cursor_after(["<$>", "<a>"])
        with pytest.raises(StreamError):
            cursor.advance(EndElement("b"))
        cursor.advance(EndElement("a"))
        cursor.advance(EndDocument())
        assert cursor.events_read == 4 and not cursor.in_document


class TestAttach:
    def test_counts_before_yielding(self):
        cursor = StreamCursor()
        events = list(events_from_tags(["<$>", "<a>", "</a>", "</$>"]))
        for index, _event in enumerate(cursor.attach(events), start=1):
            assert cursor.events_read == index

    def test_yields_the_valid_prefix_then_raises(self):
        cursor = StreamCursor()
        events = list(events_from_tags(["<$>", "<a>", "</b>", "</$>"]))
        seen = []
        with pytest.raises(StreamError, match="does not close"):
            for event in cursor.attach(events):
                seen.append(event)
        assert seen == events[:2] and cursor.events_read == 2

    def test_require_end_refuses_an_open_document(self):
        events = list(events_from_tags(["<$>", "<a>"]))
        assert list(StreamCursor().attach(events)) == events
        with pytest.raises(StreamError, match=r"ended before </\$> \(1 unclosed"):
            list(StreamCursor().attach(events, require_end=True))
        closed = events + list(events_from_tags(["</a>", "</$>"]))
        assert list(StreamCursor().attach(closed, require_end=True)) == closed

    def test_abandon_document_returns_between_documents(self):
        cursor = cursor_after(["<$>", "<a>", "<b>"])
        cursor.abandon_document()
        assert not cursor.in_document and cursor.open_labels == []
        assert cursor.events_read == 3 and cursor.documents_seen == 1
        cursor.advance(StartDocument())
        assert cursor.documents_seen == 2


class TestStateRoundTrip:
    def test_mid_element(self):
        cursor = cursor_after(["<$>", "<a>", "<b>", "t"])
        restored = StreamCursor.from_state(cursor.state())
        assert restored.state() == cursor.state()
        # the restored cursor checks the tail from the cut's envelope
        with pytest.raises(StreamError, match="does not close <b>"):
            restored.advance(EndElement("a"))
        for event in events_from_tags(["</b>", "</a>", "</$>"]):
            restored.advance(event)
        assert restored.events_read == 7 and not restored.in_document

    def test_between_documents(self):
        cursor = cursor_after(["<$>", "<a>", "</a>", "</$>"])
        restored = StreamCursor.from_state(cursor.state())
        assert restored.state() == cursor.state()
        with pytest.raises(StreamError, match="expected <\\$> between documents"):
            restored.advance(StartElement("a"))
        restored.advance(StartDocument())
        assert restored.documents_seen == 2

    def test_state_is_a_copy(self):
        cursor = cursor_after(["<$>", "<a>"])
        state = cursor.state()
        cursor.advance(StartElement("b"))
        assert state["open_labels"] == ["a"]
        restored = StreamCursor.from_state(state)
        restored.advance(StartElement("c"))
        assert state["open_labels"] == ["a"]

    def test_every_cut_of_random_streams_resumes_to_the_same_end(self):
        for trial in range(TRIALS):
            rng = random.Random(40_000 + trial)
            stream = [
                event
                for _ in range(3)
                for event in make_random_events(rng, max_children=3, max_depth=4)
            ]
            whole = StreamCursor()
            for event in stream:
                whole.advance(event)
            cut = rng.randrange(len(stream) + 1)
            head = StreamCursor()
            for event in stream[:cut]:
                head.advance(event)
            tail = StreamCursor.from_state(head.state())
            for event in stream[cut:]:
                tail.advance(event)
            assert tail.state() == whole.state(), (trial, cut)


class TestSkipEvents:
    def test_discards_the_prefix(self):
        events = list(events_from_tags(["<$>", "<a>", "</a>", "</$>"]))
        assert list(skip_events(iter(events), 2)) == events[2:]
        assert list(skip_events(iter(events), 0)) == events
        assert list(skip_events(iter(events), 4)) == []

    def test_short_source_is_not_the_same_stream(self):
        events = list(events_from_tags(["<$>", "<a>"]))
        with pytest.raises(
            StreamError, match=r"cannot resume: source ended after 2 event\(s\)"
        ):
            list(skip_events(iter(events), 3))
