"""Unit tests for the event model."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro import Checkpoint, SpexEngine, StreamCursor
from repro.core.output_tx import Match
from repro.xmlstream.events import (
    DOCUMENT_LABEL,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
    end_tag,
    event_from_obj,
    event_to_obj,
    events_from_tags,
    is_document_boundary,
    label_of,
    start_tag,
    tags_from_events,
)
from repro.xmlstream.parser import parse_string


class TestEventBasics:
    def test_start_element_carries_label(self):
        assert StartElement("a").label == "a"

    def test_start_element_default_attributes_empty(self):
        assert dict(StartElement("a").attributes) == {}

    def test_attributes_do_not_affect_equality(self):
        assert StartElement("a", {"x": "1"}) == StartElement("a", {"x": "2"})

    def test_events_are_hashable(self):
        assert len({StartElement("a"), StartElement("a"), EndElement("a")}) == 2

    def test_document_boundaries(self):
        assert is_document_boundary(StartDocument())
        assert is_document_boundary(EndDocument())
        assert not is_document_boundary(StartElement("a"))
        assert not is_document_boundary(Text("x"))

    def test_str_forms_match_paper_notation(self):
        assert str(StartDocument()) == "<$>"
        assert str(EndDocument()) == "</$>"
        assert str(StartElement("a")) == "<a>"
        assert str(EndElement("a")) == "</a>"


class TestLabelOf:
    def test_elements(self):
        assert label_of(StartElement("x")) == "x"
        assert label_of(EndElement("x")) == "x"

    def test_boundaries_are_document_label(self):
        assert label_of(StartDocument()) == DOCUMENT_LABEL
        assert label_of(EndDocument()) == DOCUMENT_LABEL

    def test_text_has_no_label(self):
        assert label_of(Text("hello")) is None


class TestTagNotation:
    def test_round_trip_paper_stream(self):
        tags = ["<$>", "<a>", "<c>", "</c>", "</a>", "</$>"]
        assert tags_from_events(events_from_tags(tags)) == tags

    def test_plain_strings_become_text(self):
        events = list(events_from_tags(["<$>", "<a>", "hello", "</a>", "</$>"]))
        assert events[2] == Text("hello")

    def test_empty_input(self):
        assert list(events_from_tags([])) == []


class TestSharedTagsAreSafeToShare:
    """The one ``<a>`` every door hands out rides in buffers, matches,
    queues and checkpoints of many queries at once."""

    def test_nothing_about_it_can_be_mutated(self):
        shared = start_tag("a")
        with pytest.raises(TypeError):
            shared.attributes["x"] = "1"
        for mutator in ("update", "setdefault", "pop", "clear", "__delitem__"):
            assert not hasattr(shared.attributes, mutator)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.label = "b"
        with pytest.raises(dataclasses.FrozenInstanceError):
            shared.attributes = {}
        assert dict(shared.attributes) == {} and not shared.attributes
        assert shared.attributes == {} and len(shared.attributes) == 0

    def test_hand_built_tags_keep_their_own_dict(self):
        built = StartElement("a")
        assert type(built.attributes) is dict and built is not start_tag("a")
        assert built == start_tag("a") and hash(built) == hash(start_tag("a"))
        assert StartElement("a").attributes is not built.attributes

    def test_pickle_round_trip(self):
        # what a shard worker's Match crosses the multiprocessing queue as
        events = tuple(parse_string("<a><b/><b/></a>"))
        match = Match(1, "a", events[1:-1])
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(match, protocol))
            assert back == match and back.to_xml() == "<a><b></b><b></b></a>"
            assert back.events[0].attributes is start_tag("a").attributes
            with pytest.raises(TypeError):
                back.events[0].attributes["x"] = "1"

    def test_deepcopy(self):
        events = list(parse_string("<a><b/></a>"))
        copied = copy.deepcopy(events)
        assert copied == events
        assert copied[1].attributes is events[1].attributes
        assert copy.copy(events[1]) == events[1]

    def test_shared_tags_pickle_and_copy_to_the_table(self):
        # a shard chunk crosses the process boundary pickled: its tags must
        # come back as the table's objects, not fresh copies of them
        shared = [start_tag("a"), end_tag("a")]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(shared, protocol))
            assert back[0] is start_tag("a") and back[1] is end_tag("a")
        for copied in (copy.deepcopy(shared), [copy.copy(tag) for tag in shared]):
            assert copied[0] is start_tag("a") and copied[1] is end_tag("a")

    def test_other_events_pickle_by_value(self):
        events = [
            StartDocument(),
            StartElement("a", {"k": "v"}),
            StartElement("a"),
            Text("p\r\nq"),
            EndDocument(),
        ]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(events, protocol))
            assert back == events
            assert back[1].attributes == {"k": "v"} and back[1] is not start_tag("a")
            assert type(back[2].attributes) is dict and back[2] is not start_tag("a")
            assert back[3].content == "p\r\nq"

    def test_codec_round_trip(self):
        events = list(parse_string('<a><b k="v"/><b/>text<b/></a>'))
        wire = json.loads(json.dumps([event_to_obj(e) for e in events]))
        back = [event_from_obj(obj) for obj in wire]
        assert back == events
        assert [dict(e.attributes) for e in back if isinstance(e, StartElement)] == [
            {},
            {"k": "v"},
            {},
            {},
        ]
        assert back[1] is events[1] and back[4] is events[4] is back[7]
        assert back[2] is not events[2]

    def test_checkpoint_round_trip(self):
        # cut while <a> and its <c> are buffered behind the undecided [b]
        text = "<r><a><c/><c/><b/></a><a><c/></a></r>"
        events = list(parse_string(text))
        whole = [(m.position, m.events) for m in SpexEngine("_*.a[b].c").run(iter(events))]
        assert len(whole) == 2
        engine = SpexEngine("_*.a[b].c")
        cursor = StreamCursor()
        head = list(engine.run(iter(events[:6]), cursor=cursor))
        assert head == []
        saved = json.loads(json.dumps(engine.checkpoint().to_dict()))
        restored = Checkpoint.from_dict(saved)
        resumed = SpexEngine.from_checkpoint(restored).resume(restored, iter(events))
        got = [(m.position, m.events) for m in resumed]
        assert got == whole
        assert got[0][1][0] is start_tag("c")  # restored through the table
