"""Edge cases and robustness of the end-to-end engine."""

import pytest

from repro import SpexEngine
from repro.errors import StreamError
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
)


class TestDegenerateDocuments:
    def test_empty_element_document(self):
        assert SpexEngine("a").positions("<a/>") == [1]

    def test_document_with_only_root(self):
        assert SpexEngine("_*._").positions("<x/>") == [1]

    def test_no_match_on_empty_document(self):
        assert SpexEngine("a.b.c").positions("<a/>") == []

    def test_empty_event_stream(self):
        assert SpexEngine("a").positions(iter([])) == []

    def test_envelope_only(self):
        events = [StartDocument(), EndDocument()]
        assert SpexEngine("_").positions(iter(events)) == []
        assert SpexEngine("_*").positions(iter(events)) == [0]

    def test_single_deep_chain(self):
        doc = "<a>" * 30 + "</a>" * 30
        assert SpexEngine("a+").count(doc) == 30

    def test_very_wide_document(self):
        doc = "<r>" + "<x/>" * 2000 + "</r>"
        assert SpexEngine("r.x").count(doc) == 2000

    def test_unicode_labels(self):
        doc = "<répertoire><fichier/></répertoire>"
        assert SpexEngine("répertoire.fichier").positions(doc) == [2]

    def test_labels_with_digits_and_hyphens(self):
        doc = "<h1><sub-item/></h1>"
        assert SpexEngine("h1.sub-item").positions(doc) == [2]


class TestRepeatedAndSameLabelStructures:
    def test_same_label_everywhere(self):
        doc = "<a><a><a/><a/></a><a/></a>"
        assert SpexEngine("a.a.a").count(doc) == 2
        assert SpexEngine("a+").count(doc) == 5

    def test_qualifier_on_self_label(self):
        doc = "<a><a><a/></a></a>"
        # a elements having an a child: positions 1 and 2.
        assert SpexEngine("_*.a[a]").positions(doc) == [1, 2]

    def test_deeply_stacked_qualifiers(self):
        doc = "<a><b/><c/><d/></a>"
        assert SpexEngine("a[b][c][d]").positions(doc) == [1]
        assert SpexEngine("a[b][c][x]").positions(doc) == []

    def test_qualifier_condition_matching_multiple_times(self):
        # Many pieces of evidence for one instance: first wins, rest are
        # no-ops, and the answer has no duplicates.
        doc = "<a>" + "<b/>" * 50 + "<c/></a>"
        assert SpexEngine("a[b].c").count(doc) == 1


class TestMalformedStreams:
    def test_malformed_xml_text_raises(self):
        with pytest.raises(StreamError):
            SpexEngine("a").evaluate("<a><b></a>")

    def test_mismatched_event_stream_raises(self):
        events = [
            StartDocument(),
            StartElement("a"),
            EndElement("b"),
            EndDocument(),
        ]
        with pytest.raises(StreamError):
            SpexEngine("a").evaluate(iter(events))

class TestEngineLifecycle:
    def test_interleaved_runs_are_independent(self):
        engine = SpexEngine("_*.c", collect_events=False)
        first = engine.run("<a><c/></a>")
        next(first)  # start the first run
        # A second run compiles a fresh network; the first iterator is
        # simply abandoned (its network is garbage).
        assert engine.positions("<a><c/><c/></a>") == [2, 3]

    def test_generator_close_mid_run(self):
        engine = SpexEngine("_*._", collect_events=False)
        run = engine.run("<a><b/><c/></a>")
        next(run)
        run.close()  # must not raise

    def test_fragments_of_adjacent_matches_do_not_overlap(self):
        doc = "<r><a>1</a><a>2</a></r>"
        matches = SpexEngine("r.a").evaluate(doc)
        assert [m.to_xml() for m in matches] == ["<a>1</a>", "<a>2</a>"]


class TestAttributesRideAlong:
    def test_attributes_preserved_in_fragments(self):
        doc = '<r><a id="7"><b x="y"/></a></r>'
        (match,) = SpexEngine("r.a").evaluate(doc)
        assert match.to_xml() == '<a id="7"><b x="y"></b></a>'

    def test_attributes_do_not_affect_matching(self):
        assert SpexEngine("a.b").count('<a><b id="1"/><b id="2"/></a>') == 2
