"""Unit tests for stream parsing, and its parity with ``xml.sax``."""

import gc
import io
import warnings
import xml.sax
import xml.sax.handler

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SpexEngine
from repro.errors import InputLimitError, StreamError
from repro.workloads import (
    adversarial_corpus,
    mondial,
    random_tree,
    text_document,
    treebank,
    wordnet,
    xmark,
)
from repro.xmlstream.events import (
    TAG_LABEL_CAP,
    TAG_TABLE_CAP,
    TAGS,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
    end_tag,
    event_from_obj,
    events_from_tags,
    start_tag,
)
from repro.xmlstream.faults import FAULT_KINDS, FaultInjector
from repro.xmlstream.parser import (
    ParserLimits,
    iter_events,
    parse_batches,
    parse_file,
    parse_stream,
    parse_string,
)
from repro.xmlstream.serializer import escape_text, serialize

from ..conftest import PAPER_DOC
from .test_hardening import bomb


class TestParseString:
    def test_envelope_wraps_document(self):
        events = list(parse_string("<a/>"))
        assert isinstance(events[0], StartDocument)
        assert isinstance(events[-1], EndDocument)

    def test_simple_document(self):
        events = list(parse_string("<a><b/></a>"))
        assert events == [
            StartDocument(),
            StartElement("a"),
            StartElement("b"),
            EndElement("b"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_text_kept_by_default(self):
        events = list(parse_string("<a>hi</a>"))
        assert Text("hi") in events

    def test_text_dropped_when_disabled(self):
        events = list(parse_string("<a>hi</a>", keep_text=False))
        assert not any(isinstance(e, Text) for e in events)

    def test_whitespace_only_text_dropped(self):
        events = list(parse_string("<a>\n  <b/>\n</a>"))
        assert not any(isinstance(e, Text) for e in events)

    def test_attributes_preserved(self):
        events = list(parse_string('<a x="1" y="2"/>'))
        start = next(e for e in events if isinstance(e, StartElement))
        assert dict(start.attributes) == {"x": "1", "y": "2"}

    def test_malformed_raises_stream_error(self):
        with pytest.raises(StreamError):
            list(parse_string("<a><b></a>"))

    def test_unclosed_raises_stream_error(self):
        with pytest.raises(StreamError):
            list(parse_string("<a>"))

    def test_entities_resolved(self):
        events = list(parse_string("<a>&lt;x&gt;</a>"))
        text = "".join(e.content for e in events if isinstance(e, Text))
        assert text == "<x>"


class TestIncrementalParsing:
    def test_large_document_streams_in_chunks(self):
        # Build a document far larger than the internal chunk size and
        # verify the parser yields events before reading it all.
        body = "<item/>" * 50_000
        stream = io.BytesIO(f"<root>{body}</root>".encode())
        events = parse_stream(stream)
        assert isinstance(next(events), StartDocument)
        assert next(events) == StartElement("root")
        # The file position must be far from the end at this point.
        assert stream.tell() < stream.getbuffer().nbytes

    def test_text_file_object(self):
        events = list(parse_stream(io.StringIO("<a><b/></a>")))
        assert StartElement("b") in events


class TestIterEvents:
    def test_xml_text_dispatch(self):
        assert StartElement("a") in list(iter_events("<a/>"))

    def test_path_dispatch(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a><b/></a>")
        assert StartElement("b") in list(iter_events(str(path)))

    def test_pathlike_dispatch(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<a/>")
        assert StartElement("a") in list(iter_events(path))

    def test_event_iterable_passthrough(self):
        events = [StartDocument(), StartElement("a"), EndElement("a"), EndDocument()]
        assert list(iter_events(iter(events))) == events


class TestXmlSpecifics:
    """XML constructs the paper abstracts away must pass harmlessly."""

    def test_comments_ignored(self):
        events = list(parse_string("<a><!-- note --><b/></a>"))
        assert StartElement("b") in events
        assert len([e for e in events if isinstance(e, StartElement)]) == 2

    def test_processing_instructions_ignored(self):
        events = list(parse_string("<a><?php echo ?><b/></a>"))
        assert StartElement("b") in events

    def test_cdata_becomes_text(self):
        events = list(parse_string("<a><![CDATA[1 < 2]]></a>"))
        assert Text("1 < 2") in events

    def test_xml_declaration(self):
        events = list(parse_string('<?xml version="1.0" encoding="UTF-8"?><a/>'))
        assert StartElement("a") in events

    def test_namespaced_tags_kept_verbatim(self):
        # Namespace processing is off: prefixed names are plain labels.
        events = list(parse_string('<rdf:RDF xmlns:rdf="urn:x"><rdf:li/></rdf:RDF>'))
        labels = [e.label for e in events if isinstance(e, StartElement)]
        assert labels == ["rdf:RDF", "rdf:li"]

    def test_unicode_content(self):
        events = list(parse_string("<a>héllo wörld</a>"))
        text = "".join(e.content for e in events if isinstance(e, Text))
        assert text == "héllo wörld"


# ----------------------------------------------------------------------
# parity with xml.sax, the parser's previous substrate


class _SaxReference(xml.sax.handler.ContentHandler):
    """What the ``xml.sax`` handler this parser replaced collected."""

    def __init__(self, keep_text):
        super().__init__()
        self.events = []
        self.keep_text = keep_text

    def startDocument(self):
        self.events.append(StartDocument())

    def endDocument(self):
        self.events.append(EndDocument())

    def startElement(self, name, attrs):
        self.events.append(StartElement(name, dict(attrs.items())))

    def endElement(self, name):
        self.events.append(EndElement(name))

    def characters(self, content):
        if self.keep_text and content.strip():
            self.events.append(Text(content))


def sax_parse(data, keep_text=True):
    """``(events, error message or None)`` from the reference."""
    handler = _SaxReference(keep_text)
    reference = xml.sax.make_parser()
    reference.setFeature(xml.sax.handler.feature_namespaces, False)
    reference.setFeature(xml.sax.handler.feature_external_ges, False)
    reference.setContentHandler(handler)
    try:
        for at in range(0, len(data), 64 * 1024):
            reference.feed(data[at : at + 64 * 1024])
        reference.close()
    except xml.sax.SAXParseException as exc:
        return handler.events, f"malformed XML: {exc}"
    return handler.events, None


def our_parse(source, **options):
    events, error = [], None
    try:
        for event in parse_stream(source, **options):
            events.append(event)
    except StreamError as exc:
        error = str(exc)
    return events, error


def plain(events):
    """Events with everything equality skips (attributes) spelled out."""
    return [
        (type(e).__name__, e.label, dict(e.attributes))
        if isinstance(e, StartElement)
        else e
        for e in events
    ]


def assert_parity(text, keep_text=True):
    data = text.encode("utf-8")
    expected, expected_error = sax_parse(data, keep_text)
    got, error = our_parse(io.BytesIO(data), keep_text=keep_text)
    assert plain(got) == plain(expected)  # also: as many before the error
    assert error == expected_error
    return got


def raw_markup(events):
    """Markup of an event list with no well-formedness check."""
    parts = []
    for event in events:
        if isinstance(event, StartElement):
            attrs = "".join(f' {k}="{v}"' for k, v in event.attributes.items())
            parts.append(f"<{event.label}{attrs}>")
        elif isinstance(event, EndElement):
            parts.append(f"</{event.label}>")
        elif isinstance(event, Text):
            parts.append(escape_text(event.content))
    return "".join(parts)


#: generated documents: two of them span several 64 KiB reads, mondial
#: and wordnet carry text and attributes, the trees repeat five labels
GENERATED = {
    "xmark": lambda: serialize(xmark(seed=3, scale=400)),
    "xmark-other-seed": lambda: serialize(xmark(seed=11, scale=30)),
    "treebank": lambda: serialize(treebank(seed=5, sentences=300, max_depth=30)),
    "random-tree": lambda: f"<doc>{serialize(random_tree(9, elements=500))}</doc>",
    "random-forest": lambda: serialize(random_tree(9, elements=500)),
    "mondial": lambda: serialize(mondial(seed=7, countries=12)),
    "wordnet": lambda: serialize(wordnet(seed=7, nouns=200)),
    "text-document": lambda: f"<doc>{serialize(text_document(4, 2000))}</doc>",
}

HAND_WRITTEN = [
    PAPER_DOC,
    '<a x="1" y="&lt;2&gt;"><b z=""/>mixed <i>content</i> here<b/></a>',
    "<a>hello &amp; goodbye</a>",
    "<?xml version='1.0'?><!DOCTYPE a [<!ENTITY g \"hi\">]><a>&g; there&#33;</a>",
    "<a><![CDATA[1 < 2]]><!-- note --><?pi x?>\n  <b/>\n</a>",
    '<r:a xmlns:r="urn:x"><r:b/></r:a>',
    "<a>héllo wörld ✓</a>",
    '<!DOCTYPE a SYSTEM "http://example.invalid/a.dtd"><a>&undeclared;</a>',
    '<!DOCTYPE a [<!ENTITY x SYSTEM "file:///etc/passwd">]><a>&x;</a>',
    "<a>&undeclared;</a>",
    "",
    "   ",
    "<a/><b/>",
    "not xml",
]


class TestSaxParity:
    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_documents(self, name):
        text = GENERATED[name]()
        events = assert_parity(text)
        assert_parity(text, keep_text=False)
        assert (events[-1] == EndDocument()) == (name != "random-forest")

    @pytest.mark.parametrize("text", HAND_WRITTEN)
    def test_hand_written_documents(self, text):
        assert_parity(text)
        assert_parity(text, keep_text=False)

    def test_entity_references_split_text(self):
        events = assert_parity("<a>hello &amp; goodbye</a>")
        assert events[2:5] == [Text("hello "), Text("&"), Text(" goodbye")]

    def test_adversarial_corpus(self):
        for name, document in adversarial_corpus().items():
            if isinstance(document, str):
                assert_parity(document)

    def test_text_file_objects(self):
        for text in (serialize(xmark(seed=3, scale=400)), "<a>héllo</a>", "<a>"):
            expected = sax_parse(text.encode("utf-8"))
            got = our_parse(io.StringIO(text))
            assert (plain(got[0]), got[1]) == (plain(expected[0]), expected[1])

    def test_truncation_at_every_cut(self):
        text = '<a x="1"><b>some text</b><c/>tail &amp; more<d><e/></d></a>'
        for cut in range(len(text)):
            assert_parity(text[:cut])

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_fault_injector_corruptions(self, kind):
        base = list(mondial(seed=7, countries=3))
        for seed in range(25):
            corrupted, _fault = FaultInjector(seed).corrupt(base, kind)
            assert_parity(raw_markup(corrupted))

    def test_error_arrives_after_the_clean_prefix(self):
        # several reads in, so the prefix spans batches
        text = "<root>" + "<item>x</item>" * 20_000 + "</oops>"
        expected, message = sax_parse(text.encode())
        batches = parse_batches(io.BytesIO(text.encode()))
        got = []
        with pytest.raises(StreamError) as excinfo:
            for batch in batches:
                got.extend(batch)
        assert got == expected and len(got) == 60_002
        assert str(excinfo.value) == message

    def test_batches_are_one_list_per_read(self):
        text = serialize(xmark(seed=3, scale=400))
        batches = list(parse_batches(io.BytesIO(text.encode())))
        assert len(batches) == -(-len(text.encode()) // (64 * 1024)) + 1
        assert batches[-1] == [EndDocument()]
        assert [e for batch in batches for e in batch] == list(parse_string(text))


class TestLimitsTripAtTheSameEvent:
    """Code and number of events delivered first, as measured on the
    ``xml.sax``-based parser for the same inputs."""

    CASES = [
        ("<a><b/>" + "x" * 100 + "</a>", {"max_text_length": 10}, "INPUT003", 4),
        ('<a><b/><c p="1" q="2" r="3"/></a>', {"max_attributes": 2}, "INPUT004", 4),
        ('<a><b v="' + "y" * 50 + '"/></a>', {"max_attribute_length": 9}, "INPUT004", 2),
        ("<a><b/><" + "n" * 40 + "/></a>", {"max_name_length": 8}, "INPUT005", 4),
        ("<a><b " + "n" * 40 + '="1"/></a>', {"max_name_length": 8}, "INPUT005", 2),
        (
            "<a>" + "<bb>text</bb>" * 50 + "</a>",
            {"max_amplification": 0.25, "amplification_floor": 100},
            "INPUT006",
            132,
        ),
        (bomb(), {"max_entity_expansion": 1000}, "INPUT001", 1),
        (bomb(depth=20, fanout=1), {"max_entity_depth": 8}, "INPUT002", 1),
    ]

    @pytest.mark.parametrize("text,ceilings,code,delivered", CASES)
    def test_trip(self, text, ceilings, code, delivered):
        events = parse_string(text, limits=ParserLimits(**ceilings))
        got = []
        with pytest.raises(InputLimitError) as excinfo:
            for event in events:
                got.append(event)
        assert excinfo.value.code == code
        assert len(got) == delivered
        unarmed, _ = our_parse(io.BytesIO(text.encode()))  # expat stops the bombs
        assert plain(got) == plain(unarmed)[:delivered]

    def test_a_label_met_unarmed_is_still_measured(self):
        long_name = "shared" * 10
        assert len(list(parse_string(f"<{long_name}/>"))) == 4
        with pytest.raises(InputLimitError) as excinfo:
            list(parse_string(f"<{long_name}/>", limits=ParserLimits(max_name_length=8)))
        assert excinfo.value.code == "INPUT005"

    def test_armed_and_unarmed_build_the_same_events(self):
        text = serialize(mondial(seed=7, countries=5))
        armed = list(parse_string(text, limits=ParserLimits.default()))
        assert plain(armed) == plain(list(parse_string(text)))


class TestSharedTags:
    def test_one_object_per_label_from_every_door(self):
        events = list(parse_string("<a><a><b/></a></a>"))
        assert events[1] is events[2] and events[5] is events[6]
        assert events[1] is start_tag("a") and events[5] is end_tag("a")
        assert event_from_obj(["se", "a"]) is events[1]
        assert event_from_obj(["ee", "a"]) is events[5]
        assert list(events_from_tags(["<a>", "</a>"])) == [events[1], events[5]]
        assert list(events_from_tags(["<a>"]))[0] is events[1]

    def test_attribute_bearing_tags_are_built_per_occurrence(self):
        events = list(parse_string('<a><b k="1"/><b k="2"/></a>'))
        assert events[2] is not events[4]
        assert [dict(e.attributes) for e in (events[2], events[4])] == [
            {"k": "1"},
            {"k": "2"},
        ]
        assert event_from_obj(["se", "b", {"k": "1"}]) is not start_tag("b")

    def test_past_the_cap_tags_are_fresh_and_equal(self):
        saved = dict(TAGS)
        try:
            TAGS.clear()
            labels = [f"label-{index}" for index in range(TAG_TABLE_CAP)]
            text = "<r>" + "".join(f"<{label}/>" for label in labels[:-2]) + "</r>"
            events = list(parse_string(text))  # r and 4,094 more
            assert len(TAGS) == TAG_TABLE_CAP - 1
            assert start_tag(labels[-2]) is start_tag(labels[-2])  # number 4,096
            assert len(TAGS) == TAG_TABLE_CAP
            first, second = start_tag(labels[-1]), start_tag(labels[-1])
            assert first is not second and first == second == StartElement(labels[-1])
            assert end_tag(labels[-1]) == EndElement(labels[-1])
            assert len(TAGS) == TAG_TABLE_CAP
            again = list(parse_string(f"<{labels[-1]}><{labels[-1]}/></{labels[-1]}>"))
            assert again[1] is not again[2] and again[1] == again[2]
            assert events[2] is start_tag(labels[0])  # those in it stay shared
        finally:
            TAGS.clear()
            TAGS.update(saved)


    def test_long_labels_are_not_retained(self):
        label = "n" * (TAG_LABEL_CAP + 1)
        events = list(parse_string(f"<{label}><{label}/></{label}>"))
        assert label not in TAGS and label[:-1] not in TAGS
        assert events[1] is not events[2] and events[1] == events[2]
        assert start_tag(label[:-1]) is start_tag(label[:-1])
        del TAGS[label[:-1]]


class TestAbandonedParse:
    def test_first_and_exists_close_the_file(self, tmp_path):
        path = tmp_path / "doc.xml"
        path.write_text("<root>" + "<item><name/></item>" * 30_000 + "</root>")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert SpexEngine("_*.name").first(str(path)).label == "name"
            assert SpexEngine("_*.item").exists(str(path))
            events = parse_file(path)
            assert next(events) == StartDocument()
            del events
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@st.composite
def documents(draw):
    """One well-formed document over few labels (so they repeat), with
    attributes on some tags and text that neither merges nor splits."""
    labels = st.sampled_from(("a", "b", "c"))
    words = st.text("abcxyz", min_size=1, max_size=5)

    def element(depth):
        attributes = draw(st.dictionaries(st.sampled_from(("k", "l")), words, max_size=2))
        label = draw(labels)
        events = [StartElement(label, attributes) if attributes else StartElement(label)]
        text_allowed = True
        for _ in range(draw(st.integers(0, 3)) if depth < 4 else 0):
            if text_allowed and draw(st.booleans()):
                events.append(Text(draw(words)))
                text_allowed = False
            else:
                events.extend(element(depth + 1))
                text_allowed = True
        events.append(EndElement(label))
        return events

    return [StartDocument(), *element(1), EndDocument()]


@settings(max_examples=150, deadline=None)
@given(documents())
def test_parse_inverts_serialize(events):
    parsed = list(parse_string(serialize(events)))
    assert parsed == events
    assert plain(parsed) == plain(events)
