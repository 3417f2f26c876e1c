"""Unit tests for the transport-agnostic wire protocol."""

import pytest

from repro.core.output_tx import Match
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    OVERFLOW_POLICIES,
    ProtocolError,
    SVC_MALFORMED_FRAME,
    decode_frame,
    encode_frame,
    encode_match,
    events_frame,
    events_from_frame,
    hello_frame,
    match_frame,
    match_from_obj,
    match_to_obj,
    subscribe_frame,
)
from repro.xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)


class TestFrameCodec:
    def test_round_trip(self):
        frame = subscribe_frame("q1", "_*.a[b]")
        line = encode_frame(frame)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode_frame(line) == frame

    def test_compact_encoding(self):
        assert b" " not in encode_frame({"type": "ping"})

    def test_rejects_oversized(self):
        line = encode_frame({"type": "events", "pad": "x" * 64})
        with pytest.raises(ProtocolError) as exc:
            decode_frame(line, max_bytes=16)
        assert exc.value.code == SVC_MALFORMED_FRAME

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"not json\n")
        assert exc.value.code == SVC_MALFORMED_FRAME

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"[1,2,3]\n")

    def test_rejects_missing_type(self):
        with pytest.raises(ProtocolError):
            decode_frame(b'{"role":"producer"}\n')

    def test_default_ceiling_is_sane(self):
        assert MAX_FRAME_BYTES >= 65536


class TestEventCodec:
    def test_events_round_trip(self):
        events = [
            StartDocument(),
            StartElement("a", {"k": "v"}),
            Text("hi"),
            EndElement("a"),
            EndDocument(),
        ]
        frame = decode_frame(encode_frame(events_frame(events)))
        assert events_from_frame(frame) == events

    def test_undecodable_event_is_svc001(self):
        with pytest.raises(ProtocolError) as exc:
            events_from_frame({"type": "events", "events": [["??"]]})
        assert exc.value.code == SVC_MALFORMED_FRAME

    def test_events_must_be_a_list(self):
        with pytest.raises(ProtocolError):
            events_from_frame({"type": "events", "events": "nope"})


class TestMatchCodec:
    def test_positions_only_round_trip(self):
        match = Match(position=3, label="b")
        assert match_from_obj(match_to_obj(match)) == match

    def test_with_events_round_trip(self):
        match = Match(
            position=1,
            label="a",
            events=(StartElement("a"), EndElement("a")),
        )
        assert match_from_obj(match_to_obj(match)) == match

    def test_match_frame_carries_document_index(self):
        frame = match_frame("q", Match(position=2, label="c"), document=7)
        assert frame["document"] == 7
        assert frame["query_id"] == "q"


class TestMatchEncoder:
    """``encode_match`` writes the bytes ``encode_frame(match_frame(...))``
    writes, without the dict."""

    TEXTS = [
        "q",
        "",
        'say "hi"',
        "back\\slash",
        "ctrl\x00\x01\x1f\x7f\n\t\r",
        "caf\u00e9 \u2603 \U0001f600 \ud800",
        "x" * 300,  # past the quote cache's length cap
    ]

    @pytest.mark.parametrize("seq", [None, 0, 41])
    @pytest.mark.parametrize("document", [-1, 0, 12])
    def test_byte_identical(self, document, seq):
        for query_id in self.TEXTS:
            for label in self.TEXTS:
                match = Match(position=5, label=label)
                assert encode_match(query_id, match, document, seq) == encode_frame(
                    match_frame(query_id, match, document, seq)
                )

    @pytest.mark.parametrize("seq", [None, 3])
    def test_fragment_bearing_match(self, seq):
        match = Match(
            position=1,
            label="a",
            events=(StartElement("a", {"k": '"v"'}), Text("\u00e9"), EndElement("a")),
        )
        assert encode_match("q\\", match, 0, seq) == encode_frame(
            match_frame("q\\", match, 0, seq)
        )


class TestHello:
    def test_rejects_unknown_role(self):
        with pytest.raises(ProtocolError):
            hello_frame("spectator")

    def test_rejects_unknown_overflow(self):
        with pytest.raises(ProtocolError):
            hello_frame("subscriber", overflow="yolo")

    def test_overflow_policies_complete(self):
        assert set(OVERFLOW_POLICIES) == {"block", "shed_oldest", "disconnect"}
