"""Producer ingest: the one-pass assembler against the path it replaced.

The reference below is the service's former ingest, kept here as the
oracle: decode the whole frame (``events_from_frame``), run the envelope
loop, and check each finished document with ``checked``.  The one
intended difference is the stray-run fix: the reference answers each
event outside a ``<$>`` on its own, the service answers each run of
them in a frame once.
"""

import asyncio
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.service.client import ProducerClient, SubscriberClient
from repro.service.protocol import (
    SVC_BAD_DOCUMENT,
    SVC_MALFORMED_FRAME,
    DocumentAssembler,
    ProtocolError,
    decode_frame,
    encode_frame,
    events_from_frame,
)
from repro.service.server import ServiceConfig, SpexService
from repro.xmlstream.events import EndDocument, StartDocument
from repro.xmlstream.validate import checked

from .test_server import collect_frames, fast_config, flat_doc, match_tuples, run

LABELS = ("a", "b")
STRAY = " outside a <$> envelope: dropped"


class ReferenceIngest:
    """``events_from_frame`` + the envelope loop + ``checked``."""

    def __init__(self):
        self.partial = []
        self.out = []
        self.rejected = 0
        self.ingested = 0

    def error(self, code, reason):
        self.out.append(("error", code, reason))

    def feed(self, frame):
        try:
            events = events_from_frame(frame)
        except ProtocolError as exc:
            self.error(exc.code, str(exc))
            return
        for event in events:
            if isinstance(event, StartDocument):
                if self.partial:
                    self.rejected += 1
                    self.partial = []
                    self.error(
                        SVC_BAD_DOCUMENT,
                        "new <$> before </$>: partial document dropped",
                    )
                self.partial.append(event)
                continue
            if not self.partial:
                self.rejected += 1
                self.error(SVC_BAD_DOCUMENT, f"event {event}{STRAY}")
                continue
            self.partial.append(event)
            if isinstance(event, EndDocument):
                document, self.partial = self.partial, []
                try:
                    list(checked(iter(document)))
                except StreamError as exc:
                    self.rejected += 1
                    self.error(SVC_BAD_DOCUMENT, f"document dropped: {exc}")
                    continue
                self.out.append(("document", document))
                self.ingested += 1


def fold_stray_runs(out):
    """The stray-run fix applied to one frame's reference output."""
    folded, run = [], []
    for item in out + [None]:
        if item is not None and item[0] == "error" and item[2].endswith(STRAY):
            run.append(item[2][len("event ") : -len(STRAY)])
            continue
        if run:
            folded.append(
                (
                    "error",
                    SVC_BAD_DOCUMENT,
                    f"{len(run)} event(s) outside a <$> envelope dropped; "
                    f"the first: {run[0]}",
                )
            )
            run = []
        if item is not None:
            folded.append(item)
    return folded


class Recorder:
    """The service's producer connection and input queue, recording."""

    def __init__(self):
        self.out = []
        self.conn = SimpleNamespace(
            assembler=DocumentAssembler(), send_now=self.send_now
        )

    def send_now(self, frame):
        self.out.append(("error", frame["code"], frame["reason"]))

    async def put(self, item):
        conn, document = item
        assert conn is self.conn
        self.out.append(("document", document))


# ----------------------------------------------------------------------
# producer frame sequences

JUNK = st.sampled_from(
    [
        ["??"],
        [],
        ["se"],
        ["tx"],
        ["ee", None],
        ["ee", 5],
        ["se", 5],
        ["se", "a", 5],
        {"k": 1},
        7,
        "sd",
    ]
)


@st.composite
def documents(draw):
    """One document's objects: well-formed, then perhaps broken."""
    objs, open_labels = [["sd"]], []
    for step in draw(st.lists(st.sampled_from("oct"), max_size=10)):
        if step == "o":
            attributed = draw(st.booleans())
            # only an attributed start tag decodes with a label that is
            # not a string; its end tag cannot, so it ends in a refusal
            label = draw(st.sampled_from(LABELS + ((5,) if attributed else ())))
            objs.append(["se", label, {"k": "v"}] if attributed else ["se", label])
            open_labels.append(label)
        elif step == "c" and open_labels:
            objs.append(["ee", str(open_labels.pop())])
        elif step == "t":
            objs.append(["tx", draw(st.sampled_from(["x", ""]))])
    objs += [["ee", str(label)] for label in reversed(open_labels)]
    objs.append(["ed"])
    ends = [i for i, obj in enumerate(objs) if obj[0] == "ee"]
    fault = draw(st.sampled_from(["none", "mismatch", "unclosed", "unopened", "cut"]))
    if fault == "mismatch" and ends:
        objs[draw(st.sampled_from(ends))] = ["ee", draw(st.sampled_from(["z", "5"]))]
    elif fault == "unclosed" and ends:
        del objs[draw(st.sampled_from(ends))]
    elif fault == "unopened":
        objs.insert(draw(st.integers(1, len(objs) - 1)), ["ee", "z"])
    elif fault == "cut":  # no </$>: the next <$> or the producer's death cuts it
        del objs[draw(st.integers(1, len(objs) - 1)) :]
    return objs


strays = st.lists(
    st.sampled_from([["tx", "s"], ["se", "a"], ["ee", "a"], ["ed"]]),
    min_size=1,
    max_size=4,
)


@st.composite
def frame_sequences(draw):
    stream = [
        obj
        for segment in draw(st.lists(st.one_of(documents(), strays), max_size=6))
        for obj in segment
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(stream)), max_size=5)))
    bounds = [0, *cuts, len(stream)]
    frames = [stream[start:end] for start, end in zip(bounds, bounds[1:])]
    for payload in frames:
        if draw(st.integers(0, 5)) == 0:  # an undecodable object mid-frame
            payload.insert(draw(st.integers(0, len(payload))), draw(JUNK))
    wire = [{"type": "events", "events": payload} for payload in frames]
    if draw(st.booleans()):
        wire.insert(draw(st.integers(0, len(wire))), {"type": "events", "events": "no"})
    # what the server reads: each frame through the codec
    return [decode_frame(encode_frame(frame)) for frame in wire]


class TestIngestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(frame_sequences())
    def test_assembler_matches_the_reference(self, frames):
        reference = ReferenceIngest()
        expected = []
        for frame in frames:
            before = len(reference.out)
            reference.feed(frame)
            expected += fold_stray_runs(reference.out[before:])
        folded = len(reference.out) - len(expected)

        service = SpexService(ServiceConfig())
        recorder = Recorder()
        service._input = recorder

        async def ingest():
            for frame in frames:
                await service._ingest(recorder.conn, frame)

        asyncio.run(ingest())
        assert recorder.out == expected
        assert service.stats.documents_rejected == reference.rejected - folded
        assert service.stats.documents_ingested == reference.ingested
        # a producer dying now leaves a partial document exactly when the
        # reference holds one
        assert recorder.conn.assembler.in_document == bool(reference.partial)

    def test_refused_frame_leaves_the_open_document_as_it_was(self):
        assembler = DocumentAssembler()
        assert assembler.feed({"events": [["sd"], ["se", "a"]]}) == []
        before = assembler.cursor.state()
        try:
            assembler.feed({"events": [["se", "b"], ["ee", "b"], ["ee", "a"], ["??"]]})
        except ProtocolError as exc:
            assert exc.code == "SVC001"
        else:
            raise AssertionError("an undecodable object must refuse the frame")
        assert assembler.cursor.state() == before
        assert len(assembler.document) == 2
        (document,) = assembler.feed({"events": [["ee", "a"], ["ed"]]})
        assert [type(event).__name__ for event in document] == [
            "StartDocument",
            "StartElement",
            "EndElement",
            "EndDocument",
        ]


class TestRefusedFrameRollback:
    """A refused frame leaves the cursor exactly as it was: an open label
    that is not a string stays one, so its string twin still mismatches."""

    FRAMES = [
        {"type": "events", "events": [["sd"], ["se", 5, {}]]},
        {"type": "events", "events": [7]},
        {"type": "events", "events": [["ee", "5"], ["ed"]]},
    ]

    def test_assembler_refuses_the_document(self):
        assembler = DocumentAssembler()
        assert assembler.feed(self.FRAMES[0]) == []
        try:
            assembler.feed(self.FRAMES[1])
        except ProtocolError as exc:
            assert exc.code == SVC_MALFORMED_FRAME
        else:
            raise AssertionError("an undecodable object must refuse the frame")
        assert assembler.cursor.open_labels == [5]
        (refusal,) = assembler.feed(self.FRAMES[2])
        assert refusal["code"] == SVC_BAD_DOCUMENT
        assert refusal["reason"] == "document dropped: </5> does not close <5>"

    def test_service_refuses_it_and_keeps_serving(self):
        async def scenario():
            service = SpexService(fast_config())
            host, port = await service.start()
            sub = await SubscriberClient.connect(host, port)
            await sub.subscribe("q", "_*.a")
            producer = await ProducerClient.connect(host, port)
            await producer.send_raw(self.FRAMES[0])  # accepted: no answer
            answers = []
            for frame in self.FRAMES[1:]:
                await producer.send_raw(frame)
                answers.append(await producer.conn.recv())
            await producer.send_events(flat_doc("a"))
            frames_task = asyncio.create_task(collect_frames(sub))
            await producer.close()
            await service.stop()
            frames = await frames_task
            await sub.close()
            return service, answers, frames

        service, answers, frames = run(scenario())
        assert [(f["type"], f["code"]) for f in answers] == [
            ("error", SVC_MALFORMED_FRAME),
            ("error", SVC_BAD_DOCUMENT),
        ]
        assert [d for d, _, _ in match_tuples(frames, "q")] == [0]
        assert service.stats.documents_rejected == 1
        assert service.stats.documents_ingested == 1
        assert not service.degraded
