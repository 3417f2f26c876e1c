"""Wire protocol of the streaming service frontend.

The service speaks *newline-delimited JSON frames* — one JSON object per
line — over any byte transport.  This module is deliberately
transport-agnostic: it knows how to encode, decode and validate frames,
but never touches a socket, so an HTTP/WebSocket adapter can reuse it
unchanged.  The asyncio TCP binding lives in
:mod:`repro.service.server`.

Two client roles exist, declared in the ``hello`` handshake frame:

* **producers** push XML event streams in (``events`` frames carrying
  batches in the checkpoint event codec of
  :func:`repro.xmlstream.events.event_to_obj`);
* **subscribers** register rpeq queries (``subscribe``) and receive
  ``match`` frames over a long-lived connection.

Server→client outcome frames reuse the serving layer's code vocabulary
(``ADMIT000``–``ADMIT004`` admission decisions, ``SHED001`` load
shedding, ``DEADLINE_*`` expiries) so a wire client sees exactly the
codes an embedded :meth:`MultiQueryEngine.serve
<repro.core.multiquery.MultiQueryEngine.serve>` caller would; genuinely
transport-level conditions get their own ``SVC``-prefixed codes below.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Iterable, Mapping

from ..core.output_tx import Match
from ..errors import ReproError, StreamError
from ..xmlstream.events import (
    TAGS,
    EndDocument,
    Event,
    StartDocument,
    Text,
    event_from_obj,
    event_to_obj,
)
from ..xmlstream.offsets import StreamCursor

#: Protocol revision sent in the ``welcome`` frame.  Revision 2 adds
#: durable sessions: session tokens, per-subscription match sequence
#: numbers, ``resume``/``ack`` client frames and ``ingested`` producer
#: acknowledgements.  Revision-1 clients interoperate unchanged — every
#: addition is an optional field or a frame only durable sessions see.
PROTOCOL_VERSION = 2

#: Hard ceiling on one encoded frame (defense against a client feeding
#: an unbounded line; producers must batch below this).
MAX_FRAME_BYTES = 1_048_576

# ----------------------------------------------------------------------
# transport-level condition codes (the serving layer's ADMIT/SHED/
# DEADLINE codes pass through verbatim; these cover what only the wire
# can get wrong)

SVC_MALFORMED_FRAME = "SVC001"  #: undecodable / oversized / non-object line
SVC_PROTOCOL = "SVC002"  #: frame invalid for the connection's role or state
SVC_HANDSHAKE_TIMEOUT = "SVC003"  #: no ``hello`` within the handshake window
SVC_IDLE_TIMEOUT = "SVC004"  #: no traffic within the idle window
SVC_WRITE_TIMEOUT = "SVC005"  #: subscriber would not accept writes in time
SVC_OVERFLOW = "SVC006"  #: output queue overflowed under the disconnect policy
SVC_DRAINING = "SVC007"  #: server is draining (SIGTERM); no new work accepted
SVC_BAD_DOCUMENT = "SVC008"  #: producer document failed well-formedness
SVC_TENANT_BUDGET = "SVC009"  #: tenant exceeded its subscription budget
SVC_SESSION_UNKNOWN = "SVC010"  #: resume token matches no live session
SVC_SESSION_EXPIRED = "SVC011"  #: session aged past the retention window

#: Per-subscriber output-queue overflow policies.
OVERFLOW_BLOCK = "block"  #: block the producer side (end-to-end backpressure)
OVERFLOW_SHED_OLDEST = "shed_oldest"  #: drop oldest matches, notify SHED001
OVERFLOW_DISCONNECT = "disconnect"  #: force-close the slow subscriber
OVERFLOW_POLICIES = (OVERFLOW_BLOCK, OVERFLOW_SHED_OLDEST, OVERFLOW_DISCONNECT)

#: Client roles.
ROLE_PRODUCER = "producer"
ROLE_SUBSCRIBER = "subscriber"
ROLES = (ROLE_PRODUCER, ROLE_SUBSCRIBER)


class ProtocolError(ReproError):
    """A frame violated the wire protocol.

    ``code`` is one of the ``SVC*`` constants; the server answers with
    an ``error`` frame carrying the same code and, for fatal
    violations, closes the connection.
    """

    def __init__(self, message: str, code: str = SVC_PROTOCOL) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# ----------------------------------------------------------------------
# encode / decode


def encode_frame(frame: Mapping) -> bytes:
    """One frame → one compact JSON line (the only wire representation)."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> dict:
    """One received line → frame dict, enforcing size and shape.

    Raises:
        ProtocolError: the line is oversized, not valid JSON, not a JSON
            object, or missing the ``type`` key (code ``SVC001``).
    """
    if len(line) > max_bytes:
        raise ProtocolError(
            f"frame of {len(line)} bytes exceeds limit {max_bytes}",
            code=SVC_MALFORMED_FRAME,
        )
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"undecodable frame: {exc}", code=SVC_MALFORMED_FRAME
        ) from exc
    if not isinstance(frame, dict) or not isinstance(frame.get("type"), str):
        raise ProtocolError(
            "frame must be a JSON object with a string 'type'",
            code=SVC_MALFORMED_FRAME,
        )
    return frame


def integer_field(value: object, name: str) -> int:
    """A client-supplied integer field, or ``SVC002``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return value


# ----------------------------------------------------------------------
# client → server frames


def hello_frame(
    role: str,
    tenant: str = "default",
    overflow: str | None = None,
    queue_size: int | None = None,
    durable: bool = False,
    session: str | None = None,
) -> dict:
    """Handshake: declare the connection's role and tenant.

    Subscribers may also pick their output-queue ``overflow`` policy and
    ``queue_size`` here (per connection — all of a subscriber's queries
    share one ordered output queue).  ``durable=True`` asks for a
    durable session: the server issues a session token in the
    ``welcome``, stamps every match with a monotone per-subscription
    ``seq``, and keeps the session's subscriptions running across
    disconnects.  ``session`` presents a previously issued token to
    reattach to that session (follow the welcome with a ``resume``
    frame carrying the observed sequence floors).
    """
    if role not in ROLES:
        raise ProtocolError(f"unknown role {role!r} (expected one of {ROLES})")
    if overflow is not None and overflow not in OVERFLOW_POLICIES:
        raise ProtocolError(
            f"unknown overflow policy {overflow!r} "
            f"(expected one of {OVERFLOW_POLICIES})"
        )
    frame = {
        "type": "hello",
        "role": role,
        "tenant": tenant,
        "version": PROTOCOL_VERSION,
    }
    if overflow is not None:
        frame["overflow"] = overflow
    if queue_size is not None:
        frame["queue_size"] = queue_size
    if durable or session is not None:
        frame["durable"] = True
    if session is not None:
        frame["session"] = session
    return frame


def subscribe_frame(query_id: str, query: str) -> dict:
    """Register one rpeq query on a subscriber connection."""
    return {"type": "subscribe", "query_id": query_id, "query": query}


def unsubscribe_frame(query_id: str) -> dict:
    """Withdraw one query (a clean, non-degraded departure)."""
    return {"type": "unsubscribe", "query_id": query_id}


def events_frame(events: Iterable[Event]) -> dict:
    """Producer batch: events in the checkpoint codec."""
    return {"type": "events", "events": [event_to_obj(event) for event in events]}


def events_from_frame(frame: Mapping) -> list[Event]:
    """Decode a producer batch, mapping codec failures to ``SVC001``."""
    payload = frame.get("events")
    if not isinstance(payload, list):
        raise ProtocolError(
            "'events' frame must carry a list", code=SVC_MALFORMED_FRAME
        )
    try:
        return [event_from_obj(obj) for obj in payload]
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise ProtocolError(
            f"undecodable event in batch: {exc}", code=SVC_MALFORMED_FRAME
        ) from exc


class DocumentAssembler:
    """One producer connection's ingest: ``events`` frames in, whole
    checked documents out.  It owns no socket; :meth:`feed` returns what
    the server is to do with a frame.

    Producer input is *document-atomic*: a document is handed on only
    once its ``</$>`` has passed the connection's
    :class:`~repro.xmlstream.offsets.StreamCursor`, so a producer that
    dies, stalls or babbles mid-document never reaches the shared pass.
    The open document may span frames.
    """

    def __init__(self) -> None:
        self.cursor = StreamCursor()
        #: the open document's events so far; ``None`` between documents
        self.document: list[Event] | None = None
        #: the open document's refusal (its error frame), from its first
        #: violation on
        self.fault: dict | None = None

    @property
    def in_document(self) -> bool:
        """Whether a ``<$>`` has passed without its ``</$>``."""
        return self.document is not None

    def feed(self, frame: Mapping) -> list[list[Event] | dict]:
        """One pass over an ``events`` frame: decode each object (shared
        tags come from the tag table), check it with the cursor, and
        buffer it into the open document.

        Returns, in stream order, each document completed in this frame
        and an ``SVC008`` error frame for each refusal:

        * a document with a violation, at its ``</$>``, with the
          cursor's message for the first one;
        * an open document cut by a new ``<$>``;
        * each run of consecutive events outside any ``<$>`` in the
          frame, naming how many were dropped and the first of them.

        Raises:
            ProtocolError: ``SVC001``, the payload is not a list or holds
                an undecodable object.  The whole frame is refused: the
                assembler is left as it was before it.
        """
        payload = frame.get("events")
        if not isinstance(payload, list):
            raise ProtocolError(
                "'events' frame must carry a list", code=SVC_MALFORMED_FRAME
            )
        # state() names every attribute of the cursor and copies its
        # lists; a refused frame puts them back exactly as they were.
        position = self.cursor.state()
        document = self.document
        buffered = 0 if document is None else len(document)
        try:
            return self._assemble(payload)
        except (ValueError, TypeError, IndexError, KeyError) as exc:
            for name, value in position.items():
                setattr(self.cursor, name, value)
            if document is not None:
                del document[buffered:]
            raise ProtocolError(
                f"undecodable event in batch: {exc}", code=SVC_MALFORMED_FRAME
            ) from exc

    def _assemble(self, payload: list) -> list[list[Event] | dict]:
        cursor = self.cursor
        labels, starts = cursor.open_labels, cursor.open_starts
        document, fault = self.document, self.fault
        live = document is not None and fault is None
        tags = TAGS
        out: list[list[Event] | dict] = []
        strays = 0
        first_stray: Event | None = None
        event: Event
        for obj in payload:
            # The decode is the codec's (event_from_obj) unrolled, so a
            # refused object raises what the codec raises; so does naming
            # a stray text whose content is not a string, which refuses
            # its frame the same way.  Nesting tags and text inside a live
            # document pass the cursor inline, as in the pump; the rest
            # goes to advance().
            try:
                kind = obj[0]
            except (TypeError, LookupError):
                kind = None  # not a non-empty list: the codec refuses it
            if kind == "se" and len(obj) == 2:
                event = tags[obj[1]][0]
                if live:
                    labels.append(event.label)  # type: ignore[attr-defined]
                    ordinal = cursor.elements_seen + 1
                    cursor.elements_seen = ordinal
                    starts.append(ordinal)
                    cursor.events_read += 1
                    document.append(event)  # type: ignore[union-attr]
                    continue
            elif kind == "ee":
                event = tags[obj[1]][1]
                # open labels imply a live document
                if labels and labels[-1] == event.label:  # type: ignore[attr-defined]
                    labels.pop()
                    starts.pop()
                    cursor.events_read += 1
                    document.append(event)  # type: ignore[union-attr]
                    continue
            elif kind == "tx":
                event = Text(obj[1])
                if live:
                    cursor.events_read += 1
                    document.append(event)  # type: ignore[union-attr]
                    continue
            else:
                event = event_from_obj(obj)
            cls = event.__class__
            if cls is StartDocument:
                if strays:
                    out.append(_strays_dropped(strays, first_stray))
                    strays = 0
                if document is not None:
                    out.append(
                        error_frame(
                            SVC_BAD_DOCUMENT,
                            "new <$> before </$>: partial document dropped",
                        )
                    )
                    cursor.abandon_document()
                cursor.advance(event)
                document, fault, live = [event], None, True
            elif document is None:
                if not strays:
                    first_stray = event
                strays += 1
            else:
                if fault is None:
                    try:
                        cursor.advance(event)
                    except StreamError as exc:
                        reason = f"document dropped: {exc}"
                        fault = error_frame(SVC_BAD_DOCUMENT, reason)
                        live = False
                        cursor.abandon_document()
                    else:
                        document.append(event)
                if cls is EndDocument:
                    out.append(document if fault is None else fault)
                    document, fault, live = None, None, False
        if strays:
            out.append(_strays_dropped(strays, first_stray))
        self.document, self.fault = document, fault
        return out


def _strays_dropped(count: int, first: Event | None) -> dict:
    return error_frame(
        SVC_BAD_DOCUMENT,
        f"{count} event(s) outside a <$> envelope dropped; the first: {first}",
    )


def resume_frame(acked: Mapping[str, int]) -> dict:
    """Reattach a durable session's delivery after a reconnect.

    ``acked`` maps each of the session's query ids to the highest
    sequence number the client *observed* (not necessarily acked on the
    wire before the disconnect).  The server replays every retained
    match above that floor, answers with ``resumed``, and only then
    resumes live delivery — so each match is observed exactly once.
    """
    return {"type": "resume", "acked": {str(k): int(v) for k, v in acked.items()}}


def ack_frame(query_id: str, seq: int) -> dict:
    """Advance one subscription's durable delivery floor.

    Acks let the server prune the write-ahead log's replay tail; they
    are cumulative (acking ``seq`` covers everything at or below it)
    and purely advisory for flow — delivery never waits on them.
    """
    return {"type": "ack", "query_id": query_id, "seq": seq}


# ----------------------------------------------------------------------
# server → client frames


def welcome_frame(
    role: str,
    session: str | None = None,
    documents: int | None = None,
    replay_from: int | None = None,
) -> dict:
    """Handshake acknowledgement.

    Durable subscribers receive their ``session`` token here.  Producers
    on a resumed server receive ``documents`` (the committed document
    count) and ``replay_from`` — the 1-based count of the first document
    the engine needs re-sent (its state trails the log by up to one
    checkpoint interval; re-sent documents the log already committed are
    rebuilt silently, never re-delivered).
    """
    frame = {"type": "welcome", "role": role, "version": PROTOCOL_VERSION}
    if session is not None:
        frame["session"] = session
    if documents is not None:
        frame["documents"] = documents
    if replay_from is not None:
        frame["replay_from"] = replay_from
    return frame


def resumed_frame(queries: Mapping[str, int], documents: int) -> dict:
    """Answer to ``resume``: replay is complete, live delivery follows.

    ``queries`` maps each restored query id to the last sequence number
    on or below which the client now holds everything (its resume floor
    plus the replayed tail); ``documents`` is the committed document
    count at the reattach point.
    """
    return {
        "type": "resumed",
        "queries": {str(k): int(v) for k, v in queries.items()},
        "documents": documents,
    }


def ingested_frame(documents: int, durable_documents: int) -> dict:
    """Producer acknowledgement: ``documents`` committed so far, of
    which ``durable_documents`` are fsync-covered in the write-ahead
    log (the fsync batching cadence makes these differ transiently)."""
    return {
        "type": "ingested",
        "documents": documents,
        "durable": durable_documents,
    }


def subscribed_frame(
    query_id: str, status: str, code: str | None, reason: str | None
) -> dict:
    """Admission verdict for one ``subscribe`` (status admit/degraded)."""
    return {
        "type": "subscribed",
        "query_id": query_id,
        "status": status,
        "code": code,
        "reason": reason,
    }


def rejected_frame(query_id: str, code: str, reason: str) -> dict:
    """Admission (or tenant-budget) rejection of one ``subscribe``."""
    return {"type": "rejected", "query_id": query_id, "code": code, "reason": reason}


def match_to_obj(match: Match) -> dict:
    """Wire form of one :class:`~repro.core.output_tx.Match`."""
    obj: dict = {"position": match.position, "label": match.label}
    if match.events is not None:
        obj["events"] = [event_to_obj(event) for event in match.events]
    return obj


def match_from_obj(obj: Mapping) -> Match:
    """Inverse of :func:`match_to_obj`."""
    events = obj.get("events")
    return Match(
        position=int(obj["position"]),
        label=str(obj["label"]),
        events=tuple(event_from_obj(item) for item in events)
        if events is not None
        else None,
    )


def match_frame(
    query_id: str, match: Match, document: int, seq: int | None = None
) -> dict:
    """One delivered match; ``document`` is the global document index
    (0-based), which load harnesses use for client-side latency.

    On durable sessions every match additionally carries ``seq`` — the
    subscription's monotone, gap-free sequence number, the unit of the
    ack/resume contract."""
    frame = {
        "type": "match",
        "query_id": query_id,
        "document": document,
        "match": match_to_obj(match),
    }
    if seq is not None:
        frame["seq"] = seq
    return frame


_MATCH_LINE = (
    b'{"type":"match","query_id":%s,"document":%d,'
    b'"match":{"position":%d,"label":%s}}\n'
)
_SEQ_MATCH_LINE = _MATCH_LINE[:-2] + b',"seq":%d}\n'


def encode_match(
    query_id: str, match: Match, document: int, seq: int | None = None
) -> bytes:
    """``encode_frame(match_frame(query_id, match, document, seq))``,
    byte for byte, without the dict or ``json.dumps``; a fragment-bearing
    match takes that path."""
    if match.events is not None:
        return encode_frame(match_frame(query_id, match, document, seq))
    quoted_id = encode_basestring_ascii(query_id).encode("ascii")
    label = encode_basestring_ascii(match.label).encode("ascii")
    if seq is None:
        return _MATCH_LINE % (quoted_id, document, match.position, label)
    return _SEQ_MATCH_LINE % (quoted_id, document, match.position, label, seq)


def notice_frame(code: str, reason: str, query_id: str | None = None) -> dict:
    """Non-fatal condition (shed matches, deadline detach, quarantine)."""
    frame = {"type": "notice", "code": code, "reason": reason}
    if query_id is not None:
        frame["query_id"] = query_id
    return frame


def heartbeat_frame(documents: int) -> dict:
    """Liveness beacon; ``documents`` is the engine's document count."""
    return {"type": "heartbeat", "documents": documents}


def pong_frame() -> dict:
    return {"type": "pong"}


def error_frame(code: str, reason: str) -> dict:
    """Protocol-level complaint (the connection may stay open)."""
    return {"type": "error", "code": code, "reason": reason}


def bye_frame(code: str, reason: str) -> dict:
    """Server-initiated close; always the last frame on the connection."""
    return {"type": "bye", "code": code, "reason": reason}
