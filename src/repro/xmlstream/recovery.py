"""Recovery policies for malformed multi-document streams.

The paper's model is that input is well-formed by assumption, and the
first violation kills the run.  A dissemination service (paper Sec. I)
cannot afford that — one truncated connection or one bad subscriber
document must not poison a stream carrying thousands of other
documents.  The violation itself is always found by a
:class:`~repro.xmlstream.offsets.StreamCursor`; a policy says what
happens next:

* :data:`RecoveryPolicy.STRICT` — the cursor's
  :class:`~repro.errors.StreamError` propagates.
* :data:`RecoveryPolicy.SKIP_DOCUMENT` — quarantine the malformed
  document: its events are withheld, an :class:`ErrorRecord` is filed,
  and the stream resumes at the next ``<$>``.  Here a document is held
  until its ``</$>`` validates (memory: one document); the engines'
  pass holds its matches, not its events (``ServePump._recover``).
* :data:`RecoveryPolicy.REPAIR` — fix the stream in flight, without
  buffering: unclosed tags are auto-closed on truncation (a source that
  dies mid-document repairs into its readable prefix), a mismatched end
  tag closes the elements above its open tag, orphan end tags and
  garbage between documents are dropped.

Every deviation is reported through an :class:`ErrorReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator

from ..errors import StreamError
from .events import EndDocument, EndElement, Event, StartDocument, StartElement, Text
from .offsets import StreamCursor


class RecoveryPolicy(Enum):
    """What to do when a stream violates well-formedness."""

    STRICT = "strict"
    SKIP_DOCUMENT = "skip"
    REPAIR = "repair"


def as_policy(value: RecoveryPolicy | str) -> RecoveryPolicy:
    """Coerce a policy name (``"strict"``/``"skip"``/``"repair"``)."""
    if isinstance(value, RecoveryPolicy):
        return value
    try:
        return RecoveryPolicy(value)
    except ValueError:
        names = ", ".join(p.value for p in RecoveryPolicy)
        raise ValueError(f"unknown recovery policy {value!r} (expected one of {names})") from None


@dataclass(frozen=True)
class ErrorRecord:
    """One recovery event: what went wrong, where, and what was done.

    Attributes:
        document: 0-based index of the affected document in the stream
            (``-1`` for garbage between documents).
        message: human-readable description of the violation.
        action: ``"skipped"`` (document quarantined), ``"repaired"``
            (events synthesized/dropped in place), ``"dropped"``
            (inter-document garbage discarded), or ``"limit"``
            (a resource guard fired, the document skipped; filed by the
            engines).
    """

    document: int
    message: str
    action: str


@dataclass
class ErrorReport:
    """Accumulating sink for recovery and resource-guard records.

    Pass one instance to :func:`recovering` or to an engine's
    ``on_error``-aware entry point; inspect it afterwards (or live,
    through ``callback``) to learn what the run survived.
    """

    records: list[ErrorRecord] = field(default_factory=list)
    documents_seen: int = 0
    documents_skipped: int = 0
    events_repaired: int = 0
    events_dropped: int = 0
    limit_hits: int = 0
    callback: Callable[[ErrorRecord], None] | None = None

    def add(self, document: int, message: str, action: str) -> ErrorRecord:
        record = ErrorRecord(document, message, action)
        self.records.append(record)
        if action in ("skipped", "limit"):
            self.documents_skipped += 1
        if action == "limit":
            self.limit_hits += 1
        if self.callback is not None:
            self.callback(record)
        return record

    @property
    def ok(self) -> bool:
        """``True`` when the stream needed no intervention."""
        return not self.records

    def summary(self) -> str:
        """One line suitable for a log or the CLI's stderr."""
        return (
            f"{self.documents_seen} document(s): "
            f"{self.documents_skipped} skipped, "
            f"{self.events_repaired} event(s) repaired, "
            f"{self.events_dropped} dropped, "
            f"{self.limit_hits} limit hit(s), "
            f"{len(self.records)} error record(s)"
        )


def recovering(
    events: Iterable[Event],
    policy: RecoveryPolicy | str = RecoveryPolicy.STRICT,
    report: ErrorReport | None = None,
    require_end: bool = True,
) -> Iterator[Event]:
    """Yield a well-formed multi-document stream, per the chosen policy.

    ``STRICT`` is a :class:`~repro.xmlstream.offsets.StreamCursor` and
    nothing else: its first refusal propagates, as from
    :func:`~repro.xmlstream.validate.checked`, except that a sequence of
    ``<$>…</$>`` envelopes is accepted.  ``SKIP_DOCUMENT`` and ``REPAIR``
    run the cursor over their *output*, so its refusal of the next input
    event is the violation and its ``open_labels``/``in_document`` say
    what to withhold or synthesize for every yielded document to validate.

    A :class:`~repro.errors.StreamError` raised *by the source iterator
    itself* (e.g. the SAX parser hitting a truncated file) is treated as
    truncation: propagated under ``STRICT``, quarantined under
    ``SKIP_DOCUMENT``, auto-closed under ``REPAIR``.

    Args:
        events: the (possibly malformed, possibly multi-document) input.
        policy: a :class:`RecoveryPolicy` or its string name.
        report: receives :class:`ErrorRecord` entries and counters;
            a throwaway report is used when ``None``.
        require_end: treat end-of-input inside a document as an error.
            Pass ``False`` for live sources, where every finite read is
            a prefix; the trailing incomplete document is then silently
            withheld (``SKIP_DOCUMENT``) or left unclosed (``REPAIR``
            yields the open prefix unrepaired, mirroring ``checked``).
    """
    policy = as_policy(policy)
    cursor = StreamCursor()
    if policy is RecoveryPolicy.STRICT:
        yield from cursor.attach(events, require_end=require_end)
        return
    skip = policy is RecoveryPolicy.SKIP_DOCUMENT
    report = report if report is not None else ErrorReport()
    source = iter(events)
    labels = cursor.open_labels
    advance = cursor.advance
    buffer: list[Event] = []  # SKIP: events of the current document
    garbage_reported = False  # one record per run of inter-document garbage
    resyncing = False  # SKIP: dropping a quarantined document's rest
    died: StreamError | None = None  # the source's own error

    def close_element() -> Event:
        report.events_repaired += 1
        closer = EndElement(labels[-1])
        advance(closer)
        return closer

    try:
        for event in source:
            try:
                advance(event)
            except StreamError as exc:
                message = str(exc)
            else:
                if event.__class__ is StartDocument:
                    report.documents_seen += 1
                    garbage_reported = resyncing = False
                if not skip:
                    yield event
                else:
                    buffer.append(event)
                    if not cursor.in_document:
                        yield from buffer
                        buffer = []
                continue

            doc = cursor.documents_seen - 1  # index of the current document
            closes = event.label if isinstance(event, EndElement) else None
            if not cursor.in_document:
                # Garbage between documents (or a missing <$>).
                if not skip and isinstance(event, (StartElement, Text)):
                    # Missing envelope open: synthesize it, then the
                    # event goes on inside the new document.
                    opener = StartDocument()
                    advance(opener)
                    report.documents_seen += 1
                    report.events_repaired += 1
                    report.add(doc + 1, f"missing <$> before {event}", "repaired")
                    yield opener
                    advance(event)
                    yield event
                    continue
                report.events_dropped += 1
                if not garbage_reported:
                    garbage_reported = True
                    report.add(-1, f"event {event} between documents", "dropped")
            elif skip:
                # Quarantine the document: up to the next <$> (a duplicate
                # <$> is that next one) the rest is garbage, unrecorded.
                report.add(doc, message, "skipped")
                buffer = []
                cursor.abandon_document()
                garbage_reported = resyncing = True
                if isinstance(event, StartDocument):
                    advance(event)
                    report.documents_seen += 1
                    garbage_reported = resyncing = False
                    buffer.append(event)
            elif isinstance(event, EndDocument) or closes in labels:
                # REPAIR: close the elements above the matching open tag
                # (all of them at </$>).
                report.add(doc, message, "repaired")
                while labels and labels[-1] != closes:
                    yield close_element()
                advance(event)
                yield event
            else:  # REPAIR: an orphan end tag or a duplicate <$>
                report.events_dropped += 1
                report.add(doc, f"{message}; dropped", "repaired")
    except StreamError as exc:
        died = exc

    if not cursor.in_document:
        if died is not None and not resyncing:
            # The source died between documents (e.g. input that is not
            # XML at all): nothing to recover, but the report must not
            # read "ok".
            report.add(-1, f"source failed: {died}", "dropped")
        return
    if died is None and not require_end:
        # Prefix semantics: an open document on a live source is not an
        # error — but a SKIP buffer is withheld (it never validated)
        # while REPAIR has already yielded the prefix.
        return
    if died is not None:
        message = f"source failed mid-document: {died}"
    else:
        try:
            cursor.end()  # inside a document: always raises
        except StreamError as exc:
            message = str(exc)
    report.add(cursor.documents_seen - 1, message, "skipped" if skip else "repaired")
    if not skip:  # auto-close the truncation
        while labels:
            yield close_element()
        report.events_repaired += 1
        yield EndDocument()
