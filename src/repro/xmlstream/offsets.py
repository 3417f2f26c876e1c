"""Offset tracking and resumable positioning for event streams.

Checkpointing a streaming run (see :mod:`repro.core.checkpoint`) needs to
tag engine state with the *source position* it corresponds to, and
resuming needs to reposition a fresh source at exactly that point.  Both
halves live here:

* :class:`StreamCursor` — the library's one envelope state machine (the
  "1-PDA" of the paper's Theorem IV.1): it *checks* each event against
  the ``<$>…</$>`` envelope and the open-label stack, raising
  :class:`~repro.errors.StreamError` on a violation, and *counts* the
  events it let through.  A rejected event moves nothing and an accepted
  one is counted *before* it is handed downstream, so whenever the
  consumer holds event ``n`` the cursor reads ``n`` — the invariant that
  makes "checkpoint after the last fully-processed event" exact.
* :func:`skip_events` — discard a prefix of a stream.  Re-reading a file
  and skipping is how resume "seeks": SAX keeps no restartable parse
  state, so the honest repositioning primitive is a cheap re-parse of
  the prefix with no engine work attached (the transducer network never
  sees the skipped events).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import StreamError
from .events import EndDocument, EndElement, Event, StartDocument, StartElement


class StreamCursor:
    """Well-formedness check and position count of one event stream.

    The stream is a sequence of ``<$>…</$>`` documents; inside each,
    every end tag closes the most recent open start tag, and nothing but
    a ``<$>`` may stand between documents.

    It is the one owner of stream position: the fast lanes and the
    stream limits (:func:`repro.limits.stream_guard`) read it.

    Attributes:
        events_read: number of events that have passed the cursor.
        open_labels: labels of the currently open elements (innermost
            last).
        open_starts: each open element's stream-global ordinal.
        elements_seen: number of start tags that have passed, ever.
        in_document: whether a ``<$>`` is open at this position.
        document_start: ``events_read`` just before the open ``<$>``.
        documents_seen: number of ``<$>`` events that have passed.
    """

    def __init__(self) -> None:
        self.events_read = 0
        self.open_labels: list[str] = []
        self.open_starts: list[int] = []
        self.elements_seen = 0
        self.in_document = False
        self.document_start = 0
        self.documents_seen = 0

    def attach(
        self, events: Iterable[Event], require_end: bool = False
    ) -> Iterator[Event]:
        """Yield ``events`` unchanged, each checked and counted *first*.

        The update-then-yield order guarantees that when the consumer is
        processing (or has just finished processing) event ``n``, the
        cursor already reflects position ``n`` — so a checkpoint taken
        between events never over- or under-counts.  With
        ``require_end`` a source that ends inside a document is an error
        (:meth:`end`); without it every finite read is a prefix.
        """
        advance = self.advance
        for event in events:
            advance(event)
            yield event
        if require_end:
            self.end()

    def advance(self, event: Event) -> None:
        """Check one event, then count it.

        Raises:
            StreamError: the event violates the envelope or the nesting;
                the cursor is left exactly as it was.
        """
        cls = event.__class__
        if cls is StartDocument:
            if self.in_document:
                raise StreamError("duplicate <$>")
            self.in_document = True
            self.document_start = self.events_read
            self.documents_seen += 1
        elif not self.in_document:
            if cls is EndDocument:
                raise StreamError("</$> without <$>")
            if self.documents_seen:
                raise StreamError(f"expected <$> between documents, got {event}")
            raise StreamError(f"{event} before <$>")
        elif cls is StartElement:
            self.open_labels.append(event.label)  # type: ignore[attr-defined]
            self.elements_seen += 1
            self.open_starts.append(self.elements_seen)
        elif cls is EndElement:
            labels = self.open_labels
            label = event.label  # type: ignore[attr-defined]
            if not labels:
                raise StreamError(f"</{label}> with no open element")
            if labels[-1] != label:
                raise StreamError(f"</{label}> does not close <{labels[-1]}>")
            labels.pop()
            self.open_starts.pop()
        elif cls is EndDocument:
            if self.open_labels:
                raise StreamError(f"</$> with unclosed elements {self.open_labels}")
            self.in_document = False
        self.events_read += 1

    def end(self) -> None:
        """The source is exhausted: refuse an unfinished document."""
        if self.in_document:
            raise StreamError(
                f"stream ended before </$> ({len(self.open_labels)} unclosed "
                f"element(s))"
            )

    def abandon_document(self) -> None:
        """A recovery policy or a resource guard dropped the rest of the
        open document: the position is between documents again."""
        self.open_labels.clear()
        self.open_starts.clear()
        self.in_document = False

    def state(self) -> dict:
        """JSON-serializable snapshot of the position."""
        return {
            "events_read": self.events_read,
            "open_labels": list(self.open_labels),
            "open_starts": list(self.open_starts),
            "elements_seen": self.elements_seen,
            "in_document": self.in_document,
            "document_start": self.document_start,
            "documents_seen": self.documents_seen,
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamCursor":
        """Rebuild a cursor at a checkpointed position: the one way to
        prime the check mid-stream."""
        cursor = cls()
        cursor.events_read = int(state["events_read"])
        cursor.open_labels = [str(label) for label in state["open_labels"]]
        cursor.open_starts = [int(ordinal) for ordinal in state["open_starts"]]
        cursor.elements_seen = int(state["elements_seen"])
        cursor.in_document = bool(state["in_document"])
        cursor.document_start = int(state["document_start"])
        cursor.documents_seen = int(state["documents_seen"])
        return cursor


def skip_events(events: Iterable[Event], count: int) -> Iterator[Event]:
    """Discard the first ``count`` events; yield the rest.

    Raises:
        StreamError: the stream ended before ``count`` events — the
            source a resume is pointed at is shorter than the stream the
            checkpoint was taken from, which means it is *not* the same
            stream; continuing would silently corrupt results.
    """
    iterator = iter(events)
    for index in range(count):
        try:
            next(iterator)
        except StopIteration:
            raise StreamError(
                f"cannot resume: source ended after {index} event(s), "
                f"checkpoint position is {count}"
            ) from None
    yield from iterator
