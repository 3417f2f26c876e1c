"""Multi-document stream utilities for SDI pipelines.

The paper's selective-dissemination scenario (Sec. I) processes a
*sequence* of documents arriving on one connection.  These helpers split
such a concatenated stream into per-document event streams and build
concatenated streams from document sources — all lazily, so an unbounded
feed of documents is processed one document at a time with bounded
memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .events import EndDocument, Event
from .offsets import StreamCursor


def split_documents(events: Iterable[Event]) -> Iterator[Iterator[Event]]:
    """Split a concatenated multi-document stream into documents.

    Yields one lazy event iterator per ``<$> ... </$>`` envelope.  Each
    inner iterator must be consumed (or at least abandoned) before
    advancing to the next — the split is single-pass.  Consumers that
    need random access can wrap each document in ``list(...)``.

    Where ``events`` ends inside a document, that document is a prefix:
    its iterator ends there too.

    Raises:
        StreamError: whatever a strict
            :class:`~repro.xmlstream.offsets.StreamCursor` refuses —
            events between documents, a missing envelope, mismatched
            tags — or the source raises, as a cut one does.
    """
    cursor = StreamCursor()
    checked = cursor.attach(events)

    def one_document(first: Event) -> Iterator[Event]:
        yield first
        for event in checked:
            yield event
            if not cursor.in_document:
                return

    while True:
        opener = next(checked, None)
        if opener is None:
            return
        document = one_document(opener)
        yield document
        # Drain whatever the consumer left unread so the stream is
        # positioned at the next document boundary.
        for _ in document:
            pass


def concat_documents(documents: Iterable[Iterable[Event]]) -> Iterator[Event]:
    """Concatenate per-document event streams into one multi-doc stream.

    The inverse of :func:`split_documents`; no separators are inserted —
    the ``<$>``/``</$>`` envelopes delimit documents.
    """
    for document in documents:
        yield from document


def count_documents(events: Iterable[Event]) -> int:
    """Number of complete documents in a concatenated stream."""
    checked = StreamCursor().attach(events)
    return sum(event.__class__ is EndDocument for event in checked)
