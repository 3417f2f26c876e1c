"""Stream well-formedness checking.

The paper's transducers assume well-formed input (matched tags inside a
single ``<$>``/``</$>`` envelope).  :func:`checked` wraps any event stream
and raises :class:`~repro.errors.StreamError` the moment an invariant is
violated, so engine bugs are never silently blamed on bad input.  The
check itself — the textbook 1-PDA the paper's Theorem IV.1 alludes to, a
single stack of open labels — is
:class:`~repro.xmlstream.offsets.StreamCursor`; this module only adds the
single-document refusals: nothing after ``</$>``, no end before it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import StreamError
from .events import Event
from .offsets import StreamCursor


def checked(events: Iterable[Event]) -> Iterator[Event]:
    """Yield the events of *one* document unchanged while validating them.

    A :class:`~repro.xmlstream.offsets.StreamCursor` over ``events``
    that additionally refuses anything after the first ``</$>``.
    Invariants enforced:

    * the first event is ``<$>`` and the last is ``</$>``;
    * element events occur only inside the envelope;
    * every end tag matches the most recent open start tag;
    * no events follow ``</$>``.
    """
    cursor = StreamCursor()
    for event in events:
        if cursor.documents_seen and not cursor.in_document:
            raise StreamError(f"event {event} after </$>")
        cursor.advance(event)
        yield event
    cursor.end()


def is_well_formed(events: Iterable[Event]) -> bool:
    """Return ``True`` when the stream satisfies all envelope invariants."""
    try:
        for _ in checked(events):
            pass
    except StreamError:
        return False
    return True
