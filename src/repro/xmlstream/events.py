"""XML stream event model.

An *XML stream* in the sense of the paper (Sec. II.1) is a sequence of
document messages produced by a depth-first left-to-right traversal of an
XML document tree, wrapped in a start-document / end-document envelope:

    <$> <a> <a> <c> </c> </a> <b> </b> <c> </c> </a> </$>

This module defines the event classes used throughout the library.  Events
are small immutable objects; streams are plain Python iterables of events,
which lets every component work with generators, lists, files, sockets or
unbounded synthetic sources interchangeably.

Events are symbols of the paper's *finite alphabet* of tags: every door
that turns bytes or wire objects into events (the parser,
:func:`event_from_obj`, :func:`events_from_tags`) takes attribute-less tags
from :data:`TAGS`, one shared object per label.  Identity of an event
therefore carries no meaning — the same object may occur many times in one
stream — equality does.

The paper ignores attributes, namespaces, comments and processing
instructions; we keep attributes and text as optional payload (they ride
along unharmed and are reproduced in serialized results) but the query
language never inspects them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

#: Reserved label of the virtual document root.  The start-document message
#: ``<$>`` behaves exactly like a start tag with this label.
DOCUMENT_LABEL = "$"


@dataclass(frozen=True, slots=True)
class Event:
    """Base class for stream events (document messages)."""


@dataclass(frozen=True, slots=True)
class StartDocument(Event):
    """The ``<$>`` message opening a document."""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "<$>"


@dataclass(frozen=True, slots=True)
class EndDocument(Event):
    """The ``</$>`` message closing a document."""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "</$>"


@dataclass(frozen=True, slots=True)
class StartElement(Event):
    """A ``<label>`` message opening an element.

    Attributes:
        label: the element's tag name.
        attributes: attribute mapping carried along for round-tripping;
            never inspected by rpeq queries.
    """

    label: str
    attributes: Mapping[str, str] = field(default_factory=dict, compare=False)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.label}>"


@dataclass(frozen=True, slots=True)
class EndElement(Event):
    """A ``</label>`` message closing an element."""

    label: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"</{self.label}>"


@dataclass(frozen=True, slots=True)
class Text(Event):
    """Character data between tags.

    Text is transparent to the rpeq semantics: queries never match it, but
    it is buffered and reproduced inside result fragments.
    """

    content: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.content


class _NoAttributes(Mapping[str, str]):
    """The attribute mapping of every shared :class:`StartElement`: empty,
    nothing to mutate, and reduced to its module-level name so ``pickle``
    (shard workers queue matches with their events) and ``copy.deepcopy``
    give back the singleton — which ``MappingProxyType`` cannot do."""

    __slots__ = ()

    def __getitem__(self, key: str) -> str:
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def __len__(self) -> int:
        return 0

    def __reduce__(self) -> str:
        return "NO_ATTRIBUTES"

    def __repr__(self) -> str:
        return "{}"


NO_ATTRIBUTES = _NoAttributes()

#: Distinct labels the shared-tag table holds, and the longest it takes.  Past
#: either, tags are built fresh per occurrence (equal by value, as ever), so a
#: stream of hostile names costs its own events and nothing that outlives them.
TAG_TABLE_CAP = 4096
TAG_LABEL_CAP = 256


class _TagTable(dict[str, tuple[StartElement, EndElement]]):
    """``label -> (<label>, </label>)``, filled on first use up to the cap;
    ``__missing__`` so that a hit — nearly every tag of every stream — is
    one C-level lookup with no Python frame."""

    def __missing__(self, label: str) -> tuple[StartElement, EndElement]:
        # Interned once here: every downstream label test and DFA
        # transition lookup then hits on identity.
        label = sys.intern(label)
        pair = (StartElement(label, NO_ATTRIBUTES), EndElement(label))
        if len(self) < TAG_TABLE_CAP and len(label) <= TAG_LABEL_CAP:
            self[label] = pair
        return pair


TAGS = _TagTable()


def start_tag(label: str) -> StartElement:
    """The shared attribute-less ``<label>`` message, one object per label."""
    return TAGS[label][0]


def end_tag(label: str) -> EndElement:
    """The shared ``</label>`` message (see :func:`start_tag`)."""
    return TAGS[label][1]


def is_document_boundary(event: Event) -> bool:
    """Return ``True`` for the ``<$>`` / ``</$>`` envelope messages."""
    return isinstance(event, (StartDocument, EndDocument))


def label_of(event: Event) -> str | None:
    """Return the label an event carries, treating the envelope as ``$``.

    ``Text`` events carry no label and yield ``None``.
    """
    if isinstance(event, (StartElement, EndElement)):
        return event.label
    if is_document_boundary(event):
        return DOCUMENT_LABEL
    return None


def event_to_obj(event: Event) -> object:
    """Stable, JSON-serializable form of one event (checkpoint codec)."""
    cls = event.__class__
    if cls is StartDocument:
        return ["sd"]
    if cls is EndDocument:
        return ["ed"]
    if cls is StartElement:
        if event.attributes:
            return ["se", event.label, dict(event.attributes)]
        return ["se", event.label]
    if cls is EndElement:
        return ["ee", event.label]
    if cls is Text:
        return ["tx", event.content]
    raise TypeError(f"not an event: {event!r}")


def event_from_obj(obj: object) -> Event:
    """Inverse of :func:`event_to_obj`."""
    if isinstance(obj, (list, tuple)) and obj:
        tag = obj[0]
        if tag == "sd":
            return StartDocument()
        if tag == "ed":
            return EndDocument()
        if tag == "se":
            if len(obj) > 2:
                return StartElement(obj[1], dict(obj[2]))
            return TAGS[obj[1]][0]
        if tag == "ee":
            return TAGS[obj[1]][1]
        if tag == "tx":
            return Text(obj[1])
    raise ValueError(f"not an encoded event: {obj!r}")


def events_from_tags(tags: Iterable[str]) -> Iterator[Event]:
    """Build an event stream from a compact tag notation.

    This mirrors the stream notation used by the paper's figures and makes
    tests read like the paper::

        events_from_tags(["<$>", "<a>", "</a>", "</$>"])

    Tokens ``<$>`` and ``</$>`` become document boundaries; ``<x>`` /
    ``</x>`` become element events; anything not shaped like a tag becomes
    a :class:`Text` event.
    """
    for tag in tags:
        if tag == "<$>":
            yield StartDocument()
        elif tag == "</$>":
            yield EndDocument()
        elif tag.startswith("</") and tag.endswith(">"):
            yield end_tag(tag[2:-1])
        elif tag.startswith("<") and tag.endswith(">"):
            yield start_tag(tag[1:-1])
        else:
            yield Text(tag)


def tags_from_events(events: Iterable[Event]) -> list[str]:
    """Inverse of :func:`events_from_tags`, used by tests and debugging."""
    return [str(event) for event in events]
