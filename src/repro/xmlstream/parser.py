"""Parsing XML text into event streams.

Two entry points are provided:

* :func:`parse_string` / :func:`parse_file` — built on :mod:`xml.sax`, the
  very API the paper models its streams after.  The SAX callbacks are
  bridged into a pull-style generator through an incremental feed loop so
  that arbitrarily large files are processed with bounded memory.
* :func:`iter_events` — convenience dispatcher accepting strings, paths or
  already-iterable event sequences.

All parsers emit the paper's envelope: a :class:`~repro.xmlstream.events.
StartDocument` before the root element and an :class:`~repro.xmlstream.
events.EndDocument` after it.

Untrusted-input hardening
-------------------------

On a shared serving pass the *parser* is attack surface before any
transducer sees an event: a billion-laughs entity bomb expands kilobytes
of input into gigabytes of character data, and pathological tokens
(mile-long tag names, giant attributes, unbounded text runs) inflate
every downstream buffer at once.  Passing a :class:`ParserLimits` arms
per-token ceilings checked inside the SAX callbacks plus an
entity-declaration analysis that computes each declared entity's full
expansion size and nesting depth *before* expat ever expands it, so a
bomb is rejected at declaration time for the cost of reading its DTD
subset.  Every trip raises a coded, recoverable
:class:`~repro.errors.InputLimitError` — a :class:`StreamError`
subclass, so the recovery policies (:mod:`repro.xmlstream.recovery`)
quarantine or repair the poisoned document like any other malformed
input.
"""

from __future__ import annotations

import io
import os
import re
import sys
import xml.sax
import xml.sax.handler
import xml.sax.xmlreader
from collections import deque
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from ..errors import InputLimitError, StreamError
from .events import EndDocument, EndElement, Event, StartDocument, StartElement, Text

if TYPE_CHECKING:
    from .recovery import ErrorReport

#: Number of bytes handed to the SAX parser per feed step.
_CHUNK_SIZE = 64 * 1024

#: Entity references inside a declared entity's replacement text.
_ENTITY_REF = re.compile(r"&([^;&\s]+);")


@dataclass(frozen=True)
class ParserLimits:
    """Hardening ceilings for parsing untrusted XML text.

    All ceilings default to ``None`` (off), so ``ParserLimits()`` changes
    nothing; :meth:`default` returns the recommended serving profile.

    Attributes:
        max_entity_expansion: ceiling on the fully-expanded size (in
            characters) of any single declared entity — the
            billion-laughs guard, enforced at *declaration* time from
            the declared replacement texts, before any expansion work
            happens (``INPUT001``).
        max_entity_depth: ceiling on entity-in-entity nesting depth
            (``&a;`` referencing ``&b;`` referencing … ), also checked
            at declaration time (``INPUT002``).
        max_text_length: ceiling on one contiguous text run, in
            characters (``INPUT003``).
        max_attribute_length: ceiling on a single attribute value, and
            ``max_attributes`` on the attribute count of one element
            (``INPUT004``).
        max_name_length: ceiling on element and attribute names
            (``INPUT005``).
        max_amplification: backstop ratio of parser *output* characters
            to *input* bytes fed so far; trips ``INPUT006`` when output
            exceeds ``amplification_floor + max_amplification × bytes``.
            Catches whatever slips past the static entity analysis
            (e.g. amplification through many small references).
        amplification_floor: grace allowance (characters) before the
            amplification ratio is enforced, so tiny documents with
            ordinary entities never trip it.
    """

    max_entity_expansion: int | None = None
    max_entity_depth: int | None = None
    max_text_length: int | None = None
    max_attribute_length: int | None = None
    max_attributes: int | None = None
    max_name_length: int | None = None
    max_amplification: float | None = None
    amplification_floor: int = 64 * 1024

    def __post_init__(self) -> None:
        for name in (
            "max_entity_expansion",
            "max_entity_depth",
            "max_text_length",
            "max_attribute_length",
            "max_attributes",
            "max_name_length",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.max_amplification is not None and self.max_amplification <= 0:
            raise ValueError("max_amplification must be positive")
        if self.amplification_floor < 0:
            raise ValueError("amplification_floor must be non-negative")

    @classmethod
    def default(cls) -> "ParserLimits":
        """The recommended profile for serving untrusted streams."""
        return cls(
            max_entity_expansion=64 * 1024,
            max_entity_depth=8,
            max_text_length=4 * 1024 * 1024,
            max_attribute_length=64 * 1024,
            max_attributes=256,
            max_name_length=1024,
            max_amplification=32.0,
        )

    @property
    def unbounded(self) -> bool:
        """``True`` when no ceiling is set (hardening can be skipped)."""
        return (
            self.max_entity_expansion is None
            and self.max_entity_depth is None
            and self.max_text_length is None
            and self.max_attribute_length is None
            and self.max_attributes is None
            and self.max_name_length is None
            and self.max_amplification is None
        )

    @property
    def guards_entities(self) -> bool:
        return self.max_entity_expansion is not None or self.max_entity_depth is not None


class _CollectingHandler(xml.sax.handler.ContentHandler):
    """SAX handler that appends events to a deque drained by the caller.

    With ``limits`` set it doubles as the hardening checkpoint: every
    token the parser delivers is measured before it becomes an event.
    """

    def __init__(
        self,
        sink: deque[Event],
        keep_text: bool,
        limits: ParserLimits | None = None,
    ) -> None:
        super().__init__()
        self._sink = sink
        self._keep_text = keep_text
        self._limits = limits if limits is not None and not limits.unbounded else None
        # Hardening state: parser output volume, the current contiguous
        # text run, and declared-entity expansion metrics.
        self.bytes_fed = 0
        self._chars_out = 0
        self._text_run = 0
        self._entity_sizes: dict[str, int] = {}
        self._entity_depths: dict[str, int] = {}

    def startDocument(self) -> None:
        self._sink.append(StartDocument())

    def endDocument(self) -> None:
        self._sink.append(EndDocument())

    def startElement(
        self, name: str, attrs: xml.sax.xmlreader.AttributesImpl
    ) -> None:
        # Element names repeat massively in any real document; interning
        # them makes every downstream label test (`self._label ==
        # event.label`) an identity hit instead of a character compare.
        name = sys.intern(name)
        limits = self._limits
        if limits is not None:
            self._text_run = 0
            self._check_name(name)
            attr_items = attrs.items()
            if (
                limits.max_attributes is not None
                and len(attr_items) > limits.max_attributes
            ):
                raise InputLimitError(
                    f"element <{name}> has {len(attr_items)} attributes "
                    f"(limit {limits.max_attributes})",
                    code="INPUT004",
                    observed=len(attr_items),
                )
            for attr_name, attr_value in attr_items:
                self._check_name(attr_name)
                if (
                    limits.max_attribute_length is not None
                    and len(attr_value) > limits.max_attribute_length
                ):
                    raise InputLimitError(
                        f"attribute {attr_name!r} is {len(attr_value)} "
                        f"characters (limit {limits.max_attribute_length})",
                        code="INPUT004",
                        observed=len(attr_value),
                    )
                self._count_output(len(attr_name) + len(attr_value))
            self._count_output(len(name))
            self._sink.append(StartElement(name, dict(attr_items)))
            return
        self._sink.append(StartElement(name, dict(attrs.items())))

    def endElement(self, name: str) -> None:
        self._text_run = 0
        self._sink.append(EndElement(sys.intern(name)))

    def characters(self, content: str) -> None:
        limits = self._limits
        if limits is not None:
            # Expat splits long runs across calls; cap the *run*, not
            # the chunk, so the ceiling cannot be dodged by buffering.
            self._text_run += len(content)
            if (
                limits.max_text_length is not None
                and self._text_run > limits.max_text_length
            ):
                raise InputLimitError(
                    f"text run of {self._text_run} characters exceeds "
                    f"limit {limits.max_text_length}",
                    code="INPUT003",
                    observed=self._text_run,
                )
            self._count_output(len(content))
        if self._keep_text and content.strip():
            self._sink.append(Text(content))

    # ------------------------------------------------------------------
    # hardening helpers

    def _check_name(self, name: str) -> None:
        ceiling = self._limits.max_name_length
        if ceiling is not None and len(name) > ceiling:
            raise InputLimitError(
                f"name of {len(name)} characters exceeds limit {ceiling}",
                code="INPUT005",
                observed=len(name),
            )

    def _count_output(self, chars: int) -> None:
        limits = self._limits
        if limits.max_amplification is None:
            return
        self._chars_out += chars
        allowed = limits.amplification_floor + limits.max_amplification * max(
            self.bytes_fed, 1
        )
        if self._chars_out > allowed:
            raise InputLimitError(
                f"parser produced {self._chars_out} characters from "
                f"{self.bytes_fed} input bytes (amplification limit "
                f"{limits.max_amplification}x)",
                code="INPUT006",
                observed=self._chars_out,
            )

    def entity_decl(
        self,
        name: str,
        is_parameter_entity: int,
        value: str | None,
        base: str | None,
        system_id: str | None,
        public_id: str | None,
        notation: str | None,
    ) -> None:
        """pyexpat ``EntityDeclHandler``: certify the entity statically.

        ``value`` is the *raw* replacement text with nested references
        unexpanded, so the full expansion size and depth are computable
        bottom-up (expat requires entities to be declared before use)
        without performing any expansion.
        """
        if value is None:  # external entity; blocked from expanding anyway
            return
        limits = self._limits
        size = len(value)
        depth = 1
        for match in _ENTITY_REF.finditer(value):
            ref = match.group(1)
            if ref in self._entity_sizes:
                size += self._entity_sizes[ref] - len(match.group(0))
                depth = max(depth, self._entity_depths[ref] + 1)
        self._entity_sizes[name] = size
        self._entity_depths[name] = depth
        if limits is None:
            return
        if (
            limits.max_entity_expansion is not None
            and size > limits.max_entity_expansion
        ):
            raise InputLimitError(
                f"entity &{name}; expands to {size} characters "
                f"(limit {limits.max_entity_expansion})",
                code="INPUT001",
                observed=size,
            )
        if limits.max_entity_depth is not None and depth > limits.max_entity_depth:
            raise InputLimitError(
                f"entity &{name}; nests {depth} levels deep "
                f"(limit {limits.max_entity_depth})",
                code="INPUT002",
                observed=depth,
            )


def parse_stream(
    source: IO[bytes] | IO[str],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[Event]:
    """Incrementally parse an open XML file object into events.

    The file is read in chunks and fed to an incremental SAX parser;
    collected events are yielded between feed steps, so memory use is
    bounded by the chunk size plus SAX's internal buffers, independent of
    document size.

    Args:
        source: a binary or text file object containing one XML document.
        keep_text: when ``False``, character data is dropped, which is the
            pure paper model (structure-only streams).
        limits: untrusted-input hardening ceilings (see
            :class:`ParserLimits`); ``None`` parses trustingly.

    Raises:
        StreamError: if the document is not well-formed XML.
        InputLimitError: a hardening ceiling was exceeded (a
            :class:`StreamError` subclass, so recovery policies apply).
    """
    pending: deque[Event] = deque()
    parser = xml.sax.make_parser()
    parser.setFeature(xml.sax.handler.feature_namespaces, False)
    parser.setFeature(xml.sax.handler.feature_external_ges, False)
    handler = _CollectingHandler(pending, keep_text, limits)
    parser.setContentHandler(handler)
    if limits is not None and limits.guards_entities:
        # The stdlib expat driver exposes no declaration-handler
        # property, so hook the raw pyexpat parser.  feed(b"") forces
        # its lazy creation without consuming input; if the driver ever
        # stops exposing it, hardening degrades to the runtime
        # amplification backstop instead of failing.
        parser.feed(b"")
        raw = getattr(parser, "_parser", None)
        if raw is not None:
            raw.EntityDeclHandler = handler.entity_decl
    try:
        while True:
            chunk = source.read(_CHUNK_SIZE)
            if not chunk:
                break
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            handler.bytes_fed += len(chunk)
            parser.feed(chunk)
            while pending:
                yield pending.popleft()
        parser.close()
    except xml.sax.SAXParseException as exc:
        # Flush events parsed before the failure point first: a recovery
        # layer downstream can then repair the readable prefix instead of
        # losing the whole chunk.
        while pending:
            yield pending.popleft()
        raise StreamError(f"malformed XML: {exc}") from exc
    except InputLimitError:
        # Hardening trip mid-feed: same contract — the clean prefix is
        # flushed, then the coded error surfaces for recovery to route.
        while pending:
            yield pending.popleft()
        raise
    while pending:
        yield pending.popleft()


def parse_string(
    text: str, keep_text: bool = True, limits: ParserLimits | None = None
) -> Iterator[Event]:
    """Parse an XML document given as a string into an event stream."""
    return parse_stream(
        io.BytesIO(text.encode("utf-8")), keep_text=keep_text, limits=limits
    )


def parse_file(
    path: str | os.PathLike[str],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[Event]:
    """Parse an XML file into an event stream, reading it incrementally."""

    def _generate() -> Iterator[Event]:
        with open(path, "rb") as handle:
            yield from parse_stream(handle, keep_text=keep_text, limits=limits)

    return _generate()


def iter_events(
    source: str | os.PathLike[str] | Iterable[Event],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[Event]:
    """Normalize heterogeneous inputs into an event iterator.

    Accepts:

    * a string starting with ``<`` — treated as XML text,
    * any other string or a path object — treated as a file path,
    * an iterable of :class:`Event` — passed through unchanged
      (``limits`` does not apply: events are already parsed).
    """
    if isinstance(source, str):
        if source.lstrip().startswith("<"):
            return parse_string(source, keep_text=keep_text, limits=limits)
        return parse_file(source, keep_text=keep_text, limits=limits)
    if isinstance(source, os.PathLike):
        return parse_file(source, keep_text=keep_text, limits=limits)
    return iter(source)


def iter_documents(
    sources: Iterable[str | os.PathLike[str] | Iterable[Event]],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
    report: ErrorReport | None = None,
) -> Iterator[Event]:
    """Concatenate single-document sources into one multi-document stream.

    The serving scenario: each subscriber document arrives as its own
    text/file, and one poisoned document (malformed, or tripping a
    :class:`ParserLimits` ceiling) must not kill the connection.  A
    per-document parse failure files a record in ``report`` (an
    :class:`~repro.xmlstream.recovery.ErrorReport`, action
    ``"parse_error"``) and the stream continues with the next source;
    downstream the poisoned document looks truncated, which the recovery
    policies quarantine (``skip``) or auto-close (``repair``).
    """
    for index, source in enumerate(sources):
        try:
            yield from iter_events(source, keep_text=keep_text, limits=limits)
        except StreamError as exc:
            if report is not None:
                report.add(index, str(exc), "parse_error")
