"""Parsing XML text into event streams.

* :func:`parse_batches` is the parser, directly on :mod:`pyexpat`: three
  callbacks append events to one list per 64 KiB read, yielded after the
  read, so memory is bounded by the chunk size whatever the document's.
* :func:`parse_stream` / :func:`parse_file` / :func:`parse_string` are
  ``itertools.chain.from_iterable`` over those lists: a plain iterator of
  events with no Python frame per event between expat and the consumer.
* :func:`iter_events` — convenience dispatcher accepting strings, paths or
  already-iterable event sequences.

All of them emit the paper's envelope, :class:`~repro.xmlstream.events.
StartDocument` before the root element and ``EndDocument`` after it, and
take attribute-less tags from :data:`repro.xmlstream.events.TAGS` — one
object per label, not per occurrence.  External entities are never fetched.

Untrusted-input hardening
-------------------------

The parser is attack surface before any transducer sees an event (entity
bombs, mile-long names, giant attributes, unbounded text runs).  Passing
a :class:`ParserLimits` puts a :class:`_Meter` in front of the same three
callbacks — every token is measured before it becomes an event — and
sizes each declared entity's full expansion *before* expat expands it.
A trip raises a coded :class:`~repro.errors.InputLimitError`, a
:class:`StreamError`, so the recovery policies
(:mod:`repro.xmlstream.recovery`) treat the document like any other
malformed input.
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass
from itertools import chain
from sys import intern
from typing import IO, TYPE_CHECKING, Callable, Iterable, Iterator
from xml.parsers import expat

from ..errors import InputLimitError, StreamError
from .events import TAGS, EndDocument, Event, StartDocument, StartElement, Text

if TYPE_CHECKING:
    from .recovery import ErrorReport

#: Number of bytes handed to expat per read, and so the size of a batch.
_CHUNK_SIZE = 64 * 1024

#: Entity references inside a declared entity's replacement text.
_ENTITY_REF = re.compile(r"&([^;&\s]+);")


@dataclass(frozen=True)
class ParserLimits:
    """Hardening ceilings for parsing untrusted XML text.

    All ceilings default to ``None`` (off), so ``ParserLimits()`` changes
    nothing; :meth:`default` returns the recommended serving profile.

    Attributes:
        max_entity_expansion: fully-expanded size, in characters, of any
            one declared entity — the billion-laughs guard, computed from
            the declared replacement texts at *declaration* time, before
            any expansion happens (``INPUT001``).
        max_entity_depth: entity-in-entity nesting depth, also checked at
            declaration time (``INPUT002``).
        max_text_length: one contiguous text run, in characters
            (``INPUT003``).
        max_attribute_length: one attribute value; ``max_attributes``:
            the attribute count of one element (``INPUT004``).
        max_name_length: element and attribute names (``INPUT005``).
        max_amplification: backstop ratio of parser *output* characters
            to *input* bytes fed so far; trips ``INPUT006`` when output
            exceeds ``amplification_floor + max_amplification × bytes``
            (what slips past the static entity analysis, e.g. many small
            references).
        amplification_floor: grace allowance in characters, so tiny
            documents with ordinary entities never trip the ratio.
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
        for name, value in self._ceilings():
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.amplification_floor < 0:
            raise ValueError("amplification_floor must be non-negative")

    def _ceilings(self) -> list[tuple[str, float | None]]:
        """Every field but the floor is a ceiling (``None`` = off)."""
        return [kv for kv in vars(self).items() if kv[0] != "amplification_floor"]

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
        return all(value is None for _, value in self._ceilings())

    @property
    def guards_entities(self) -> bool:
        return self.max_entity_expansion is not None or self.max_entity_depth is not None


def _cap(code: str, what: str, seen: int, ceiling: int | None, of: str = "") -> None:
    """Raise the coded limit error if ``seen`` is over an armed ceiling."""
    if ceiling is not None and seen > ceiling:
        raise InputLimitError(
            f"{what}{of} is {seen} (limit {ceiling})", code=code, observed=seen
        )


class _Meter:
    """What an armed :class:`ParserLimits` counts, per parse.

    Its methods only measure a token (and raise): :func:`parse_batches`
    runs them in front of the callbacks that build the events, so an
    armed parse builds events exactly as an unarmed one does, and with
    no ceiling set the meter is absent.
    """

    def __init__(self, limits: ParserLimits) -> None:
        self._limits = limits
        # Parser input and output volume, the current contiguous text run.
        self.bytes_fed = 0
        self._chars_out = 0
        self._text_run = 0
        #: declared entity -> (fully expanded size, nesting depth)
        self._entities: dict[str, tuple[int, int]] = {}

    def start(self, name: str, attrs: dict[str, str]) -> None:
        limits = self._limits
        self._text_run = 0
        # Names are measured per occurrence, not once per label: the
        # shared-tag table outlives this parse and may have met them unarmed.
        _cap("INPUT005", "name length", len(name), limits.max_name_length)
        _cap("INPUT004", "attribute count of ", len(attrs), limits.max_attributes, name)
        longest = limits.max_attribute_length
        for attr, value in attrs.items():
            _cap("INPUT005", "name length", len(attr), limits.max_name_length)
            _cap("INPUT004", "length of attribute ", len(value), longest, attr)
            self._count_output(len(attr) + len(value))
        self._count_output(len(name))

    def end(self, name: str) -> None:
        self._text_run = 0

    def text(self, content: str) -> None:
        # Expat splits long runs across calls; cap the *run*, not the
        # chunk, so the ceiling cannot be dodged by buffering.
        self._text_run += len(content)
        _cap("INPUT003", "text run", self._text_run, self._limits.max_text_length)
        self._count_output(len(content))

    def _count_output(self, chars: int) -> None:
        limits = self._limits
        if limits.max_amplification is None:
            return
        self._chars_out += chars
        allowed = limits.max_amplification * max(self.bytes_fed, 1)
        if self._chars_out > limits.amplification_floor + allowed:
            raise InputLimitError(
                f"parser produced {self._chars_out} characters from "
                f"{self.bytes_fed} input bytes (amplification limit "
                f"{limits.max_amplification}x)",
                code="INPUT006",
                observed=self._chars_out,
            )

    def entity_decl(
        self, name: str, is_parameter: int, value: str | None, *external: str | None
    ) -> None:
        """pyexpat ``EntityDeclHandler``: certify the entity statically.

        ``value`` is the *raw* replacement text with nested references
        unexpanded, so the full expansion size and depth are computable
        bottom-up (expat requires entities to be declared before use)
        without performing any expansion.
        """
        if value is None:  # external entity; blocked from expanding anyway
            return
        size, depth = len(value), 1
        for match in _ENTITY_REF.finditer(value):
            inner = self._entities.get(match.group(1))
            if inner is not None:
                size += inner[0] - len(match.group(0))
                depth = max(depth, inner[1] + 1)
        self._entities[name] = size, depth
        limits = self._limits
        _cap("INPUT001", "expansion of &", size, limits.max_entity_expansion, name)
        _cap("INPUT002", "nesting depth of &", depth, limits.max_entity_depth, name)


def _then(
    measure: Callable[..., None], emit: Callable[..., None]
) -> Callable[..., None]:
    """``measure(*token)``, which may raise, then ``emit(*token)``."""

    def handler(*token: object) -> None:
        measure(*token)
        emit(*token)

    return handler


def parse_batches(
    source: IO[bytes] | IO[str] | str | os.PathLike[str],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[list[Event]]:
    """Parse one XML document, one list of events per 64 KiB read.

    Args:
        source: a binary or text file object, or the path of a file that
            is open from the first batch to the last or until the
            iterator is dropped (an empty source is an empty stream).
        keep_text: when ``False``, character data is dropped, which is the
            pure paper model (structure-only streams).
        limits: untrusted-input hardening ceilings (see
            :class:`ParserLimits`); ``None`` parses trustingly.

    Raises:
        StreamError: if the document is not well-formed XML.
        InputLimitError: a hardening ceiling was exceeded (a
            :class:`StreamError` subclass, so recovery policies apply).
            Either way the events parsed before the failure point are
            yielded first: a recovery layer downstream can then repair
            the readable prefix instead of losing the whole chunk.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            yield from parse_batches(handle, keep_text, limits)
        return
    batch: list[Event] = []
    tags = TAGS

    def start(name: str, attrs: dict[str, str]) -> None:
        if attrs:
            batch.append(StartElement(intern(name), attrs))
        else:
            batch.append(tags[name][0])

    def end(name: str) -> None:
        batch.append(tags[name][1])

    def text(content: str) -> None:
        if content.strip():
            batch.append(Text(content))

    parser = expat.ParserCreate()
    # As the SAX driver did with external general entities off: the
    # reference is acknowledged, nothing is ever opened.
    parser.ExternalEntityRefHandler = lambda context, base, system_id, public_id: 1
    parser.SetParamEntityParsing(expat.XML_PARAM_ENTITY_PARSING_UNLESS_STANDALONE)
    meter = None
    if limits is None or limits.unbounded:
        parser.StartElementHandler = start
        parser.EndElementHandler = end
        if keep_text:
            parser.CharacterDataHandler = text
    else:
        meter = _Meter(limits)
        parser.StartElementHandler = _then(meter.start, start)
        parser.EndElementHandler = _then(meter.end, end)
        on_text = _then(meter.text, text) if keep_text else meter.text
        parser.CharacterDataHandler = on_text
        parser.EntityDeclHandler = meter.entity_decl

    chunk = source.read(_CHUNK_SIZE)
    if not chunk:
        return
    batch.append(StartDocument())
    try:
        while chunk:
            if isinstance(chunk, str):
                chunk = chunk.encode("utf-8")
            if meter is not None:
                meter.bytes_fed += len(chunk)
            parser.Parse(chunk, False)
            yield batch
            batch = []
            chunk = source.read(_CHUNK_SIZE)
        parser.Parse(b"", True)
    except (expat.ExpatError, InputLimitError) as exc:
        yield batch  # the clean prefix first, for recovery downstream
        if isinstance(exc, InputLimitError):
            raise
        what = expat.ErrorString(exc.code)  # worded as the SAX driver worded it
        raise StreamError(
            f"malformed XML: <unknown>:{exc.lineno}:{exc.offset}: {what}"
        ) from exc
    batch.append(EndDocument())
    yield batch


def parse_stream(
    source: IO[bytes] | IO[str],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[Event]:
    """Incrementally parse an open XML file object into an event stream."""
    return chain.from_iterable(parse_batches(source, keep_text, limits))


def parse_string(
    text: str, keep_text: bool = True, limits: ParserLimits | None = None
) -> Iterator[Event]:
    """Parse an XML document given as a string into an event stream."""
    return parse_stream(io.BytesIO(text.encode("utf-8")), keep_text, limits)


def parse_file(
    path: str | os.PathLike[str],
    keep_text: bool = True,
    limits: ParserLimits | None = None,
) -> Iterator[Event]:
    """Parse an XML file into an event stream, reading it incrementally."""
    return chain.from_iterable(parse_batches(path, keep_text, limits))


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
    if isinstance(source, str) and source.lstrip().startswith("<"):
        return parse_string(source, keep_text, limits)
    if isinstance(source, (str, os.PathLike)):
        return parse_file(source, keep_text, limits)
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
    policies quarantine (``skip``) or auto-close (``repair``).  The list
    is finite, so a failure of the last source is also raised once it is
    filed: the stream ends cut, not open, as a single failing source
    ends.  Without a ``report`` the failure propagates, as for a single
    source.
    """
    failed: StreamError | None = None
    for index, source in enumerate(sources):
        failed = None
        try:
            yield from iter_events(source, keep_text=keep_text, limits=limits)
        except StreamError as exc:
            if report is None:
                raise
            report.add(index, str(exc), "parse_error")
            failed = exc
    if failed is not None:
        raise failed
