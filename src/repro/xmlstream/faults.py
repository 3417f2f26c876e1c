"""Seeded fault injection for robustness testing.

The recovery layer (:mod:`repro.xmlstream.recovery`) and the resource
guards (:mod:`repro.limits`) claim that no corrupted stream can hang the
engine, crash it with anything but the documented errors, or silently
change results on clean documents.  :class:`FaultInjector` manufactures
the corrupted streams those claims are tested against: every corruption
is seeded and therefore reproducible from its ``(seed, kind)`` pair, so
a failing soak trial can be replayed exactly.

All injectors are pure — they take an event list and return a new one,
annotated with a :class:`Fault` describing what was done where.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..core.clock import Clock, as_clock
from .events import EndDocument, EndElement, Event, StartElement, Text

#: Every corruption kind :meth:`FaultInjector.corrupt` can pick from.
FAULT_KINDS = (
    "truncate",
    "drop_tag",
    "duplicate_tag",
    "swap_tags",
    "interleave_garbage",
    "flip_label",
)

#: Runtime (transport-level) fault kinds.  Unlike :data:`FAULT_KINDS`
#: these do not corrupt event *content* — they break the *delivery*:
#: the stream raises, hangs, or crawls mid-flight, which is what the
#: supervisor (:mod:`repro.core.supervisor`) and the serving deadlines
#: (:mod:`repro.core.serving`) exist to survive.
RUNTIME_FAULT_KINDS = ("transient_error", "stall", "slow_source")

#: Adversarial *payload* fault kinds: well-formed but hostile input
#: (amplification bombs) that only the parser hardening
#: (:class:`~repro.xmlstream.parser.ParserLimits`) defends against.
ADVERSARIAL_FAULT_KINDS = ("entity_bomb",)


@dataclass(frozen=True)
class Fault:
    """Provenance of one injected corruption.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        index: event offset at which the corruption was applied.
        detail: human-readable description (for soak-failure replay).
    """

    kind: str
    index: int
    detail: str


class FaultInjector:
    """Deterministic stream corrupter.

    Args:
        seed: seeds the private :class:`random.Random`; two injectors
            with the same seed apply identical corruptions.
        labels: label pool for garbage tags and label flips.
        clock: time source for the latency faults (``stall``,
            ``slow_source``); tests pass a
            :class:`~repro.core.clock.FakeClock` so injected latency is
            simulated, not slept.
    """

    def __init__(
        self,
        seed: int = 0,
        labels: Sequence[str] = ("a", "b", "c", "zz"),
        clock: Clock | None = None,
    ) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.labels = tuple(labels)
        self.clock = as_clock(clock)

    def for_shard(self, index: int) -> "FaultInjector":
        """Fresh injector with a seed derived for worker ``index``.

        Multi-process chaos soaks must not hand every shard worker the
        same RNG: forked workers would replay identical corruption
        schedules, and spawned workers would share no schedule at all
        (each pickled copy re-rolls from its own position).  Deriving
        ``seed * P + index`` (``P`` prime, far above any shard count)
        gives every worker its own stream that is a pure function of
        ``(seed, index)`` — reproducible regardless of start method,
        fork timing, or how many faults other shards drew.
        """
        if index < 0:
            raise ValueError(f"shard index must be non-negative, got {index}")
        return FaultInjector(
            seed=self.seed * 1_000_003 + index,
            labels=self.labels,
            clock=self.clock,
        )

    # ------------------------------------------------------------------
    # individual faults

    def truncate(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Cut the stream mid-document (a dropped connection)."""
        stream = list(events)
        if len(stream) < 2:
            return stream, Fault("truncate", len(stream), "stream too short to cut")
        cut = self.rng.randrange(1, len(stream))
        return stream[:cut], Fault("truncate", cut, f"cut after {cut} of {len(stream)} events")

    def drop_tag(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Delete one structural event (lost packet)."""
        stream = list(events)
        index = self._pick_structural(stream)
        if index is None:
            return self.truncate(stream)
        dropped = stream[index]
        return (
            stream[:index] + stream[index + 1 :],
            Fault("drop_tag", index, f"dropped {dropped} at {index}"),
        )

    def duplicate_tag(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Replay one structural event (retransmission bug)."""
        stream = list(events)
        index = self._pick_structural(stream)
        if index is None:
            return self.truncate(stream)
        duplicated = stream[index]
        return (
            stream[: index + 1] + [duplicated] + stream[index + 1 :],
            Fault("duplicate_tag", index, f"duplicated {duplicated} at {index}"),
        )

    def swap_tags(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Swap two adjacent events (reordered delivery)."""
        stream = list(events)
        if len(stream) < 2:
            return self.truncate(stream)
        index = self.rng.randrange(0, len(stream) - 1)
        stream[index], stream[index + 1] = stream[index + 1], stream[index]
        return stream, Fault(
            "swap_tags", index, f"swapped events {index} and {index + 1}"
        )

    def interleave_garbage(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Insert orphan tags or stray text (cross-talk on the wire)."""
        stream = list(events)
        index = self.rng.randrange(0, len(stream) + 1)
        label = self.rng.choice(self.labels)
        garbage: list[Event] = self.rng.choice(
            [
                [EndElement(label)],
                [StartElement(label)],
                [Text("\x00garbage\x00")],
                [EndDocument()],
                [StartElement(label), EndElement(label), EndElement(label)],
            ]
        )
        return (
            stream[:index] + garbage + stream[index:],
            Fault(
                "interleave_garbage",
                index,
                f"inserted {[str(g) for g in garbage]} at {index}",
            ),
        )

    def flip_label(self, events: Iterable[Event]) -> tuple[list[Event], Fault]:
        """Rename one tag (bit-flip / encoding corruption)."""
        stream = list(events)
        index = self._pick_structural(stream)
        if index is None:
            return self.truncate(stream)
        event = stream[index]
        assert isinstance(event, (StartElement, EndElement))
        others = [x for x in self.labels if x != event.label] or [event.label + "x"]
        new_label = self.rng.choice(others)
        flipped: Event = (
            StartElement(new_label, event.attributes)
            if isinstance(event, StartElement)
            else EndElement(new_label)
        )
        stream[index] = flipped
        return stream, Fault(
            "flip_label", index, f"{event} -> {flipped} at {index}"
        )

    # ------------------------------------------------------------------
    # runtime faults (delivery breaks, not content corruption)

    def transient_error(
        self, events: Iterable[Event], fail_after: int | None = None
    ) -> tuple[Iterator[Event], Fault]:
        """Stream that raises :class:`IOError` after ``fail_after`` events.

        Models a dropped connection at the transport layer: the events
        delivered before the break are perfectly well-formed, then the
        iterator raises mid-document.  ``fail_after`` defaults to a
        seeded mid-stream position.
        """
        stream = list(events)
        k = (
            fail_after
            if fail_after is not None
            else self.rng.randrange(1, max(2, len(stream)))
        )
        fault = Fault("transient_error", k, f"IOError after {k} events")

        def generate() -> Iterator[Event]:
            for index, event in enumerate(stream):
                if index == k:
                    raise IOError(f"injected transient error after {k} events")
                yield event
            if k >= len(stream):
                raise IOError(f"injected transient error after {len(stream)} events")

        return generate(), fault

    def stall(
        self,
        events: Iterable[Event],
        stall_after: int | None = None,
        stall_seconds: float = 3600.0,
    ) -> tuple[Iterator[Event], Fault]:
        """Stream that hangs after ``stall_after`` events.

        Models a silent peer: no error, no data — the iterator just
        stops returning for ``stall_seconds`` (effectively forever at the
        default), which only a heartbeat watchdog can detect.
        """
        stream = list(events)
        k = (
            stall_after
            if stall_after is not None
            else self.rng.randrange(1, max(2, len(stream)))
        )
        fault = Fault("stall", k, f"hang {stall_seconds}s after {k} events")
        clock = self.clock

        def generate() -> Iterator[Event]:
            for index, event in enumerate(stream):
                if index == k:
                    clock.sleep(stall_seconds)
                yield event

        return generate(), fault

    def slow_source(
        self,
        events: Iterable[Event],
        delay: float = 0.1,
        every: int = 1,
    ) -> tuple[Iterator[Event], Fault]:
        """Stream that crawls: ``delay`` seconds before every ``every``-th
        event.

        Models a congested or throttled peer.  Unlike :meth:`stall` the
        stream keeps making progress, so only a *deadline*
        (:class:`~repro.core.serving.ServingPolicy`) — not a heartbeat
        watchdog — bounds the damage.  Latency is charged to the
        injector's clock, so with a shared
        :class:`~repro.core.clock.FakeClock` the serving deadlines see
        the simulated time without any real sleeping.
        """
        if every < 1:
            raise ValueError("every must be positive")
        stream = list(events)
        fault = Fault(
            "slow_source", 0, f"{delay}s delay every {every} event(s)"
        )
        clock = self.clock

        def generate() -> Iterator[Event]:
            for index, event in enumerate(stream):
                if index % every == 0:
                    clock.sleep(delay)
                yield event

        return generate(), fault

    # ------------------------------------------------------------------
    # adversarial payloads (hostile but well-formed input)

    def entity_bomb(
        self,
        depth: int = 8,
        fanout: int = 10,
        label: str = "bomb",
    ) -> tuple[str, Fault]:
        """Raw billion-laughs document: ``fanout**depth`` amplification.

        Returns XML *text* (entity expansion happens at the parser, so
        the bomb cannot be expressed as an event list).  The top entity
        expands to ``3 * fanout**depth`` characters from a few hundred
        bytes of input — feed it through
        :func:`~repro.xmlstream.parser.parse_stream` with
        :class:`~repro.xmlstream.parser.ParserLimits` armed and the
        declaration-time guard rejects it before any expansion.
        """
        if depth < 1 or fanout < 1:
            raise ValueError("depth and fanout must be positive")
        lines = ["<?xml version=\"1.0\"?>", f"<!DOCTYPE {label} ["]
        lines.append("<!ENTITY e0 \"lol\">")
        for level in range(1, depth + 1):
            refs = f"&e{level - 1};" * fanout
            lines.append(f"<!ENTITY e{level} \"{refs}\">")
        lines.append("]>")
        lines.append(f"<{label}>&e{depth};</{label}>")
        text = "\n".join(lines)
        fault = Fault(
            "entity_bomb",
            0,
            f"{len(text)} input bytes expanding to ~{3 * fanout ** depth} "
            f"characters ({fanout}^{depth} amplification)",
        )
        return text, fault

    # ------------------------------------------------------------------
    # driver

    def corrupt(
        self, events: Iterable[Event], kind: str | None = None
    ) -> tuple[list[Event], Fault]:
        """Apply one corruption, randomly chosen unless ``kind`` is given.

        Note that a corruption does not always break well-formedness
        (dropping a :class:`Text` event, or swapping two independent
        events, leaves a valid stream) — soak tests must branch on
        :func:`~repro.xmlstream.validate.is_well_formed` rather than
        assume every corrupted stream is rejected.
        """
        kind = kind if kind is not None else self.rng.choice(FAULT_KINDS)
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r} (expected one of {FAULT_KINDS})")
        return getattr(self, kind)(events)

    def corrupt_document(
        self,
        documents: Sequence[Sequence[Event]],
        victim: int,
        kind: str | None = None,
    ) -> tuple[list[Event], Fault]:
        """Corrupt one document of a multi-document stream.

        Returns the concatenated stream with only ``documents[victim]``
        corrupted — the canonical SDI robustness scenario: one bad
        subscriber document inside an otherwise healthy feed.
        """
        corrupted, fault = self.corrupt(list(documents[victim]), kind)
        stream: list[Event] = []
        for i, document in enumerate(documents):
            stream.extend(corrupted if i == victim else document)
        return stream, fault

    # ------------------------------------------------------------------
    # helpers

    def _pick_structural(self, stream: list[Event]) -> int | None:
        """Index of a random element tag (not envelope, not text)."""
        candidates = [
            i
            for i, event in enumerate(stream)
            if isinstance(event, (StartElement, EndElement))
        ]
        if not candidates:
            return None
        return self.rng.choice(candidates)


class FlakySource:
    """Reconnectable event source with a scripted failure schedule.

    The supervisor's contract is "survive transient source failures";
    this is the deterministic source those tests run against.  Each
    :meth:`connect` returns a fresh replay of the same event sequence —
    the reconnect semantics :meth:`SpexEngine.resume
    <repro.core.engine.SpexEngine.resume>` requires — and connection
    ``i`` follows ``script[i]``:

    * ``None`` — clean replay;
    * ``("error", k)`` — raise :class:`IOError` after ``k`` events;
    * ``("stall", k)`` — hang (sleep ``stall_seconds``) after ``k``
      events, then continue.

    Connections beyond the end of the script are clean, so a finite
    script models "flaky for a while, then healthy".  The instance is
    callable, so it can be passed directly as a supervisor
    ``source_factory``.
    """

    def __init__(
        self,
        events: Iterable[Event],
        script: Sequence[tuple[str, int] | None] = (),
        stall_seconds: float = 3600.0,
        clock: Clock | None = None,
    ) -> None:
        self.events = list(events)
        self.script = list(script)
        self.stall_seconds = stall_seconds
        self.clock = as_clock(clock)
        #: number of connections opened so far
        self.connects = 0

    def connect(self) -> Iterator[Event]:
        """Open a fresh replay, applying this connection's script entry."""
        index = self.connects
        self.connects += 1
        entry = self.script[index] if index < len(self.script) else None
        return self._replay(entry, index)

    def __call__(self) -> Iterator[Event]:
        return self.connect()

    def _replay(
        self, entry: tuple[str, int] | None, connection: int
    ) -> Iterator[Event]:
        if entry is None:
            yield from self.events
            return
        mode, k = entry
        if mode not in ("error", "stall"):
            raise ValueError(f"unknown flaky-source mode {mode!r}")
        for index, event in enumerate(self.events):
            if index == k:
                if mode == "error":
                    raise IOError(
                        f"injected transient error on connection {connection} "
                        f"after {k} events"
                    )
                self.clock.sleep(self.stall_seconds)
            yield event
        if mode == "error" and k >= len(self.events):
            raise IOError(
                f"injected transient error on connection {connection} "
                f"after {len(self.events)} events"
            )
