"""The output transducer ``OU`` (Sec. III.8) and result objects.

The network sink.  Its tasks, per the paper: identify and store result
candidates, evaluate their condition formulas, and output results *in
document order*, buffering a message only while its membership in the
result cannot yet be decided.

A **candidate** is created whenever an activation message precedes a
start tag: it spans that element (start tag to matching end tag) and
depends on the activation's condition formula.  Candidates nest (query
class 3, e.g. ``_*._``); their events are therefore kept in one shared
log referenced by global stream offsets, so total buffer memory is linear
in the buffered stream span, not multiplied by the nesting depth (a
design choice benchmarked by the E10 ablation).

Determination messages update the condition store; the store reports
which variables became determined, and only the candidates watching those
variables are re-evaluated.  The front of the candidate queue is flushed
as soon as it is decided: ``true`` and span complete -> emit a
:class:`Match`; ``false`` -> drop (anywhere in the queue, immediately).
This gives the progressive behaviour of the paper's Sec. III.10 example:
a candidate whose formula is already known ``true`` (a "past condition",
query class 4) is emitted the moment its end tag arrives, while "future
conditions" (class 2) buffer only until their variable resolves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..conditions.formula import (
    FALSE,
    TRUE,
    Formula,
    Var,
    formula_from_obj,
    formula_to_obj,
    substitute,
)
from ..conditions.store import ConditionStore
from ..errors import ResourceLimitError
from ..limits import DROP_OLDEST, ResourceLimits
from ..xmlstream.events import (
    DOCUMENT_LABEL,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
    event_from_obj,
    event_to_obj,
)
from .messages import Activation, Close, Contribute, Doc, Message
from .transducer import Transducer

#: shared empty output batch — the sink forwards nothing, and no caller
#: mutates a node's output list, so one constant serves every event
_EMPTY_BATCH: list[Message] = []


@dataclass(frozen=True, slots=True)
class Match:
    """One query result — a matched element, delivered in document order.

    Attributes:
        position: document-order ordinal of the element's start tag
            (1-based; 0 is the virtual document root ``$``, which queries
            with an epsilon component can select).
        label: the matched element's label (``$`` for the root).
        events: the matched fragment as a tuple of stream events (start
            tag through end tag, inclusive), or ``None`` when the engine
            runs in positions-only mode.
    """

    position: int
    label: str
    events: tuple[Event, ...] | None = None

    def to_xml(self) -> str:
        """Serialize the matched fragment to markup."""
        if self.events is None:
            raise ValueError("engine ran in positions-only mode; no events kept")
        from ..xmlstream.serializer import serialize

        return serialize(self.events)

    def text(self) -> str:
        """Concatenated character data of the matched fragment.

        The XPath ``string()`` value of the node, minus whitespace
        normalization.
        """
        if self.events is None:
            raise ValueError("engine ran in positions-only mode; no events kept")
        return "".join(
            event.content for event in self.events if isinstance(event, Text)
        )

    def size(self) -> int:
        """Number of element nodes in the matched fragment."""
        if self.events is None:
            raise ValueError("engine ran in positions-only mode; no events kept")
        return sum(
            1 for event in self.events if isinstance(event, StartElement)
        )

    def __reduce__(self) -> tuple:
        # one call per match through a shard's pipe, not the field-by-field
        # state a frozen slots dataclass pickles by default
        return Match, (self.position, self.label, self.events)


@dataclass(eq=False, slots=True)
class _Candidate:
    position: int
    label: str
    start_gidx: int
    formula: Formula
    end_gidx: int | None = None
    state: str = "pending"  # pending | ready | dropped

    @property
    def complete(self) -> bool:
        return self.end_gidx is not None


@dataclass
class OutputStats:
    """Memory/progressiveness accounting for experiments E5/E8.

    Attributes:
        candidates_created: total result candidates seen.
        candidates_dropped: candidates whose formula resolved false.
        candidates_evicted: candidates sacrificed by the
            ``drop_oldest`` overflow policy (each is a potential match
            lost to the buffer ceiling; see :class:`repro.limits.
            ResourceLimits`).
        peak_buffered_events: worst-case size of the shared event log —
            the paper's ``S_OU`` (linear in the stream only when
            undetermined candidates force buffering).
        peak_pending_candidates: worst-case queue length.
    """

    candidates_created: int = 0
    candidates_dropped: int = 0
    candidates_evicted: int = 0
    peak_buffered_events: int = 0
    peak_pending_candidates: int = 0


class OutputTransducer(Transducer):
    """``OU`` — candidate bookkeeping and ordered result emission."""

    kind = "OU"

    def __init__(
        self,
        store: ConditionStore,
        collect_events: bool = True,
        limits: ResourceLimits | None = None,
    ) -> None:
        super().__init__("OU")
        self._store = store
        self._limits = (
            limits
            if limits is not None
            and (
                limits.max_buffered_events is not None
                or limits.max_pending_candidates is not None
            )
            else None
        )
        # Determinations are broadcast by the store so every sink of a
        # multi-sink network reacts, no matter which sink's message
        # triggered the resolution; the retainer blocks variable release
        # while this sink's candidates still watch the variable.  A batch
        # of unwatched variables changes no candidate, so the flush it
        # triggers is a no-op — unless an eviction left a decided front
        # behind, which only the buffer limits do.
        store.subscribe(self._handle_determined, watched_only=self._limits is None)
        store.add_retainer(self._retains)
        self._collect_events = collect_events
        #: completed matches, drained by the engine after every event
        self.results: deque[Match] = deque()
        self.output_stats = OutputStats()
        self._gidx = -1  # global index of the current document event
        # Shared event log: a list (O(1) random access, so fragment
        # extraction costs O(span), not O(offset)), trimmed in chunks so
        # the amortized GC cost stays O(1) per event.
        self._log: list[Event] = []
        self._log_start = 0  # gidx of _log[0]
        self._queue: deque[_Candidate] = deque()
        self._live = 0  # queue entries not yet dropped
        self._watchers: dict[Var, set[_Candidate]] = {}
        self._open: list[_Candidate | None] = []
        self._element_count = 0

    @property
    def buffered_events(self) -> int:
        """Current size of the shared event log (live buffer pressure).

        The serving layer's load shedder aggregates this across all
        queries of a pass to decide when the high-water mark is crossed.
        """
        return len(self._log)

    def skip_to(self, position: int) -> None:
        """The next start tag is the one at ``position``.

        A fast-lane residual network (:mod:`repro.core.fastlane`) is fed
        only the elements its DFA head says it needs; positions are
        stream-global, so the start tags withheld since the last fed
        one must still advance the element counter before the next.
        """
        self._element_count = position - 1

    # ------------------------------------------------------------------
    # message handling

    # Entry points: every message is consumed (activations buffered,
    # condition messages applied to the store), so the shared empty
    # batch is the output of every event.

    def start(self, batch: list[Message]) -> list[Message]:
        stats = self.stats
        stats.messages += len(batch)
        if len(batch) > 1:
            for message in self._absorb(batch):
                self.on_condition(message)
        event = batch[-1].event  # type: ignore[attr-defined]
        self._gidx += 1
        self._element_count += 1
        candidate = None
        if self.pending is not None:
            formula, self.pending = self.pending, None
            candidate = self._create_candidate(
                self._element_count, event.label, formula
            )
        self._open.append(candidate)
        stack = self.stack
        stack.append(None)
        if len(stack) > stats.max_stack:
            stats.max_stack = len(stack)
        if self._collect_events:
            self._log_event(event)
        return _EMPTY_BATCH

    def end(self, batch: list[Message]) -> list[Message]:
        self.stats.messages += len(batch)
        if len(batch) > 1:
            for message in self._absorb(batch):
                self.on_condition(message)
        self._gidx += 1
        if self._collect_events:
            self._log_event(batch[-1].event)  # type: ignore[attr-defined]
        self.pop_entry()
        candidate = self._open.pop()
        if candidate is not None:
            candidate.end_gidx = self._gidx
        if self._queue:
            self._flush()
        return _EMPTY_BATCH

    def text(self, batch: list[Message]) -> list[Message]:
        # nothing emits at character data: the batch is the lone document message
        self.stats.messages += len(batch)
        self._gidx += 1
        if self._collect_events:
            self._log_event(batch[-1].event)  # type: ignore[attr-defined]
        return _EMPTY_BATCH

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)
        return []

    def on_start(self, message: Doc, event: StartDocument | StartElement) -> list[Message]:
        self._gidx += 1
        if isinstance(event, StartElement):
            self._element_count += 1
            position = self._element_count
            label = event.label
        else:
            position = 0
            label = DOCUMENT_LABEL
        formula = self.take_pending()
        candidate: _Candidate | None = None
        if formula is not None:
            candidate = self._create_candidate(position, label, formula)
        self._open.append(candidate)
        self.stack.append(None)  # depth bookkeeping for instrumentation
        self._log_event(event)
        return []

    def on_end(self, message: Doc, event: EndDocument | EndElement) -> list[Message]:
        self._gidx += 1
        self._log_event(event)
        self.pop_entry()
        candidate = self._open.pop()
        if candidate is not None:
            candidate.end_gidx = self._gidx
        self._flush()
        return []

    def on_text(self, message: Doc, event: Text) -> list[Message]:
        self._gidx += 1
        self._log_event(event)
        return []

    def on_condition(self, message: Contribute | Close) -> list[Message]:
        if message.__class__ is Contribute:
            self._store.contribute(message.var, message.evidence)  # type: ignore[union-attr]
        else:
            self._store.close(message.var)
            # Schedule release: once this event's batch has passed every
            # node, nothing can reference the closed variable any more.
            # Keeps the condition store bounded on unbounded streams.
            self._store.defer_release(message.var)
        return []

    def _handle_determined(self, determined: list[Var]) -> None:
        """Store listener: react to every global determination batch."""
        self._on_determined(determined)
        self._flush()

    def _retains(self, var: Var) -> bool:
        """Store retainer: candidates here still depend on the variable."""
        return var in self._watchers

    # ------------------------------------------------------------------
    # candidate lifecycle

    def _create_candidate(self, position: int, label: str, formula: Formula) -> _Candidate:
        # Variables already determined (past conditions) simplify away
        # right now, so class-4 candidates are born decided.
        formula = substitute(formula, self._store.value)
        candidate = _Candidate(
            position=position,
            label=label,
            start_gidx=self._gidx,
            formula=formula,
        )
        self.output_stats.candidates_created += 1
        if formula is TRUE:
            candidate.state = "ready"
        elif formula is FALSE:
            candidate.state = "dropped"
            self.output_stats.candidates_dropped += 1
        else:
            for var in formula.variables():
                self._watchers.setdefault(var, set()).add(candidate)
        if candidate.state != "dropped":
            self._queue.append(candidate)
            self._live += 1
            if (
                self._limits is not None
                and self._limits.max_pending_candidates is not None
                and self._live > self._limits.max_pending_candidates
            ):
                self._enforce_buffer_limits()
            if self._live > self.output_stats.peak_pending_candidates:
                self.output_stats.peak_pending_candidates = self._live
        return candidate

    def _on_determined(self, determined: list[Var]) -> None:
        """Re-evaluate exactly the candidates watching resolved variables."""
        touched: set[int] = set()
        for var in determined:
            for candidate in self._watchers.pop(var, ()):
                if candidate.state != "pending" or id(candidate) in touched:
                    continue
                touched.add(id(candidate))
                old_vars = candidate.formula.variables()
                candidate.formula = substitute(candidate.formula, self._store.value)
                if candidate.formula is TRUE:
                    candidate.state = "ready"
                    remaining: frozenset[Var] = frozenset()
                elif candidate.formula is FALSE:
                    candidate.state = "dropped"
                    self._live -= 1
                    self.output_stats.candidates_dropped += 1
                    remaining = frozenset()
                else:
                    remaining = candidate.formula.variables()
                for stale in old_vars - remaining:
                    watchers = self._watchers.get(stale)
                    if watchers is not None:
                        watchers.discard(candidate)
                        if not watchers:
                            del self._watchers[stale]

    def _flush(self) -> None:
        """Emit/drop the decided prefix of the queue, then trim the log."""
        while self._queue:
            front = self._queue[0]
            if front.state == "dropped":
                self._queue.popleft()
                continue
            if front.state == "ready" and front.complete:
                self._queue.popleft()
                self._live -= 1
                self.results.append(self._to_match(front))
                continue
            break
        self._trim_log()

    def _to_match(self, candidate: _Candidate) -> Match:
        if not self._collect_events:
            return Match(candidate.position, candidate.label, None)
        assert candidate.end_gidx is not None  # only complete ones are emitted
        lo = candidate.start_gidx - self._log_start
        hi = candidate.end_gidx - self._log_start + 1
        events = tuple(self._log[lo:hi])
        return Match(candidate.position, candidate.label, events)

    # ------------------------------------------------------------------
    # shared event log

    def _log_event(self, event: Event) -> None:
        if not self._collect_events:
            return
        if not self._queue:
            # No live candidate can ever need this event: skip it and
            # keep the log aligned with the next global index.
            self._log_start = self._gidx + 1
            self._log.clear()
            return
        self._log.append(event)
        if (
            self._limits is not None
            and self._limits.max_buffered_events is not None
            and len(self._log) > self._limits.max_buffered_events
        ):
            self._enforce_buffer_limits()
        if len(self._log) > self.output_stats.peak_buffered_events:
            self.output_stats.peak_buffered_events = len(self._log)

    # ------------------------------------------------------------------
    # resource guards

    def _enforce_buffer_limits(self) -> None:
        """React to a buffer ceiling: raise, or evict oldest candidates.

        Under ``drop_oldest`` the oldest undecided candidate is
        sacrificed (a potential match lost, counted in
        ``candidates_evicted``) and the log prefix only it needed is
        reclaimed, until both buffers are back under their ceilings.
        """
        limits = self._limits
        assert limits is not None  # called only under a buffer ceiling
        if limits.on_buffer_overflow != DROP_OLDEST:
            if (
                limits.max_buffered_events is not None
                and len(self._log) > limits.max_buffered_events
            ):
                raise ResourceLimitError(
                    f"buffered events {len(self._log)} exceed limit "
                    f"{limits.max_buffered_events}",
                    limit="max_buffered_events",
                    observed=len(self._log),
                )
            raise ResourceLimitError(
                f"pending candidates {self._live} exceed limit "
                f"{limits.max_pending_candidates}",
                limit="max_pending_candidates",
                observed=self._live,
            )
        while True:
            over_events = (
                limits.max_buffered_events is not None
                and len(self._log) > limits.max_buffered_events
            )
            over_candidates = (
                limits.max_pending_candidates is not None
                and self._live > limits.max_pending_candidates
            )
            if not (over_events or over_candidates):
                return
            if not self._evict_oldest():
                return

    def _evict_oldest(self) -> bool:
        """Drop the oldest live candidate; ``False`` when none remain."""
        evicted = False
        while self._queue:
            candidate = self._queue.popleft()
            if candidate.state == "dropped":
                continue  # regular drop, already accounted
            candidate.state = "dropped"
            self._live -= 1
            self.output_stats.candidates_evicted += 1
            for var in candidate.formula.variables():
                watchers = self._watchers.get(var)
                if watchers is not None:
                    watchers.discard(candidate)
                    if not watchers:
                        del self._watchers[var]
            evicted = True
            break
        self._resync_log()
        return evicted

    def _resync_log(self) -> None:
        """Reclaim the log prefix no surviving candidate references."""
        if not self._collect_events:
            return
        while self._queue and self._queue[0].state == "dropped":
            self._queue.popleft()
        if not self._queue:
            self._log.clear()
            self._log_start = self._gidx + 1
            return
        dead = self._queue[0].start_gidx - self._log_start
        if dead > 0:
            del self._log[:dead]
            self._log_start += dead

    # ------------------------------------------------------------------
    # checkpointing

    def _snapshot_extra(self) -> dict:
        """Capture candidate/log/result state (see base ``snapshot``).

        The watcher index is derivable from the pending candidates'
        formulas and is rebuilt on restore.  ``_open`` entries reference
        candidate *objects*; shared identity with the queue is preserved
        by encoding queue members as their index and already-dropped
        strays (popped from the queue but their end tag still pending)
        inline.
        """
        queue = list(self._queue)
        index_of = {id(candidate): i for i, candidate in enumerate(queue)}

        def encode_open(candidate: _Candidate | None) -> object:
            if candidate is None:
                return None
            index = index_of.get(id(candidate))
            if index is not None:
                return ["q", index]
            return ["c", self._encode_candidate(candidate)]

        stats = self.output_stats
        return {
            "gidx": self._gidx,
            "element_count": self._element_count,
            "log_start": self._log_start,
            "log": [event_to_obj(event) for event in self._log],
            "queue": [self._encode_candidate(c) for c in queue],
            "open": [encode_open(c) for c in self._open],
            "results": [self._encode_match(m) for m in self.results],
            "output_stats": [
                stats.candidates_created,
                stats.candidates_dropped,
                stats.candidates_evicted,
                stats.peak_buffered_events,
                stats.peak_pending_candidates,
            ],
        }

    def _restore_extra(self, extra: dict) -> None:
        self._gidx = int(extra["gidx"])
        self._element_count = int(extra["element_count"])
        self._log_start = int(extra["log_start"])
        self._log = [event_from_obj(obj) for obj in extra["log"]]
        queue = [self._decode_candidate(obj) for obj in extra["queue"]]
        self._queue = deque(queue)
        self._live = sum(1 for c in queue if c.state != "dropped")

        def decode_open(obj: list | None) -> _Candidate | None:
            if obj is None:
                return None
            tag, payload = obj
            if tag == "q":
                return queue[int(payload)]
            return self._decode_candidate(payload)

        self._open = [decode_open(obj) for obj in extra["open"]]
        self._watchers = {}
        for candidate in queue:
            if candidate.state != "pending":
                continue
            for var in candidate.formula.variables():
                self._watchers.setdefault(var, set()).add(candidate)
        self.results = deque(self._decode_match(obj) for obj in extra["results"])
        created, dropped, evicted, peak_events, peak_candidates = extra[
            "output_stats"
        ]
        self.output_stats = OutputStats(
            candidates_created=created,
            candidates_dropped=dropped,
            candidates_evicted=evicted,
            peak_buffered_events=peak_events,
            peak_pending_candidates=peak_candidates,
        )

    @staticmethod
    def _encode_candidate(candidate: _Candidate) -> list:
        return [
            candidate.position,
            candidate.label,
            candidate.start_gidx,
            formula_to_obj(candidate.formula),
            candidate.end_gidx,
            candidate.state,
        ]

    @staticmethod
    def _decode_candidate(obj: list) -> _Candidate:
        position, label, start_gidx, formula, end_gidx, state = obj
        return _Candidate(
            position=int(position),
            label=label,
            start_gidx=int(start_gidx),
            formula=formula_from_obj(formula),
            end_gidx=None if end_gidx is None else int(end_gidx),
            state=state,
        )

    @staticmethod
    def _encode_match(match: Match) -> list:
        events = (
            None
            if match.events is None
            else [event_to_obj(event) for event in match.events]
        )
        return [match.position, match.label, events]

    @staticmethod
    def _decode_match(obj: list) -> Match:
        position, label, events = obj
        return Match(
            int(position),
            label,
            None
            if events is None
            else tuple(event_from_obj(entry) for entry in events),
        )

    def _trim_log(self) -> None:
        if not self._collect_events or not self._log:
            return
        if not self._queue:
            self._log.clear()
            self._log_start = self._gidx + 1
            return
        # The queue is ordered by start offset (creation order == document
        # order), and _flush just removed every decided front entry, so
        # the front's start is the earliest offset anyone can still need.
        # Trim in chunks: a prefix deletion is O(len), so only trim when
        # the dead prefix is a sizeable fraction — amortized O(1)/event.
        dead = self._queue[0].start_gidx - self._log_start
        if dead > 256 and dead * 2 > len(self._log):
            del self._log[:dead]
            self._log_start += dead
