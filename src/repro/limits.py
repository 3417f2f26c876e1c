"""Resource guards for evaluation over untrusted streams.

The paper's complexity results (Theorems VI.1/VI.2) make SPEX's resource
profile *predictable*: memory is bounded by stream depth ``d`` times
formula size ``σ`` plus whatever the output transducer must buffer.  On a
shared service those same quantities are attack surface — a
billion-laughs-style depth bomb inflates every per-transducer stack, a
qualifier-heavy query over adversarial input inflates σ, and a stream
that never determines its conditions forces the output transducer to
buffer without end.  :class:`ResourceLimits` turns each predictable
quantity into an enforceable ceiling.

Enforcement points:

* :func:`stream_guard` — ``max_depth``, ``max_events_per_document`` and
  ``max_seconds_per_document`` are properties of the stream, not of a
  query: they are checked once per event against the pass's
  :class:`~repro.xmlstream.offsets.StreamCursor`, before any query sees
  the event, so a limit-armed pass keeps every query on its planned
  execution lane;
* :meth:`repro.core.network.Network.process_event` —
  ``max_formula_size``, the σ of the network's own condition formulas
  (the fast lanes build none);
* :class:`repro.core.output_tx.OutputTransducer` —
  ``max_buffered_events`` and ``max_pending_candidates``, either raising
  :class:`~repro.errors.ResourceLimitError` or, under the
  ``"drop_oldest"`` overflow policy, evicting the oldest undecided
  candidate so the run degrades (loses the oldest potential match)
  instead of dying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import ResourceLimitError

if TYPE_CHECKING:
    from .core.clock import Clock
    from .xmlstream.events import Event
    from .xmlstream.offsets import StreamCursor


#: Overflow policies for the output transducer's buffers.
RAISE = "raise"
DROP_OLDEST = "drop_oldest"


@dataclass(frozen=True)
class ResourceLimits:
    """Ceilings on every unbounded resource of a streaming run.

    All limits default to ``None`` (unlimited), so ``ResourceLimits()``
    is a no-op and the hot path pays nothing unless a bound is set.

    Attributes:
        max_depth: maximum open-element nesting depth of the stream
            (``d`` in the paper's analysis); guards every per-transducer
            stack at once.
        max_formula_size: maximum condition-formula size (the paper's σ)
            observed by any transducer.
        max_buffered_events: ceiling on the output transducer's shared
            event log (the paper's ``S_OU``).
        max_pending_candidates: ceiling on undecided result candidates.
        max_events_per_document: per-document event budget; reset at
            every ``<$>``.
        max_seconds_per_document: per-document wall-clock budget; reset
            at every ``<$>``, and started afresh at the first event of a
            document resumed from a checkpoint.
        on_buffer_overflow: ``"raise"`` (default) aborts the run with
            :class:`~repro.errors.ResourceLimitError`; ``"drop_oldest"``
            evicts the oldest pending candidate (and the log prefix only
            it needed), trading the oldest potential match for bounded
            memory.
    """

    max_depth: int | None = None
    max_formula_size: int | None = None
    max_buffered_events: int | None = None
    max_pending_candidates: int | None = None
    max_events_per_document: int | None = None
    max_seconds_per_document: float | None = None
    on_buffer_overflow: str = RAISE

    def __post_init__(self) -> None:
        for name in (
            "max_depth",
            "max_formula_size",
            "max_buffered_events",
            "max_pending_candidates",
            "max_events_per_document",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if (
            self.max_seconds_per_document is not None
            and self.max_seconds_per_document <= 0
        ):
            raise ValueError("max_seconds_per_document must be positive")
        if self.on_buffer_overflow not in (RAISE, DROP_OLDEST):
            raise ValueError(
                f"on_buffer_overflow must be {RAISE!r} or {DROP_OLDEST!r}, "
                f"got {self.on_buffer_overflow!r}"
            )


def stream_guard(
    limits: ResourceLimits | None, cursor: "StreamCursor", clock: "Clock"
) -> Callable[["Event"], None] | None:
    """The per-event check of the stream limits — ``None`` when
    ``limits`` sets none of them — for events ``cursor`` has counted.

    It raises :class:`~repro.errors.ResourceLimitError` on the first
    event over a bound, before anything evaluates it, so nothing holds
    more than ``max_depth`` open elements (``$`` counting as one, as in
    the paper's ``d``).  The wall-clock budget is armed at every ``<$>``
    and, in a document resumed mid-way, at its first event after the
    cut: time spent before a crash is gone, not charged.
    """
    from .xmlstream.events import StartDocument, StartElement  # a cycle at import

    if limits is None:
        return None
    max_depth = limits.max_depth
    max_events = limits.max_events_per_document
    budget = limits.max_seconds_per_document
    if max_depth is None and max_events is None and budget is None:
        return None
    now = clock.monotonic
    deadline: float | None = None

    def check(event: "Event") -> None:
        nonlocal deadline
        if max_events is not None:
            seen = cursor.events_read - cursor.document_start
            if seen > max_events:
                raise ResourceLimitError(
                    f"document exceeded {max_events} events",
                    limit="max_events_per_document",
                    observed=seen,
                )
        if (
            max_depth is not None
            and event.__class__ is StartElement
            and len(cursor.open_labels) >= max_depth
        ):
            depth = len(cursor.open_labels) + 1
            raise ResourceLimitError(
                f"stream depth {depth} exceeds limit {max_depth}",
                limit="max_depth",
                observed=depth,
            )
        if budget is not None:
            if deadline is None or event.__class__ is StartDocument:
                deadline = now() + budget
            elif now() > deadline:
                raise ResourceLimitError(
                    f"document exceeded {budget}s wall clock",
                    limit="max_seconds_per_document",
                    observed=budget,
                )

    return check
