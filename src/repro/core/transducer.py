"""Transducer base class and shared machinery.

Every SPEX transducer consumes a list of messages (everything its
predecessor produced for the current stream event) and produces the list
it passes on.  The paper's input transducer guarantees only one document
message is in the network at a time; our network exploits that by
evaluating the DAG in topological order once per stream event (see
:mod:`repro.core.network`), which makes each transducer a simple
``list -> list`` function with internal state.

The paper's two per-transducer pushdown stores — the *depth stack* and
the *condition stack* — are fused here into one stack with one entry per
open element.  Theorem IV.2 licenses exactly this fusion ("both stacks
can be simulated by one stack, where an entry is ... composed of two
entries"), which is also what keeps these transducers within the 1-DPDT
class.  Entries are whatever the subclass needs (a scope formula for
child/closure, a condition variable for the variable-creator); the base
class only manages the pushes/pops and the instrumentation.

Dispatch is written against ``message.__class__`` rather than
``isinstance`` — this module is the innermost loop of the engine, and
the message/event class hierarchies are closed by design.

A transition is written at most twice.  The ``on_*`` hooks are the
paper's semantics and what the reference driver runs
(``Network.process_event`` through :meth:`Transducer.feed`).  The
*entry points* ``start`` / ``end`` / ``text`` are production: the
generated per-event-class passes of :mod:`repro.core.network` call them
with the whole batch of a ``StartElement`` / ``EndElement`` / ``Text``
event, so the event class is resolved once per event, outside the
per-node code.  ``tests/core/test_transducer_properties.py`` holds the
two equal on every legal batch shape.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

from ..conditions.formula import Formula, disj, formula_from_obj, formula_to_obj
from ..errors import EngineError
from ..xmlstream.events import (
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    Text,
)
from .messages import Activation, Close, Contribute, Doc, Message


#: Entry-point declaration: the transition forwards the batch untouched
#: and changes no state, so a generated pass drops the node by aliasing
#: its output slot to its input slot.
FORWARDS = "forwards"
#: Entry-point declaration (end tags): pop the element's stack entry,
#: forward the batch untouched — inlined into the generated end pass.
POPS = "pops"


@dataclass(slots=True)
class TransducerStats:
    """Instrumentation counters, fed into the complexity experiments.

    Attributes:
        messages: total messages processed (a production pass does
            not count the visits it skips: ``FORWARDS`` / ``POPS``
            entry points).
        max_stack: peak stack height (bounded by stream depth + 1;
            asserted by property tests).
        max_formula_size: largest condition formula observed in an
            activation (the paper's σ).
        activations_emitted: number of activation messages produced.
    """

    messages: int = 0
    max_stack: int = 0
    max_formula_size: int = 0
    activations_emitted: int = 0


class Transducer:
    """Base class: forwards everything, manages a per-element stack.

    Subclasses override the ``on_*`` hooks.  The default behaviour of
    each hook is the paper's implicit transition: "forward document
    messages along the SPEX network without processing them, in case no
    other transition applies".
    """

    #: short name used in network diagrams and traces
    kind = "id"

    #: Production entry points, one per event class: a method
    #: ``(batch) -> list`` taking any batch that ends in the document
    #: message, :data:`FORWARDS`, :data:`POPS`, or ``None`` — no entry
    #: point, the pass drives the hooks through :meth:`feed`.
    start = end = text = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Entry points restate the hooks of the exact class that defined
        # both.  A subclass overriding a hook without bringing its own
        # entry points would be silently bypassed by the inherited ones:
        # drive it through the hooks in every pass.
        if not {"start", "end", "text"} & cls.__dict__.keys() and any(
            hook in cls.__dict__
            for hook in (
                "on_start",
                "on_end",
                "on_text",
                "on_activation",
                "on_condition",
            )
        ):
            cls.start = cls.end = cls.text = None

    def __init__(self, name: str | None = None) -> None:
        self.name = name or self.kind
        #: one entry per open element; payload meaning is subclass-defined
        self.stack: list = []
        self.pending: Formula | None = None
        self.stats = TransducerStats()

    # ------------------------------------------------------------------
    # message dispatch

    def feed(self, messages: list[Message]) -> list[Message]:
        """Process the batch of messages for the current stream event.

        The overwhelmingly common batch is a single document message that
        passes through unchanged (hooks signal that by returning
        ``None``), so that case is a dedicated branch which returns the
        *input list object* — zero allocations on the steady-state path.
        """
        stats = self.stats
        if len(messages) == 1:
            message = messages[0]
            if message.__class__ is Doc:
                stats.messages += 1
                event = message.event
                ecls = event.__class__
                if ecls is StartElement or ecls is StartDocument:
                    produced = self.on_start(message, event)
                    depth = len(self.stack)
                    if depth > stats.max_stack:
                        stats.max_stack = depth
                elif ecls is EndElement or ecls is EndDocument:
                    produced = self.on_end(message, event)
                else:
                    produced = self.on_text(message, event)
                if produced is None:
                    return messages
                for emitted in produced:
                    if emitted.__class__ is Activation:
                        stats.activations_emitted += 1
                return produced
        return self._feed_slow(messages)

    def _feed_slow(self, messages: Iterable[Message]) -> list[Message]:
        """General dispatch over a mixed batch (the non-fast path)."""
        out: list[Message] = []
        stats = self.stats
        for message in messages:
            stats.messages += 1
            cls = message.__class__
            if cls is Doc:
                event = message.event
                ecls = event.__class__
                if ecls is StartElement or ecls is StartDocument:
                    produced = self.on_start(message, event)
                    depth = len(self.stack)
                    if depth > stats.max_stack:
                        stats.max_stack = depth
                elif ecls is EndElement or ecls is EndDocument:
                    produced = self.on_end(message, event)
                else:
                    produced = self.on_text(message, event)
            elif cls is Activation:
                size = message.formula.size
                if size > stats.max_formula_size:
                    stats.max_formula_size = size
                produced = self.on_activation(message)
            elif cls is Contribute or cls is Close:
                produced = self.on_condition(message)
            else:  # pragma: no cover - exhaustive over message types
                raise EngineError(f"unknown message {message!r}")
            if produced is None:
                out.append(message)
            else:
                out.extend(produced)
        for message in out:
            if message.__class__ is Activation:
                stats.activations_emitted += 1
        return out

    # ------------------------------------------------------------------
    # hooks (defaults: forward unchanged)
    #
    # A hook may return ``None`` instead of ``[message]`` to mean
    # "forward the consumed message unchanged" — feed() then reuses the
    # input list instead of allocating a fresh single-element one.

    def on_activation(self, message: Activation) -> list[Message] | None:
        """Default: forward the activation unchanged (stateless pass)."""
        return None

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        return None

    def on_text(self, message: Doc, event: Text) -> list[Message] | None:
        return None

    def on_condition(self, message: Contribute | Close) -> list[Message] | None:
        return None

    # ------------------------------------------------------------------
    # shared state helpers

    def absorb_activation(self, formula: Formula) -> None:
        """Accumulate an activation formula for the next start tag.

        Multiple activations before one tag (possible after a join)
        merge by disjunction — the normalization the paper delegates to
        the union transducer.
        """
        if self.pending is None:
            self.pending = formula
        else:
            self.pending = disj(self.pending, formula)

    def take_pending(self) -> Formula | None:
        """Consume the buffered activation formula, if any."""
        formula, self.pending = self.pending, None
        return formula

    def pop_entry(self) -> Any:
        """Pop the entry of the element that just closed."""
        if not self.stack:
            raise EngineError(f"{self.name}: end tag with empty stack")
        return self.stack.pop()

    # ------------------------------------------------------------------
    # entry-point helpers

    def _absorb(self, batch: list[Message]) -> list[Message]:
        """Absorb the activations in front of ``batch``'s document message.

        Returns the other messages in front of it — condition messages,
        which every absorbing transducer forwards — as a fresh list the
        caller may extend into its output batch.
        """
        stats = self.stats
        head: list[Message] = []
        for message in batch:
            cls = message.__class__
            if cls is Activation:
                formula = message.formula
                if formula.size > stats.max_formula_size:
                    stats.max_formula_size = formula.size
                self.absorb_activation(formula)
            elif cls is not Doc:
                head.append(message)
        return head

    def _emit(
        self, head: list[Message] | None, emit: Formula | None, message: Doc
    ) -> list[Message]:
        """Output batch of a start transition that did not just forward:
        the forwarded ``head``, ``[emit]`` if any, the document message."""
        out = [] if head is None else head
        if emit is not None:
            self.stats.activations_emitted += 1
            out.append(Activation(emit))
        out.append(message)
        return out

    def _start_stateless(self, batch: list[Message]) -> list[Message]:
        """``start`` of a transducer with no ``on_start``: the lone document
        message is forwarded; activations in front of it are rare enough
        (one per match of the qualifier path) for the generic dispatch."""
        if len(batch) == 1:
            self.stats.messages += 1
            return batch
        return self._feed_slow(batch)

    # ------------------------------------------------------------------
    # checkpointing

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of this transducer's state.

        The base capture — stack, pending activation, instrumentation —
        covers every transducer whose stack entries are condition
        formulas (or ``None``); subclasses with extra state extend the
        dict through :meth:`_snapshot_extra`.
        """
        state = {
            "stack": [self._snapshot_entry(entry) for entry in self.stack],
            "pending": None if self.pending is None else formula_to_obj(self.pending),
            "stats": [
                self.stats.messages,
                self.stats.max_stack,
                self.stats.max_formula_size,
                self.stats.activations_emitted,
            ],
        }
        extra = self._snapshot_extra()
        if extra:
            state["extra"] = extra
        return state

    def restore(self, state: dict) -> None:
        """Replace this transducer's state with a checkpointed snapshot.

        In place: a generated pass holds ``self.stack`` itself.
        """
        self.stack[:] = [self._restore_entry(entry) for entry in state["stack"]]
        pending = state["pending"]
        self.pending = None if pending is None else formula_from_obj(pending)
        stats = self.stats
        (
            stats.messages,
            stats.max_stack,
            stats.max_formula_size,
            stats.activations_emitted,
        ) = state["stats"]
        self._restore_extra(state.get("extra", {}))

    def _snapshot_entry(self, entry: Any) -> object:
        """Encode one stack entry (default: a formula or ``None``)."""
        return None if entry is None else formula_to_obj(entry)

    def _restore_entry(self, obj: object) -> Any:
        """Decode one stack entry (inverse of :meth:`_snapshot_entry`)."""
        return None if obj is None else formula_from_obj(obj)

    def _snapshot_extra(self) -> dict:
        """Subclass hook: additional state beyond stack/pending/stats."""
        return {}

    def _restore_extra(self, extra: dict) -> None:
        """Subclass hook: inverse of :meth:`_snapshot_extra`."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
