"""Path-navigation transducers: input, child, closure.

These implement Secs. III.2–III.4 of the paper.  The transition tables of
Figs. 2 and 3 encode, with explicit ``m``/``l``/``s``/``ns``/``e`` depth
markers and ``waiting``/``matching``/``activated`` states, the following
invariant semantics, which is what this module implements directly over a
per-open-element stack of scope formulas:

* **child** ``CH(l)`` — an activation ``[f]`` arriving immediately before
  a start tag puts the *children* of that element into match scope under
  formula ``f``; a start tag whose label passes the test and whose parent
  is in scope emits ``[f_scope]`` just before the forwarded tag.
* **closure** ``CL(l)`` — like child, but a matched element *extends* the
  scope to its own children (chains of ``l`` steps), and an element that
  is simultaneously matched and freshly activated merges both scope
  formulas by disjunction (the paper's nested-scope rule, transition 12
  of Fig. 3, incl. the duplicate-conjunct normalization).

A stack entry is the scope formula for the children of that open element
(``None`` when they are out of scope — the paper's ``e``/plain-``l``
markers).  Equivalence with the paper's tables is exercised by unit tests
replaying Examples III.1 and III.2 message by message.
"""

from __future__ import annotations

from ..conditions.formula import TRUE, disj
from ..errors import EngineError
from ..rpeq.ast import Label
from ..xmlstream.events import EndDocument, EndElement, StartDocument, StartElement
from .messages import Activation, Doc, Message
from .transducer import FORWARDS, POPS, Transducer

# Each class states its start-tag transition twice: ``on_start`` (with
# ``on_activation``) is the semantics, ``start`` the production entry
# point for a whole StartElement batch — these are the innermost calls
# of the engine.  End tags only pop and text is forwarded, which the
# generated passes do without a call (``POPS`` / ``FORWARDS``); document
# boundaries always go through the hooks.


class InputTransducer(Transducer):
    """The network source ``IN`` (Sec. III.2).

    Sends an activation with the formula ``true`` on the start-document
    message — the document root is unconditionally a context node — and
    forwards every message.  Feeding messages other than document events
    into ``IN`` is an error: it is the source.
    """

    kind = "IN"

    # only <$> produces anything, and it goes through the hooks
    start = end = text = FORWARDS

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        if event.__class__ is StartDocument:
            return [Activation(TRUE), message]
        return None

    def on_activation(self, message: Activation) -> list[Message]:
        raise EngineError("the input transducer is the network source; "
                          "it cannot receive activation messages")


class DemandInputTransducer(InputTransducer):
    """``IN`` of a residual network: activates when armed, not at ``<$>``.

    A residual network evaluates only the tail ``R`` of a query ``P.R``
    whose qualifier-free head ``P`` runs on the shared lazy DFA
    (:mod:`repro.core.fastlane`).  The context nodes of ``R`` are the
    elements ``P`` accepts, so the ``[true]`` activation belongs in
    front of *their* start tags: the driver calls :meth:`arm` right
    before feeding one.  The tape this source emits is the tape the last
    transducer of ``C[P]`` would have handed to ``C[R]`` — a
    qualifier-free chain only ever forwards ``[true]``.

    ``armed`` never survives an event (armed and consumed inside one
    ``process_event``), so it is not part of the snapshot.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self.armed = False

    def arm(self) -> None:
        """Make the next start message carry the ``[true]`` activation."""
        self.armed = True

    def start(self, batch: list[Message]) -> list[Message]:
        self.stats.messages += 1
        if self.armed:
            self.armed = False
            return self._emit(None, TRUE, batch[0])
        return batch

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        if self.armed:
            self.armed = False
            return [Activation(TRUE), message]
        return None


class ChildTransducer(Transducer):
    """``CH(l)`` — one child step with a label test (Sec. III.3, Fig. 2)."""

    kind = "CH"

    def __init__(self, test: Label, name: str | None = None) -> None:
        super().__init__(name or f"CH({test.name})")
        self.test = test
        self._wildcard = test.is_wildcard
        self._label = test.name

    def start(self, batch: list[Message]) -> list[Message]:
        stats = self.stats
        stats.messages += len(batch)
        head = self._absorb(batch) if len(batch) > 1 else None
        message = batch[-1]
        stack = self.stack
        emit = None
        if stack:
            scope = stack[-1]
            if scope is not None and (
                self._wildcard or self._label == message.event.label
            ):
                emit = scope
        pending, self.pending = self.pending, None
        stack.append(pending)
        if len(stack) > stats.max_stack:
            stats.max_stack = len(stack)
        if emit is None and head is None:
            return batch
        return self._emit(head, emit, message)

    end = POPS
    text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        # Buffer until the activating start tag arrives; several
        # activations for one tag merge by disjunction.
        self.absorb_activation(message.formula)
        return []

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        stack = self.stack
        emit = None
        if stack and event.__class__ is StartElement:
            scope = stack[-1]
            if scope is not None and (self._wildcard or self._label == event.label):
                emit = scope
        # The element's own children are in scope iff this tag was
        # activated (paper: transitions 5/7 push the received formula).
        pending, self.pending = self.pending, None
        stack.append(pending)
        if emit is not None:
            return [Activation(emit), message]
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        self.pop_entry()
        return None


class StarTransducer(Transducer):
    """``DS(l*)`` — fused Kleene closure (optimizing compiler only).

    The paper translates ``label*`` as ``SP -> CL(label+) -> JO`` with an
    epsilon bypass (Fig. 11).  This transducer implements the identical
    semantics — the activated element itself matches, plus every element
    reachable from it by a chain of ``label`` steps — in a single node,
    removing two transducer hops and a join merge from the hottest
    pattern in practice (the ``_*.`` prefix of every Sec. VI query).

    The E10 ablation benchmark compares the fused and literal forms; the
    differential test suite runs against both compilers.
    """

    kind = "DS"

    def __init__(self, test: Label, name: str | None = None) -> None:
        super().__init__(name or f"DS({test.name}*)")
        self.test = test
        self._wildcard = test.is_wildcard
        self._label = test.name

    def start(self, batch: list[Message]) -> list[Message]:
        stats = self.stats
        stats.messages += len(batch)
        head = self._absorb(batch) if len(batch) > 1 else None
        message = batch[-1]
        stack = self.stack
        pending, self.pending = self.pending, None
        emit = pending
        scope = None
        if stack:
            parent_scope = stack[-1]
            if parent_scope is not None and (
                self._wildcard or self._label == message.event.label
            ):
                emit = (
                    parent_scope if emit is None else disj(emit, parent_scope)
                )
                scope = parent_scope
        if pending is not None:
            scope = pending if scope is None else disj(scope, pending)
        stack.append(scope)
        if len(stack) > stats.max_stack:
            stats.max_stack = len(stack)
        if emit is None and head is None:
            return batch
        return self._emit(head, emit, message)

    end = POPS
    text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)
        return []

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        stack = self.stack
        pending, self.pending = self.pending, None
        emit = pending  # the epsilon case: the context node itself
        scope = None
        if stack and event.__class__ is StartElement:
            parent_scope = stack[-1]
            if parent_scope is not None and (
                self._wildcard or self._label == event.label
            ):
                # Chain case: matched via one-or-more label steps.
                emit = parent_scope if emit is None else disj(emit, parent_scope)
                scope = parent_scope
        if pending is not None:
            # This element is a fresh context: its label-children start
            # new chains under the received formula.
            scope = pending if scope is None else disj(scope, pending)
        stack.append(scope)
        if emit is not None:
            return [Activation(emit), message]
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        self.pop_entry()
        return None


class ClosureTransducer(Transducer):
    """``CL(l)`` — positive closure ``l+`` (Sec. III.4, Fig. 3).

    Matches elements reachable from an activating element by one or more
    child steps, every step's label passing the test.  For the wildcard
    this is the ``descendant`` axis.
    """

    kind = "CL"

    def __init__(self, test: Label, name: str | None = None) -> None:
        super().__init__(name or f"CL({test.name}+)")
        self.test = test
        self._wildcard = test.is_wildcard
        self._label = test.name

    def start(self, batch: list[Message]) -> list[Message]:
        stats = self.stats
        stats.messages += len(batch)
        head = self._absorb(batch) if len(batch) > 1 else None
        message = batch[-1]
        stack = self.stack
        emit = scope = None
        if stack:
            parent_scope = stack[-1]
            if parent_scope is not None and (
                self._wildcard or self._label == message.event.label
            ):
                emit = scope = parent_scope
        pending, self.pending = self.pending, None
        if pending is not None:
            scope = pending if scope is None else disj(scope, pending)
        stack.append(scope)
        if len(stack) > stats.max_stack:
            stats.max_stack = len(stack)
        if emit is None and head is None:
            return batch
        return self._emit(head, emit, message)

    end = POPS
    text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)
        return []

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        stack = self.stack
        emit = None
        scope = None
        if stack and event.__class__ is StartElement:
            parent_scope = stack[-1]
            if parent_scope is not None and (
                self._wildcard or self._label == event.label
            ):
                # Matched: emit, and extend the chain into this element.
                emit = parent_scope
                scope = parent_scope
        pending, self.pending = self.pending, None
        if pending is not None:
            # Freshly activated: children enter scope under the received
            # formula; a simultaneous chain extension merges by
            # disjunction (Fig. 3, transition 12 — nested scopes).
            scope = pending if scope is None else disj(scope, pending)
        stack.append(scope)
        if emit is not None:
            return [Activation(emit), message]
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        self.pop_entry()
        return None
