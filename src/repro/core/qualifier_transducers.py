"""Qualifier transducers: variable-creator, variable-filter, determinant.

A qualifier ``E[F]`` compiles (Fig. 11) into::

    ... C[E] -> VC(q) -> SP -+-> (main path continues) ----------+-> JO -> ...
                             +-> C[F] -> VF(q+) -> VD(q) --------+

* ``VC(q)`` creates one fresh condition variable per activation — one
  per *qualifier instance* — conjoins it onto the activation formula, and
  closes the variable when the activated element's scope ends (the
  paper's ``{c, false}`` message, our :class:`~repro.core.messages.Close`).
* ``VF(q+)`` projects activation formulas onto the variables owned by
  this qualifier's sub-network (its own instances plus nested
  qualifiers'), discarding foreign variables.
* ``VD(q)`` turns each arriving activation into determination evidence:
  for every DNF conjunct of the (filtered) formula it emits
  ``Contribute(c, residue)`` where ``c`` is the conjunct's instance of
  ``q`` and ``residue`` the remaining (inner-qualifier) variables.  With
  no nested qualifiers the residue is ``true`` and this is exactly the
  paper's ``{c, true}`` message of Fig. 7.
"""

from __future__ import annotations

from typing import cast

from ..conditions.formula import (
    TRUE,
    Var,
    conj,
    dnf,
    formula_from_obj,
    formula_to_obj,
    restrict,
)
from ..conditions.store import ConditionStore, VariableAllocator
from ..errors import EngineError
from ..xmlstream.events import EndDocument, EndElement, StartDocument, StartElement
from .messages import Activation, Close, Contribute, Doc, Message
from .transducer import FORWARDS, Transducer


class VariableCreator(Transducer):
    """``VC(q)`` (Sec. III.5.1, Fig. 6)."""

    kind = "VC"

    def __init__(
        self,
        qualifier: str,
        allocator: VariableAllocator,
        store: ConditionStore,
        close_at_document_end: bool = False,
        name: str | None = None,
    ) -> None:
        """Create a variable-creator for one qualifier.

        Args:
            close_at_document_end: defer the ``{c, false}`` close from
                the instance's scope end to ``</$>``.  Needed when the
                qualifier condition contains a ``following`` step, whose
                evidence can arrive arbitrarily long after the qualified
                element closed.
        """
        super().__init__(name or f"VC({qualifier})")
        self.qualifier = qualifier
        self._allocator = allocator
        self._store = store
        self._close_at_document_end = close_at_document_end
        self._deferred: list[Var] = []

    def start(self, batch: list[Message]) -> list[Message]:
        stats = self.stats
        stats.messages += len(batch)
        head = self._absorb(batch) if len(batch) > 1 else None
        stack = self.stack
        pending, self.pending = self.pending, None
        if pending is None:
            stack.append(None)
            emit = None
        else:
            var = self._allocator.fresh(self.qualifier)
            self._store.register(var)
            stack.append(var)
            # conj(TRUE, var) is var itself
            emit = var if pending is TRUE else conj(pending, var)
        if len(stack) > stats.max_stack:
            stats.max_stack = len(stack)
        if emit is None and head is None:
            return batch
        return self._emit(head, emit, batch[-1])  # type: ignore[arg-type]

    def end(self, batch: list[Message]) -> list[Message]:
        self.stats.messages += len(batch)
        if not self.stack:
            raise EngineError(f"{self.name}: end tag with empty stack")
        var = self.stack.pop()
        if var is None:
            return batch
        if self._close_at_document_end:
            self._deferred.append(var)
            return batch
        out = batch[:-1]
        out.append(Close(var))
        out.append(batch[-1])
        return out

    text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)
        return []

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        pending = self.take_pending()
        var: Var | None = None
        if pending is not None:
            var = self._allocator.fresh(self.qualifier)
            self._store.register(var)
            self.stack.append(var)
            return [Activation(conj(pending, var)), message]
        self.stack.append(var)
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        var = self.pop_entry()
        out: list[Message] = []
        if var is not None:
            if self._close_at_document_end:
                self._deferred.append(var)
            else:
                # Scope left: no more evidence can arrive for this
                # instance (paper: {c, false} before the end tag).
                out.append(Close(var))
        if event.__class__ is EndDocument and self._deferred:
            out.extend(Close(deferred) for deferred in self._deferred)
            self._deferred = []
        if not out:
            return None
        out.append(message)
        return out

    def _snapshot_extra(self) -> dict:
        if not self._deferred:
            return {}
        return {"deferred": [formula_to_obj(var) for var in self._deferred]}

    def _restore_extra(self, extra: dict) -> None:
        self._deferred = [
            cast(Var, formula_from_obj(obj)) for obj in extra.get("deferred", [])
        ]


class VariableFilter(Transducer):
    """``VF(q+)`` / ``VF(q-)`` (Sec. III.5.2).

    The positive filter keeps only the qualifier's own variables in
    activation formulas; the negative filter drops exactly those.  Both
    forward everything else unchanged and use no stack (FST class).
    """

    kind = "VF"

    def __init__(self, owned: frozenset[str], positive: bool = True, name: str | None = None) -> None:
        sign = "+" if positive else "-"
        super().__init__(name or f"VF({'|'.join(sorted(owned))}{sign})")
        self.owned = owned
        self.positive = positive

    start = Transducer._start_stateless
    end = text = FORWARDS

    def _keep(self, var: Var) -> bool:
        inside = var.qualifier in self.owned
        return inside if self.positive else not inside

    def on_activation(self, message: Activation) -> list[Message]:
        return [Activation(restrict(message.formula, self._keep))]


class VariableDeterminant(Transducer):
    """``VD(q)`` (Sec. III.5.3, Fig. 7), generalized for nesting.

    Consumes activations (they carry proof that the qualifier path
    matched) and emits determination evidence.  Document and condition
    messages pass through so they reach the join.
    """

    kind = "VD"

    def __init__(
        self,
        qualifier: str,
        speculation_ids: set[str] | frozenset[str] = frozenset(),
        name: str | None = None,
    ) -> None:
        """Create a determinant for one qualifier.

        Args:
            speculation_ids: pseudo-qualifier ids of preceding-axis
                speculation variables (a live set shared with the
                compiler).  A conjunct without a head instance but with
                speculation variables determines *those* instead — the
                speculation means "the branch path from that past
                element onward succeeds", and a match arriving here is
                exactly that success.
        """
        super().__init__(name or f"VD({qualifier})")
        self.qualifier = qualifier
        self.speculation_ids = speculation_ids

    start = Transducer._start_stateless
    end = text = FORWARDS

    def on_activation(self, message: Activation) -> list[Message]:
        out: list[Message] = []
        for conjunct in dnf(message.formula):
            heads = [var for var in conjunct if var.qualifier == self.qualifier]
            if not heads:
                heads = [
                    var for var in conjunct if var.qualifier in self.speculation_ids
                ]
            if not heads:
                # The filtered formula can degenerate to TRUE when the
                # qualifier path matched unconditionally relative to an
                # already-determined instance; nothing to determine.
                continue
            for head in heads:
                residue = conj(*(var for var in conjunct if var != head))
                out.append(Contribute(head, residue))
        return out
