"""Extended navigation: following / preceding transducers.

The paper's prototype "supports also other XPath navigational
capabilities, i.e. following and preceding" (Sec. I); this module
reproduces them inside the transducer-network model:

* ``FO(l)`` — *following*: when an activated context element closes,
  its activation formula joins an accumulated *after* disjunction; every
  later start tag passing the label test matches under it.  Pure
  1-DPDT: one stack (is-this-entry-a-context markers) plus one formula.

* ``PR(l)`` — *preceding*: inherently a past axis.  Every ``l`` element
  is speculatively matched under a fresh condition variable (exactly the
  qualifier-instance machinery); when a context activation ``[f]``
  arrives later, the variables of elements that have already *closed*
  receive ``f`` as evidence, and everything still unresolved is closed
  at document end.  Candidates therefore buffer until a context shows up
  — the unavoidable memory price of a past axis on a stream, and the
  reason the paper's core language sticks to forward steps.
"""

from __future__ import annotations

from ..conditions.formula import (
    FALSE,
    TRUE,
    Formula,
    Var,
    conj,
    disj,
    dnf,
    formula_from_obj,
    formula_to_obj,
    substitute,
)
from ..conditions.store import ConditionStore, VariableAllocator
from ..rpeq.ast import Label
from ..xmlstream.events import EndDocument, EndElement, StartDocument, StartElement
from .messages import Activation, Close, Contribute, Doc, Message
from .transducer import FORWARDS, Transducer


class FollowingTransducer(Transducer):
    """``FO(l)`` — matches elements after an activated context closes.

    The accumulated *after* disjunction outlives element scopes (it stays
    live until the stream ends), so unlike stack-held formulas it can
    reference condition variables past their scope close.  The transducer
    therefore subscribes to the store: determinations substitute resolved
    variables out of the formula, and a retainer blocks the store from
    releasing any variable the formula still mentions.
    """

    kind = "FO"

    text = FORWARDS  # start and end tags go through the hooks

    def __init__(
        self,
        test: Label,
        store: ConditionStore,
        branch: bool = False,
        name: str | None = None,
    ) -> None:
        """Create a following-axis transducer.

        Args:
            branch: ``True`` inside a qualifier condition.  There the
                *after* formula is a carrier of per-instance variables
                destined for the determinant, so determinations prune it
                disjunct by disjunct (dropping decided disjuncts) rather
                than substituting values — a substitution to ``true``
                would collapse the disjunction and erase the identity of
                the still-undetermined sibling instances.
        """
        super().__init__(name or f"FO({test.name})")
        self.test = test
        self.branch = branch
        self._store = store
        self._after: Formula | None = None
        store.subscribe(self._on_determined)
        store.add_retainer(self._retains)

    def _on_determined(self, _determined: list[Var]) -> None:
        after = self._after
        if after is None:
            return
        if not self.branch:
            residual = substitute(after, self._store.value)
            self._after = None if residual is FALSE else residual
            return
        from ..conditions.formula import Or, evaluate

        terms = after.terms if isinstance(after, Or) else (after,)
        kept = []
        for term in terms:
            value = evaluate(term, self._store.value)
            if value is True:
                continue  # its instances are determined: nothing to add
            if value is False:
                continue  # dead disjunct
            kept.append(term)
        self._after = disj(*kept) if kept else None

    def _retains(self, var: Var) -> bool:
        return self._after is not None and var in self._after.variables()

    def on_activation(self, message: Activation) -> list[Message]:
        self.absorb_activation(message.formula)
        return []

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        emit = None
        if (
            self._after is not None
            and event.__class__ is StartElement
            and self.test.matches(event.label)
        ):
            emit = self._after
        # Remember whether this element is a context: its subtree is NOT
        # in its own following set; the formula activates at its end tag.
        self.stack.append(self.take_pending())
        if emit is not None:
            return [Activation(emit), message]
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        formula = self.pop_entry()
        if formula is not None:
            self._after = (
                formula if self._after is None else disj(self._after, formula)
            )
        return None

    def _snapshot_extra(self) -> dict:
        if self._after is None:
            return {}
        return {"after": formula_to_obj(self._after)}

    def _restore_extra(self, extra: dict) -> None:
        after = extra.get("after")
        self._after = None if after is None else formula_from_obj(after)


class PrecedingTransducer(Transducer):
    """``PR(l)`` — matches elements that closed before a context starts."""

    kind = "PR"

    text = FORWARDS  # start and end tags go through the hooks

    def __init__(
        self,
        test: Label,
        qualifier: str,
        allocator: VariableAllocator,
        store: ConditionStore,
        branch_head: str | None = None,
        speculation_ids: set[str] | frozenset[str] = frozenset(),
        name: str | None = None,
    ) -> None:
        """Create a preceding-axis transducer.

        Args:
            branch_head: ``None`` on a main path.  Inside a qualifier
                condition it is the enclosing qualifier's id, switching
                the transducer to *pairing* mode: a context activation
                pairs its head instance with every already-closed
                speculation (the head holds if the branch path from that
                past element holds).
            speculation_ids: live set of preceding pseudo-qualifier ids
                (shared with the compiler), used as pairing fallback for
                chained axis steps.
        """
        super().__init__(name or f"PR({test.name})")
        self.test = test
        #: pseudo-qualifier id owning this transducer's variables, so
        #: enclosing variable-filters keep them in branch formulas
        self.qualifier = qualifier
        self.branch_head = branch_head
        self.speculation_ids = speculation_ids
        self._allocator = allocator
        self._store = store
        #: variables of matching elements whose end tag has passed and
        #: that no unconditional context has confirmed yet
        self._closed_vars: list[Var] = []
        #: all variables awaiting document end (for the final closes)
        self._unresolved: list[Var] = []

    def on_activation(self, message: Activation) -> list[Message]:
        """A context is about to start: earlier-closed elements match."""
        if self.branch_head is not None:
            return self._pair_with_head(message.formula)
        out: list[Message] = []
        formula = message.formula
        still_open: list[Var] = []
        for var in self._closed_vars:
            if self._store.value(var) is not None:
                continue  # already settled by an earlier context
            out.append(Contribute(var, formula))
            if formula is not TRUE:
                still_open.append(var)
        self._closed_vars = still_open
        return out

    def _pair_with_head(self, formula: Formula) -> list[Message]:
        """Qualifier-branch mode: head := OR over closed speculations.

        For every DNF conjunct of the incoming context formula, the head
        instance (or, for chained axis steps, the upstream speculation)
        receives one contribution per already-closed element: *head
        holds if the branch path from that element holds* (plus the
        conjunct's remaining variables, which is safe — they gate every
        candidate carrying the head anyway).
        """
        out: list[Message] = []
        live = [
            var for var in self._closed_vars if self._store.value(var) is None
        ]
        # Also pair speculations already proven true (their path already
        # succeeded): they contribute TRUE-strength evidence.
        proven = [
            var
            for var in self._closed_vars
            if self._store.value(var) is True
        ]
        self._closed_vars = live + proven
        if not live and not proven:
            return out
        for conjunct in dnf(formula):
            targets = [v for v in conjunct if v.qualifier == self.branch_head]
            if not targets:
                targets = [
                    v for v in conjunct if v.qualifier in self.speculation_ids
                ]
            for target in targets:
                residue = [v for v in conjunct if v != target]
                for speculation in live + proven:
                    out.append(
                        Contribute(target, conj(*residue, speculation))
                    )
        return out

    def on_start(
        self, message: Doc, event: StartDocument | StartElement
    ) -> list[Message] | None:
        var = None
        if event.__class__ is StartElement and self.test.matches(event.label):
            var = self._allocator.fresh(self.qualifier)
            self._store.register(var)
            self._unresolved.append(var)
        self.stack.append(var)
        if var is not None:
            return [Activation(var), message]
        return None

    def on_end(
        self, message: Doc, event: EndDocument | EndElement
    ) -> list[Message] | None:
        var = self.pop_entry()
        out: list[Message] = []
        if var is not None:
            # The element has now fully ended; later contexts confirm it.
            self._closed_vars.append(var)
        if event.__class__ is EndDocument:
            # No more contexts can arrive: close every open speculation.
            for pending in self._unresolved:
                out.append(Close(pending))
            self._unresolved = []
            self._closed_vars = []
        if not out:
            return None
        out.append(message)
        return out

    def _snapshot_extra(self) -> dict:
        extra: dict = {}
        if self._closed_vars:
            extra["closed_vars"] = [formula_to_obj(v) for v in self._closed_vars]
        if self._unresolved:
            extra["unresolved"] = [formula_to_obj(v) for v in self._unresolved]
        return extra

    def _restore_extra(self, extra: dict) -> None:
        self._closed_vars = [
            formula_from_obj(obj) for obj in extra.get("closed_vars", [])
        ]
        self._unresolved = [
            formula_from_obj(obj) for obj in extra.get("unresolved", [])
        ]
