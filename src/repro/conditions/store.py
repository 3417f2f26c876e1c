"""Condition-variable state tracking.

The output transducer must decide candidate formulas as qualifier
instances resolve.  A :class:`ConditionStore` records, per variable:

* *contributions* — formulas implying the variable, sent by the
  variable-determinant transducer each time the qualifier path matches
  (``{c, true}`` in the paper's simple protocol; a residual formula over
  inner-qualifier variables in the nested-qualifier generalization);
* whether the variable's scope is *closed* — sent by the variable-creator
  transducer when the element that created the instance ends (the paper's
  ``{c, false}`` message): no further contributions can arrive.

A variable's value is::

    true     as soon as any contribution evaluates true,
    false    once closed with every contribution evaluated false,
    unknown  otherwise.

Contribution formulas may reference variables of *inner* qualifiers.  The
store propagates determinations eagerly along a reverse-dependency index,
so :meth:`contribute` and :meth:`close` return every variable that became
determined as a consequence — the output transducer uses that list to
re-evaluate exactly the candidates that could have changed.

Most qualifier instances are never observed: they close with no
evidence, no dependent and no consumer watching them.  Such a variable
costs one dict slot — it has no state object of its own while open, and
its close stores one shared closed-false state without a cascade or a
broadcast (see :meth:`ConditionStore.close`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

from ..errors import EngineError
from .formula import (
    FALSE,
    TRUE,
    Formula,
    Var,
    _new_var,
    evaluate,
    formula_from_obj,
    formula_to_obj,
    substitute,
)


class VariableAllocator:
    """Deterministic per-engine allocator of condition variables.

    Each engine owns one allocator so variable uids are reproducible run
    to run (uid order equals activation order, i.e. document order).
    """

    def __init__(self) -> None:
        self._next = 1

    def fresh(self, qualifier: str) -> Var:
        """Allocate the next variable for a qualifier instance."""
        var = _new_var(Var, (self._next, qualifier))
        self._next += 1
        return var

    def snapshot(self) -> int:
        """Next uid to allocate — resuming must not reuse earlier uids."""
        return self._next

    def restore(self, state: int) -> None:
        """Continue allocating from a checkpointed counter."""
        self._next = int(state)


@dataclass
class _VarState:
    contributions: list[Formula] = field(default_factory=list)
    closed: bool = False
    value: bool | None = None


#: The slot of a registered variable nothing has observed yet: open,
#: undetermined, no contributions.  Shared by every such variable and
#: never mutated — the first contribution or dependent replaces it.
_UNOBSERVED = _VarState()
#: The state of an unobserved variable after its close, shared the same way.
_CLOSED_FALSE = _VarState(closed=True, value=False)


class ConditionStore:
    """Tracks determination state for every live condition variable.

    The store is also a memory-accounting hook: :attr:`peak_live_variables`
    feeds the depth-memory experiment (E5).
    """

    def __init__(self) -> None:
        self._states: dict[Var, _VarState] = {}
        self._dependents: dict[Var, set[Var]] = {}
        self._listeners: list[Callable[[list[Var]], None]] = []
        # every listener ignores batches of variables no retainer holds,
        # so an unobserved close may skip the broadcast
        self._quiet = True
        self._retainers: list[Callable[[Var], bool]] = []
        # a dict, not a set: snapshot order is insertion order, whatever
        # the variables hash to
        self._release_pending: dict[Var, None] = {}
        self._live = 0
        self.peak_live_variables = 0
        self.total_variables = 0
        self.total_contributions = 0

    def subscribe(
        self, listener: Callable[[list[Var]], None], watched_only: bool = False
    ) -> None:
        """Register a callback invoked with every newly-determined batch.

        Multi-sink networks (conjunctive queries, shared multi-query
        networks) share one store; the *first* sink processing a
        determination message resolves the variable globally, so the
        return values of :meth:`contribute`/:meth:`close` reach only that
        sink.  Listeners broadcast the batch to every sink instead.

        ``watched_only`` declares that the listener does nothing for a
        batch whose variables no retainer holds.  While every listener
        says so, the close of an unobserved variable skips the broadcast.
        """
        self._listeners.append(listener)
        self._quiet = self._quiet and watched_only

    def add_retainer(self, retainer: Callable[[Var], bool]) -> None:
        """Register a predicate blocking release of variables in use.

        ``retainer(var) -> bool`` returns ``True`` while some consumer
        (e.g. another sink's candidate watchers) still needs the
        variable's state.
        """
        self._retainers.append(retainer)

    def defer_release(self, var: Var) -> None:
        """Schedule a release attempt for the end of the current event.

        A sink seeing a ``Close`` may not release immediately: other
        nodes later in the topological order still process the same
        batch and may create candidates referencing the variable.  At
        end-of-event (:meth:`end_of_event`, called by the network) every
        node has seen the batch, so release is safe.
        """
        self._release_pending[var] = None

    def end_of_event(self) -> None:
        """Release every deferred variable that became releasable."""
        if not self._release_pending:
            return
        maybe_release = self.maybe_release
        self._release_pending = {
            var: None for var in self._release_pending if not maybe_release(var)
        }

    @property
    def live_variables(self) -> int:
        """Number of variables currently undetermined."""
        return self._live

    def register(self, var: Var) -> None:
        """Declare a freshly created variable (undetermined, open)."""
        if var in self._states:
            raise EngineError(f"variable {var} registered twice")
        self._states[var] = _UNOBSERVED
        self.total_variables += 1
        self._live += 1
        if self._live > self.peak_live_variables:
            self.peak_live_variables = self._live

    def contribute(self, var: Var, formula: Formula) -> list[Var]:
        """Record evidence: ``formula`` implies ``var``.

        In the paper's non-nested protocol the formula is always ``TRUE``
        (the message ``{c, true}``).

        Returns:
            Variables that became determined, in cascade order.
        """
        state = self._states.get(var)
        if state is None:
            # Late duplicate (a join without dedup can replay messages
            # for an already-released variable): semantically a no-op.
            return []
        if state.value is not None:
            # First determination wins; late evidence (a second match
            # after the instance is already proven) is a no-op.
            return []
        self.total_contributions += 1
        # Substitute already-determined variables away immediately, so a
        # stored contribution only ever references undetermined variables
        # (this is what makes releasing determined variables safe).
        residual = substitute(formula, self.value)
        if residual is FALSE:
            # Evidence already dead (its inner variables resolved false);
            # only a close can still decide the variable.
            return []
        states = self._states
        if state is _UNOBSERVED:
            state = states[var] = _VarState()
        if residual is TRUE:
            return self._determine(var, True)
        state.contributions.append(residual)
        for dependency in residual.variables():
            # a dependency is observed: its close must cascade
            if states[dependency] is _UNOBSERVED:
                states[dependency] = _VarState()
            self._dependents.setdefault(dependency, set()).add(var)
        return []

    def close(self, var: Var) -> list[Var]:
        """Mark a variable's scope ended: no further contributions.

        The paper's ``{c, false}`` message.  An unobserved variable — no
        contribution, no dependent, no retainer holding it — becomes
        false without a cascade (nothing depends on it) and, while every
        listener is ``watched_only``, without a broadcast.

        Returns:
            Variables that became determined, in cascade order.
        """
        state = self._states.get(var)
        if state is None:
            # Late duplicate close of a released variable: no-op.
            return []
        if state.closed:
            return []
        if state is _UNOBSERVED:
            if self._quiet and not self._retained(var):
                self._states[var] = _CLOSED_FALSE
                self._live -= 1
                return [var]
            state = self._states[var] = _VarState()
        state.closed = True
        if state.value is not None:
            return []
        return self._refresh(var)

    def is_closed(self, var: Var) -> bool:
        """Whether the variable's scope has ended (state may be released)."""
        state = self._states.get(var)
        return state is None or state.closed

    def maybe_release(self, var: Var) -> bool:
        """Drop a variable's state once nothing can reference it again.

        Safe when the variable is determined, its scope is closed (its
        ``Close`` message has traversed the whole network, so no message
        still in flight and no transducer stack entry can mention it) and
        no pending contribution formula depends on it.  The output
        transducer calls this after clearing its own candidate watchers,
        which keeps the store's footprint bounded on unbounded streams.
        """
        state = self._states.get(var)
        if state is None:
            return True
        if state is _CLOSED_FALSE:
            # No retainer held it at its close, and none can take it up
            # after: a sink's later candidate substitutes it away, and the
            # one consumer that keeps formulas past a scope (``following``)
            # is not ``watched_only``, so its store never shares this state.
            del self._states[var]
            return True
        if state.value is None or not state.closed:
            return False
        if self._dependents.get(var):
            return False
        if self._retained(var):
            return False
        del self._states[var]
        self._dependents.pop(var, None)
        return True

    def _retained(self, var: Var) -> bool:
        for retainer in self._retainers:
            if retainer(var):
                return True
        return False

    def value(self, var: Var) -> bool | None:
        """Current three-valued knowledge about a variable."""
        state = self._states.get(var)
        if state is None:
            raise EngineError(f"unknown condition variable {var}")
        return state.value

    def evaluate(self, formula: Formula) -> bool | None:
        """Three-valued evaluation of a formula under current knowledge."""
        return evaluate(formula, self.value)

    def _determine(self, var: Var, value: bool) -> list[Var]:
        """Fix a variable's value and cascade through dependents."""
        determined: list[Var] = []
        queue: deque[tuple[Var, bool]] = deque([(var, value)])
        while queue:
            current, current_value = queue.popleft()
            state = self._states[current]
            if state.value is not None:
                continue
            state.value = current_value
            self._deregister(current, state)
            self._live -= 1
            determined.append(current)
            for dependent in self._dependents.pop(current, ()):
                dependent_state = self._states.get(dependent)
                if dependent_state is None or dependent_state.value is not None:
                    continue
                # Rewrite the dependent's contributions so they stop
                # referencing the just-determined variable.
                new_value = self._rewrite(dependent, dependent_state)
                if new_value is not None:
                    queue.append((dependent, new_value))
        if determined:
            for listener in self._listeners:
                listener(determined)
        return determined

    def _deregister(self, var: Var, state: _VarState) -> None:
        """Remove ``var`` from the dependent sets of everything its
        contributions reference, then drop the contributions."""
        for contribution in state.contributions:
            for reference in contribution.variables():
                dependents = self._dependents.get(reference)
                if dependents is not None:
                    dependents.discard(var)
                    if not dependents:
                        del self._dependents[reference]
        state.contributions.clear()

    def _rewrite(self, var: Var, state: _VarState) -> bool | None:
        """Substitute determined variables out of stored contributions.

        Returns a value when the rewrite decides the variable (some
        contribution became ``TRUE``, or the variable is closed with all
        contributions dead), else ``None``.  Dependent-set registrations
        are kept in sync with the rewritten formulas.
        """
        old_refs: set[Var] = set()
        new_refs: set[Var] = set()
        remaining: list[Formula] = []
        decided: bool | None = None
        for contribution in state.contributions:
            old_refs |= contribution.variables()
            if decided is not None:
                continue
            residual = substitute(contribution, self.value)
            if residual is TRUE:
                decided = True
                continue
            if residual is FALSE:
                continue
            remaining.append(residual)
            new_refs |= residual.variables()
        if decided is True:
            remaining = []
            new_refs = set()
        state.contributions = remaining
        for reference in old_refs - new_refs:
            dependents = self._dependents.get(reference)
            if dependents is not None:
                dependents.discard(var)
                if not dependents:
                    del self._dependents[reference]
        for reference in new_refs - old_refs:
            self._dependents.setdefault(reference, set()).add(var)
        if decided is not None:
            return decided
        if state.closed and not remaining:
            return False
        return None

    def _refresh(self, var: Var) -> list[Var]:
        state = self._states[var]
        value = self._derive(state)
        if value is None:
            return []
        return self._determine(var, value)

    def _derive(self, state: _VarState) -> bool | None:
        """Derive a value from contributions + closed flag, or ``None``."""
        any_unknown = False
        for contribution in state.contributions:
            value = evaluate(contribution, self.value)
            if value is True:
                return True
            if value is None:
                any_unknown = True
        if state.closed and not any_unknown:
            return False
        return None

    # ------------------------------------------------------------------
    # checkpointing

    def snapshot(self) -> dict:
        """JSON-serializable snapshot of all determination state.

        Listeners and retainers are *not* captured: they are runtime
        wiring re-established when the network is compiled, not data.
        The reverse-dependency index is derivable from the contribution
        formulas and is rebuilt on :meth:`restore`.
        """
        return {
            "states": [
                [
                    formula_to_obj(var),
                    [formula_to_obj(c) for c in state.contributions],
                    state.closed,
                    state.value,
                ]
                for var, state in self._states.items()
            ],
            "release_pending": [
                formula_to_obj(var) for var in self._release_pending
            ],
            "live": self._live,
            "peak_live_variables": self.peak_live_variables,
            "total_variables": self.total_variables,
            "total_contributions": self.total_contributions,
        }

    def restore(self, data: dict) -> None:
        """Replace all determination state with a checkpointed snapshot.

        Keeps the listener/retainer wiring installed at compile time
        untouched — restore only swaps the data underneath it.
        """
        self._states = {}
        self._dependents = {}
        for var_obj, contributions, closed, value in data["states"]:
            var = formula_from_obj(var_obj)
            state = _VarState(
                contributions=[formula_from_obj(c) for c in contributions],
                closed=bool(closed),
                value=value,
            )
            self._states[var] = state
            for contribution in state.contributions:
                for reference in contribution.variables():
                    self._dependents.setdefault(reference, set()).add(var)
        self._release_pending = dict.fromkeys(
            formula_from_obj(obj) for obj in data["release_pending"]
        )
        self._live = int(data["live"])
        self.peak_live_variables = int(data["peak_live_variables"])
        self.total_variables = int(data["total_variables"])
        self.total_contributions = int(data["total_contributions"])
