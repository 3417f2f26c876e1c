"""SPEX network messages (paper, Definition 2).

Three kinds of messages circulate in a SPEX network:

* **document messages** — the stream events themselves, wrapped in
  :class:`Doc`;
* **activation messages** ``[f]`` — :class:`Activation`; an activation
  immediately precedes the start tag of the element it activates and
  carries the condition formula the downstream match depends on;
* **condition determination messages** ``{c, v}`` — here split into
  :class:`Contribute` (evidence that variable ``c`` holds; the paper's
  ``{c, true}``, generalized to carry a residual formula for nested
  qualifiers) and :class:`Close` (the variable's scope ended; the paper's
  ``{c, false}``, after which ``c`` is false unless evidence arrived).

Messages are small immutable objects; transducers exchange lists of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..conditions.formula import Formula, Var
from ..xmlstream.events import Event


@dataclass(frozen=True, slots=True)
class Message:
    """Base class of all SPEX network messages."""


@dataclass(frozen=True, slots=True)
class Doc(Message):
    """A document message wrapping one stream event."""

    event: Event

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return str(self.event)


@dataclass(frozen=True, slots=True)
class Activation(Message):
    """``[f]`` — activate downstream transducers under condition ``f``."""

    formula: Formula

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.formula}]"


@dataclass(frozen=True, slots=True)
class Contribute(Message):
    """``{c, evidence}`` — formula ``evidence`` implies variable ``c``.

    With ``evidence == TRUE`` this is exactly the paper's ``{c, true}``.
    """

    var: Var
    evidence: Formula

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{{self.var}, {self.evidence}}}"


@dataclass(frozen=True, slots=True)
class Close(Message):
    """Scope of variable ``c`` ended — the paper's ``{c, false}``."""

    var: Var

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{{{self.var}, closed}}"


class ActivationPool:
    """Per-network recycler of :class:`Activation` objects.

    An activation lives for exactly one stream event — emitted by one
    transducer, absorbed (or forwarded to a sink) before the next event
    enters the network — so the network can hand out the same small set
    of objects every event instead of allocating fresh ones
    (production networks only, see :mod:`repro.core.optimize`).

    Two properties the engine relies on:

    * ``acquire`` never returns the same object twice within one event
      (the join deduplicates by object identity, ``id(message)``);
    * pooled objects are real ``Activation`` instances mutated through
      ``object.__setattr__``, so value equality and ``repr`` behave
      exactly like fresh messages.

    The network calls :meth:`reset` at the start of every event.
    """

    __slots__ = ("_items", "_used")

    def __init__(self) -> None:
        self._items: list[Activation] = []
        self._used = 0

    def acquire(self, formula: Formula) -> Activation:
        """An activation carrying ``formula``, unique within this event."""
        used = self._used
        items = self._items
        if used < len(items):
            message = items[used]
            object.__setattr__(message, "formula", formula)
        else:
            message = Activation(formula)
            items.append(message)
        self._used = used + 1
        return message

    def reset(self) -> None:
        """Start of a new event: every pooled object is reusable again."""
        self._used = 0

    def __len__(self) -> int:  # pragma: no cover - debugging aid
        return len(self._items)
