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

