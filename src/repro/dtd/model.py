"""DTD content models.

The paper's related work (Sec. VIII) discusses validating XML streams
under memory constraints [Segoufin & Vianu, PODS 2002]: DTD validation
needs, in general, a pushdown automaton whose stack is bounded by the
document depth — the same resource profile as a SPEX transducer.  This
package provides that substrate: a DTD model, a parser for the classic
``<!ELEMENT ...>`` syntax, and a streaming validator.

A content model is a regular expression over *child element labels*:

    EMPTY                no content at all
    ANY                  anything (the trivial model)
    (#PCDATA)            text only
    (#PCDATA | a | b)*   mixed content
    (a, b?, (c | d)*)    element content (sequence / choice / repetition)

Unlike rpeq (whose closures apply to labels only), content models close
over arbitrary groups, so they get their own small AST here plus a
Thompson construction in :mod:`repro.dtd.validator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping


@dataclass(frozen=True, slots=True)
class Model:
    """Base class of content-model expressions."""

    def children(self) -> tuple["Model", ...]:
        return ()

    def symbols(self) -> set[str]:
        """All element names referenced by the model."""
        names: set[str] = set()
        stack: list[Model] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                names.add(node.name)
            stack.extend(node.children())
        return names


@dataclass(frozen=True, slots=True)
class Sym(Model):
    """A child element name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Seq(Model):
    """Sequence ``(a, b, c)``."""

    parts: tuple[Model, ...]

    def children(self) -> tuple[Model, ...]:
        return self.parts

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.parts)) + ")"


@dataclass(frozen=True, slots=True)
class Choice(Model):
    """Choice ``(a | b | c)``."""

    options: tuple[Model, ...]

    def children(self) -> tuple[Model, ...]:
        return self.options

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.options)) + ")"


@dataclass(frozen=True, slots=True)
class Repeat(Model):
    """Repetition: ``expr*`` (min 0) or ``expr+`` (min 1)."""

    inner: Model
    at_least_one: bool = False

    def children(self) -> tuple[Model, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"{self.inner}{'+' if self.at_least_one else '*'}"


@dataclass(frozen=True, slots=True)
class Optional_(Model):
    """Optional ``expr?``."""

    inner: Model

    def children(self) -> tuple[Model, ...]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"{self.inner}?"


@dataclass(frozen=True, slots=True)
class ElementDecl:
    """One ``<!ELEMENT name model>`` declaration.

    Attributes:
        name: the declared element.
        model: the content model over child labels; ``None`` encodes
            ``ANY`` (everything allowed, including text).
        empty: ``EMPTY`` content (no children, no text).
        mixed: text is allowed (``#PCDATA`` / mixed / ``ANY``).
    """

    name: str
    model: Model | None = None
    empty: bool = False
    mixed: bool = False


@dataclass
class Dtd:
    """A document type definition: a root name plus element declarations."""

    root: str
    elements: dict[str, ElementDecl] = field(default_factory=dict)

    def declaration(self, name: str) -> ElementDecl | None:
        return self.elements.get(name)

    def is_recursive(self) -> bool:
        """Whether some element can (transitively) contain itself.

        Segoufin & Vianu: for *non-recursive* DTDs the document depth is
        bounded by the DTD, so validation is possible with a finite
        automaton; recursive DTDs genuinely need the pushdown.
        """
        graph: Mapping[str, set[str]] = {
            name: (decl.model.symbols() if decl.model is not None else set())
            for name, decl in self.elements.items()
        }
        state: dict[str, int] = {}

        def cyclic(node: str) -> bool:
            mark = state.get(node, 0)
            if mark == 1:
                return True
            if mark == 2:
                return False
            state[node] = 1
            for child in graph.get(node, ()):
                if cyclic(child):
                    return True
            state[node] = 2
            return False

        return any(cyclic(name) for name in graph)

    def depth_bound(self) -> int | None:
        """Maximum document depth, or ``None`` for recursive DTDs."""
        if self.is_recursive():
            return None
        graph = {
            name: (decl.model.symbols() if decl.model is not None else set())
            for name, decl in self.elements.items()
        }
        cache: dict[str, int] = {}

        def height(node: str) -> int:
            if node in cache:
                return cache[node]
            children = graph.get(node, set())
            cache[node] = 1 + max((height(child) for child in children), default=0)
            return cache[node]

        return height(self.root) if self.root in graph else 1
