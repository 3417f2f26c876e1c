"""Rendering rpeq ASTs back to concrete syntax.

``parse(unparse(e)) == e`` holds for every AST (property-tested), which
makes query round-tripping usable for caching, logging and the multi-query
engine's deduplication.
"""

from __future__ import annotations

from ..errors import ReproError
from .ast import (
    Concat,
    Empty,
    Following,
    Label,
    OptionalExpr,
    Plus,
    Preceding,
    Qualifier,
    Rpeq,
    Star,
    Union,
)

# Binding strength used to decide where parentheses are required.
_PRECEDENCE = {
    Union: 1,
    Concat: 2,
    OptionalExpr: 3,
    Qualifier: 3,
    Plus: 3,
    Star: 3,
    Label: 4,
    Empty: 4,
    Following: 4,
    Preceding: 4,
}


def _render(expr: Rpeq, parent_level: int, epsilon: str = "") -> str:
    level = _PRECEDENCE[type(expr)]
    if isinstance(expr, Empty):
        # Epsilon has no concrete spelling; '()' parses back to a grouped
        # empty expression only at top level, so render via '?'-free
        # equivalences where possible.  Standalone Empty renders as ''.
        text = epsilon
    elif isinstance(expr, Label):
        text = expr.name
    elif isinstance(expr, Following):
        text = f"following::{expr.label.name}"
    elif isinstance(expr, Preceding):
        text = f"preceding::{expr.label.name}"
    elif isinstance(expr, Plus):
        text = f"{_render(expr.label, level)}+"
    elif isinstance(expr, Star):
        text = f"{_render(expr.label, level)}*"
    elif isinstance(expr, OptionalExpr):
        text = f"{_render(expr.inner, level, epsilon)}?"
    elif isinstance(expr, Qualifier):
        text = (
            f"{_render(expr.base, level, epsilon)}"
            f"[{_render(expr.condition, 0, epsilon)}]"
        )
    elif isinstance(expr, (Concat, Union)):
        # Flatten the left spine iteratively: long chains are the common
        # case and would otherwise recurse once per element.  Only the
        # first spine element keeps the relaxed (left) parenthesization;
        # right-nested sub-chains stay parenthesized so the output
        # re-parses to the identical (left-associated) AST.
        separator = "." if isinstance(expr, Concat) else "|"
        cls = type(expr)
        parts: list[Rpeq] = []
        node: Rpeq = expr
        while isinstance(node, cls):
            parts.append(node.right)
            node = node.left
        parts.append(node)
        parts.reverse()
        rendered = [_render(parts[0], level, epsilon)]
        rendered.extend(_render(part, level + 1, epsilon) for part in parts[1:])
        text = separator.join(rendered)
    else:  # pragma: no cover - exhaustive over AST types
        raise ReproError(f"cannot unparse {type(expr).__name__}")
    if level < parent_level:
        return f"({text})"
    return text


def unparse(expr: Rpeq) -> str:
    """Return concrete rpeq syntax for an AST.

    The output re-parses to an equal AST.  Note that :class:`Empty` inside
    a larger expression cannot be spelled in the concrete grammar, so
    expressions containing bare ``Empty`` sub-terms (other than as the
    whole query) raise :class:`~repro.errors.ReproError`; the parser never
    produces such trees — they only arise from hand-built ASTs.
    """
    if isinstance(expr, Empty):
        return ""
    for node in expr.walk():
        if isinstance(node, Empty):
            raise ReproError(
                "epsilon has no concrete syntax inside a larger expression; "
                "rewrite with '?' (E|epsilon == E?)"
            )
    return _render(expr, 0)


def display(expr: Rpeq) -> str:
    """Render an AST for people, spelling inner epsilons as ``ε``.

    Unlike :func:`unparse` this accepts hand-built trees with bare
    :class:`Empty` sub-terms (the planner's ``ε[F].rest`` residuals);
    the output is for messages and reports and does not re-parse.
    """
    return _render(expr, 0, "ε")
