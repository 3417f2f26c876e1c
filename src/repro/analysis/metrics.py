"""Structural metrics of rpeq queries.

The complexity results of Sec. V are parameterized by properties of the
query: its length ``n``, the number of qualifiers, the number of closure
steps, and in particular the number of *wildcard closure steps carrying
qualifiers downstream* — the configuration that can make condition
formulas grow to ``O(d^n)``.  :func:`analyze` computes all of these; the
benchmark harness uses them to label experiments, the linter uses them
to decide which performance notes apply, and the cost certifier uses
them to pick the right formula-size bound.

This module is the canonical home of these metrics; the old
``repro.rpeq.analysis`` alias has been removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rpeq.ast import (
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


@dataclass(frozen=True)
class QueryProfile:
    """Structural metrics of an rpeq query.

    Attributes:
        length: total number of AST nodes (the paper's ``n`` up to a
            constant factor; network degree is linear in this).
        steps: number of label/closure steps.
        qualifiers: number of qualifier brackets.
        closures: number of ``+``/``*`` steps.
        wildcard_closures: number of closure steps over the wildcard.
        unions: number of ``|`` operators.
        optionals: number of ``?`` operators.
        max_qualifier_nesting: deepest nesting of qualifiers inside
            qualifiers (0 when there are none).
        has_closure_under_qualifier: whether any qualifier condition
            contains a closure step — relevant to formula-size growth.
    """

    length: int
    steps: int
    qualifiers: int
    closures: int
    wildcard_closures: int
    unions: int
    optionals: int
    max_qualifier_nesting: int
    has_closure_under_qualifier: bool

    @property
    def fragment(self) -> str:
        """The paper's fragment name this query falls into.

        ``rpeq*`` — no qualifiers; ``rpeq[]`` — qualifiers but no closure;
        ``rpeq*[]`` — both (the formula-size worst case).
        """
        if self.qualifiers == 0:
            return "rpeq*"
        if self.closures == 0:
            return "rpeq[]"
        return "rpeq*[]"


def analyze(expr: Rpeq) -> QueryProfile:
    """Compute the :class:`QueryProfile` of a query AST."""
    length = 0
    steps = 0
    qualifiers = 0
    closures = 0
    wildcard_closures = 0
    unions = 0
    optionals = 0
    closure_under_qualifier = False

    max_nesting = 0

    # Iterative walk tracking (a) whether we are inside a qualifier
    # condition and (b) the qualifier-nesting level — iterative so that
    # arbitrarily long queries (Lemma V.1 workloads reach thousands of
    # steps) never exhaust the interpreter stack.
    work: list[tuple[Rpeq, bool, int]] = [(expr, False, 0)]
    while work:
        node, inside, nesting = work.pop()
        length += 1
        if isinstance(node, Label):
            steps += 1
            continue
        if isinstance(node, (Following, Preceding)):
            steps += 1
            length += 1
            continue
        if isinstance(node, (Plus, Star)):
            steps += 1
            closures += 1
            if node.label.is_wildcard:
                wildcard_closures += 1
            if inside:
                closure_under_qualifier = True
            # The label is counted as part of this step.
            length += 1
            continue
        if isinstance(node, Qualifier):
            qualifiers += 1
            if nesting + 1 > max_nesting:
                max_nesting = nesting + 1
            work.append((node.condition, True, nesting + 1))
            work.append((node.base, inside, nesting))
            continue
        if isinstance(node, Union):
            unions += 1
        elif isinstance(node, OptionalExpr):
            optionals += 1
        work.extend((child, inside, nesting) for child in node.children())

    return QueryProfile(
        length=length,
        steps=steps,
        qualifiers=qualifiers,
        closures=closures,
        wildcard_closures=wildcard_closures,
        unions=unions,
        optionals=optionals,
        max_qualifier_nesting=max_nesting,
        has_closure_under_qualifier=closure_under_qualifier,
    )


def labels_used(expr: Rpeq) -> set[str]:
    """All concrete labels mentioned by a query (excluding the wildcard)."""
    return {
        node.name
        for node in expr.walk()
        if isinstance(node, Label) and not node.is_wildcard
    }


def uses_wildcard(expr: Rpeq) -> bool:
    """Whether the query contains any wildcard step."""
    return any(
        isinstance(node, Label) and node.is_wildcard for node in expr.walk()
    )


def always_nonempty(condition: Rpeq) -> bool:
    """Whether a qualifier condition is trivially true.

    Returns ``True`` for conditions that select at least the context node
    on *any* input document — e.g. ``epsilon``, ``l*``, ``E?`` — which
    makes the enclosing ``E[F]`` equivalent to plain ``E``.  Shared by
    the rewriter's ``RWR003`` rule (which removes such qualifiers) and
    the linter's ``RPQ001`` check, so the two can never disagree.
    """
    if isinstance(condition, (Empty, Star, OptionalExpr)):
        return True
    if isinstance(condition, Union):
        return always_nonempty(condition.left) or always_nonempty(condition.right)
    if isinstance(condition, Qualifier):
        # E[F] with both parts trivially non-empty stays non-empty.
        return always_nonempty(condition.base) and always_nonempty(
            condition.condition
        )
    return False
