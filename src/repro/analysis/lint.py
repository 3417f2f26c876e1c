"""The rpeq linter: static findings about a query before compilation.

Each structural rule (``RPQ001``–``RPQ006``) mirrors exactly one rule of
:func:`repro.analysis.rewrite.rewrite_query`, so a query at the
rewriter's fixpoint can never trigger them — which gives the linter its
idempotence property: re-linting the rewritten ``q`` reports a subset of
the codes reported for ``q``.  ``RPQ007`` is a performance note derived from the
paper's Sec. V complexity results and is intentionally *not* removable
by rewriting.  ``RPQ010``–``RPQ012`` need a DTD and use the label-graph
satisfiability analysis of :mod:`repro.dtd.analysis`.
"""

from __future__ import annotations

from ..dtd.analysis import SchemaAnalyzer
from ..dtd.model import Dtd
from ..errors import ReproError
from ..rpeq.ast import (
    Concat,
    Empty,
    Label,
    OptionalExpr,
    Plus,
    Qualifier,
    Rpeq,
    Star,
    Union,
)
from ..rpeq.parser import parse
from ..rpeq.unparse import unparse
from .diagnostics import AnalysisReport, Severity, Span, register_code
from .metrics import always_nonempty, analyze, labels_used

RPQ001 = register_code(
    "RPQ001", Severity.WARNING, "lint", "Trivially-true qualifier condition"
)
RPQ002 = register_code(
    "RPQ002", Severity.WARNING, "lint", "Redundant closure chain"
)
RPQ003 = register_code(
    "RPQ003", Severity.WARNING, "lint", "Dead union branch"
)
RPQ004 = register_code(
    "RPQ004", Severity.WARNING, "lint", "Duplicate qualifier"
)
RPQ005 = register_code(
    "RPQ005", Severity.WARNING, "lint", "Redundant optional"
)
RPQ006 = register_code(
    "RPQ006", Severity.INFO, "lint", "Vacuous epsilon composition"
)
RPQ007 = register_code(
    "RPQ007", Severity.INFO, "lint", "Wildcard closure carrying qualifiers"
)
RPQ010 = register_code(
    "RPQ010", Severity.ERROR, "lint", "Query unsatisfiable under DTD"
)
RPQ011 = register_code(
    "RPQ011", Severity.ERROR, "lint", "Contradictory qualifier under DTD"
)
RPQ012 = register_code(
    "RPQ012", Severity.WARNING, "lint", "Label not declared in DTD"
)


def _render(expr: Rpeq) -> str:
    """Best-effort text form of a sub-expression for messages/details."""
    try:
        return unparse(expr)
    except ReproError:
        return repr(expr)


def _span_of(query_text: str | None, expr: Rpeq) -> Span | None:
    """Locate a sub-expression in the original query text, if possible.

    AST nodes carry no source offsets, so this searches for the unparsed
    rendering; ``None`` when the query was built programmatically or the
    rendering does not occur verbatim.
    """
    if query_text is None:
        return None
    try:
        fragment = unparse(expr)
    except ReproError:
        return None
    start = query_text.find(fragment)
    if start < 0:
        return None
    return Span(start, start + len(fragment))


def lint_query(
    query: str | Rpeq,
    *,
    dtd: Dtd | None = None,
    report: AnalysisReport | None = None,
) -> AnalysisReport:
    """Lint an rpeq query (text or AST); returns the findings.

    Structural findings are warnings/info — the query still evaluates
    correctly, just wastefully.  DTD findings can be errors: a query that
    cannot match any valid document is almost certainly a mistake.
    """
    if isinstance(query, str):
        text: str | None = query
        expr = parse(query)
    else:
        text = None
        expr = query

    out = report if report is not None else AnalysisReport()
    for node in expr.walk():
        _lint_node(node, text, out)
    _lint_profile(expr, text, out)
    if dtd is not None:
        _lint_against_dtd(expr, text, dtd, out)
    return out


def _lint_node(node: Rpeq, text: str | None, out: AnalysisReport) -> None:
    """Apply the structural rules to one AST node."""
    if isinstance(node, Qualifier):
        if always_nonempty(node.condition):
            out.add(
                RPQ001,
                f"qualifier condition '{_render(node.condition)}' is trivially "
                "true; the qualifier never filters anything",
                span=_span_of(text, node),
                expr=_render(node),
            )
        if (
            isinstance(node.base, Qualifier)
            and node.base.condition == node.condition
        ):
            out.add(
                RPQ004,
                f"duplicate qualifier '[{_render(node.condition)}]' — "
                "the second application is a no-op",
                span=_span_of(text, node),
                expr=_render(node),
            )
        return
    if isinstance(node, Concat):
        left, right = node.left, node.right
        if (
            isinstance(left, (Star, Plus))
            and isinstance(right, (Star, Plus))
            and left.label == right.label
            and not (isinstance(left, Plus) and isinstance(right, Plus))
        ):
            fused = (
                f"{left.label.name}*"
                if isinstance(left, Star) and isinstance(right, Star)
                else f"{left.label.name}+"
            )
            out.add(
                RPQ002,
                f"closure chain '{_render(left)}.{_render(right)}' is "
                f"equivalent to the single step '{fused}'",
                span=_span_of(text, node),
                expr=_render(node),
            )
        if isinstance(left, Empty) or isinstance(right, Empty):
            out.add(
                RPQ006,
                "composition with epsilon is a no-op",
                span=_span_of(text, node),
                expr=_render(node),
            )
        return
    if isinstance(node, Union):
        left, right = node.left, node.right
        if left == right:
            out.add(
                RPQ003,
                f"union branches are identical; '{_render(node)}' is "
                f"equivalent to '{_render(left)}'",
                span=_span_of(text, node),
                expr=_render(node),
            )
            return
        for absorber, absorbed in ((left, right), (right, left)):
            if (
                (
                    isinstance(absorber, Label)
                    and absorber.is_wildcard
                    and isinstance(absorbed, Label)
                )
                or (
                    isinstance(absorber, Plus)
                    and absorber.label.is_wildcard
                    and isinstance(absorbed, Plus)
                )
                or (
                    isinstance(absorber, Star)
                    and absorber.label.is_wildcard
                    and isinstance(absorbed, Star)
                )
            ):
                out.add(
                    RPQ003,
                    f"branch '{_render(absorbed)}' is dead: the wildcard "
                    f"branch '{_render(absorber)}' already matches "
                    "everything it can match",
                    span=_span_of(text, node),
                    expr=_render(node),
                )
                return
        if isinstance(left, Empty) or isinstance(right, Empty):
            out.add(
                RPQ006,
                f"union with epsilon; '{_render(node)}' is an optional "
                "in disguise",
                span=_span_of(text, node),
                expr=_render(node),
            )
        return
    if isinstance(node, OptionalExpr):
        inner = node.inner
        if isinstance(inner, (Empty, OptionalExpr, Star, Plus)):
            equivalent = (
                f"{inner.label.name}*"
                if isinstance(inner, (Star, Plus))
                else _render(inner)
            )
            out.add(
                RPQ005,
                f"optional is redundant: '{_render(node)}' is equivalent "
                f"to '{equivalent}'",
                span=_span_of(text, node),
                expr=_render(node),
            )
        return


def _lint_profile(expr: Rpeq, text: str | None, out: AnalysisReport) -> None:
    """Performance notes from the query's structural profile."""
    profile = analyze(expr)
    if profile.wildcard_closures > 0 and profile.qualifiers > 0:
        out.add(
            RPQ007,
            "wildcard closure combined with qualifiers (fragment "
            f"{profile.fragment}): condition formulas can grow with "
            "stream depth (paper Sec. V); consider a ResourceLimits "
            "formula-size bound",
            fragment=profile.fragment,
            wildcard_closures=profile.wildcard_closures,
            qualifiers=profile.qualifiers,
        )


def _lint_against_dtd(
    expr: Rpeq, text: str | None, dtd: Dtd, out: AnalysisReport
) -> None:
    """Schema-aware checks (``RPQ010``–``RPQ012``)."""
    analyzer = SchemaAnalyzer(dtd)
    declared = set(dtd.elements)
    for label in sorted(labels_used(expr) - declared):
        out.add(
            RPQ012,
            f"label '{label}' is not declared in the DTD (root "
            f"'{dtd.root}'); the step can never match a valid document",
            label=label,
        )
    if not analyzer.query_is_satisfiable(expr):
        out.add(
            RPQ010,
            "query is unsatisfiable under the DTD: no valid document "
            "produces a match",
            root=dtd.root,
        )
    for node in expr.walk():
        if isinstance(node, Qualifier) and not analyzer.condition_satisfiable_somewhere(
            node.condition
        ):
            out.add(
                RPQ011,
                f"qualifier condition '{_render(node.condition)}' is "
                "contradictory under the DTD: it holds at no reachable "
                "element type",
                span=_span_of(text, node),
                expr=_render(node),
            )
