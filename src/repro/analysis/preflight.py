"""Pre-flight analysis: everything checkable before a stream is consumed.

:func:`preflight` lints the query and certifies the ``d·σ`` memory
bound against the configured limits, one report for both.  The engines
run it at construction (opt-out via ``preflight=False``) and raise
:class:`~repro.errors.StaticAnalysisError` on any error-severity
finding, so a query that cannot work never starts consuming events.
The certificate's network degree is counted on the AST
(:func:`~repro.core.compiler.translation_degree`); no network is built.
"""

from __future__ import annotations

from ..core.optimize import OptimizationFlags
from ..dtd.model import Dtd
from ..errors import StaticAnalysisError
from ..limits import ResourceLimits
from ..rpeq.ast import Rpeq
from ..rpeq.parser import parse
from .diagnostics import AnalysisReport
from .cost import certify_cost
from .lint import lint_query


def preflight(
    query: str | Rpeq,
    *,
    limits: ResourceLimits | None = None,
    dtd: Dtd | None = None,
    optimize: "bool | OptimizationFlags" = True,
    collect_events: bool = True,
) -> AnalysisReport:
    """Lint one query and certify its cost; returns the merged report."""
    # Import here, not at module top: importing the compiler imports
    # ``repro.rpeq``, whose package imports this module.
    from ..core.compiler import translation_degree

    report = AnalysisReport()
    expr = parse(query) if isinstance(query, str) else query
    lint_query(query, dtd=dtd, report=report)
    certify_cost(
        expr,
        limits=limits,
        dtd=dtd,
        degree=translation_degree(expr, optimize),
        collect_events=collect_events,
        report=report,
    )
    return report


def ensure_preflight(
    query: str | Rpeq,
    *,
    limits: ResourceLimits | None = None,
    dtd: Dtd | None = None,
    optimize: "bool | OptimizationFlags" = True,
    collect_events: bool = True,
) -> AnalysisReport:
    """Run :func:`preflight`; raise on error-severity findings.

    Raises:
        StaticAnalysisError: the report contains at least one error.
            The exception carries the full report as ``.report``.
    """
    report = preflight(
        query,
        limits=limits,
        dtd=dtd,
        optimize=optimize,
        collect_events=collect_events,
    )
    if not report.ok:
        first = report.errors[0]
        raise StaticAnalysisError(
            f"pre-flight analysis failed: {first.render()} "
            f"({len(report.errors)} error(s) total)",
            report=report,
        )
    return report
