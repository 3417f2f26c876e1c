"""Execution-lane planning and refined σ̂ bounds (``PLAN0xx``).

The evaluation cost of an rpeq is governed by its *shape* (paper
Sec. V): qualifier-free queries never create condition variables, so
their networks carry only unconditional candidates — no formulas, no
``σ``-sized cells.  The planner makes that knowledge a first-class,
machine-readable artifact:

* **Lane classification.**  Every query lands in exactly one lane:

  - ``dfa`` (``PLAN001``) — qualifier-free, no axis steps: eligible for
    a lazy-DFA fast lane with no condition machinery at all.
  - ``hybrid`` (``PLAN002``) — a *selective* qualifier-free spine prefix
    (at least one required concrete label step) in front of the first
    qualifier: the prefix is DFA-runnable, the transducer network is
    only needed from the first qualifier on.
  - ``network`` (``PLAN003``) — everything else (axis steps, or
    qualifiers guarding an unselective spine) needs the full network.

* **Refined σ̂.**  The admission controller consumed the worst-case
  ``COST`` bound; the planner refines it — a
  ``dfa``-lane query is pinned to ``σ̂ = 1`` (no formulas exist to grow)
  and every lane takes the minimum with the worst-case bound, so
  **refined σ̂ ≤ worst-case σ̂ for every query** by construction
  (``PLAN004`` reports a strict improvement).

* **Certified rewriting first** (opt-in): with ``rewrite=True`` the
  query runs through :func:`repro.analysis.rewrite.rewrite_query` and
  the plan is computed for the rewritten form — only if every rewrite
  step's equivalence certificate discharged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..limits import ResourceLimits
from ..rpeq.ast import (
    Concat,
    Empty,
    Following,
    Label,
    Plus,
    Preceding,
    Qualifier,
    Rpeq,
    Union,
    concat_all,
)
from ..rpeq.parser import parse
from ..rpeq.unparse import display, unparse
from .cost import certify_cost
from .diagnostics import AnalysisReport, Severity, register_code
from .metrics import analyze
from .rewrite import concat_spine, factor_common_prefixes, rewrite_query

if TYPE_CHECKING:
    from ..dtd.model import Dtd

PLAN000 = register_code("PLAN000", Severity.INFO, "planner", "Query plan")
PLAN001 = register_code(
    "PLAN001", Severity.INFO, "planner", "Lazy-DFA fast lane eligible"
)
PLAN002 = register_code(
    "PLAN002", Severity.INFO, "planner",
    "Hybrid lane: qualifier-free prefix + network suffix",
)
PLAN003 = register_code(
    "PLAN003", Severity.INFO, "planner", "Full transducer network required"
)
PLAN004 = register_code(
    "PLAN004", Severity.INFO, "planner", "Planner refined the σ̂ bound"
)
PLAN005 = register_code(
    "PLAN005", Severity.WARNING, "planner",
    "Fast-lane demotion: query falls back to the transducer network",
)

#: The execution lanes, in increasing machinery order.
LANE_DFA = "dfa"
LANE_HYBRID = "hybrid"
LANE_NETWORK = "network"
LANES = (LANE_DFA, LANE_HYBRID, LANE_NETWORK)

_LANE_CODES = {LANE_DFA: PLAN001, LANE_HYBRID: PLAN002, LANE_NETWORK: PLAN003}


@dataclass(frozen=True)
class QueryPlan:
    """The static execution plan of one query.

    ``prefix`` is the qualifier-free spine prefix a DFA runs (``dfa``
    lane: the whole query); it includes the qualifier-free base of the
    first qualified step, where the network takes over.  ``residual``
    is what the network is left with — :func:`split_at_prefix`'s second
    half, for display (``ε`` has no concrete syntax), ``None`` when the
    prefix is the whole query.  ``sigma_refined`` is the planner's
    bound, always ``≤`` ``sigma_worst`` (``None`` means uncertifiable
    and counts as ∞).
    """

    query: str
    lane: str
    prefix: str | None
    prefix_steps: int
    qualifiers: int
    axis_steps: int
    sigma_worst: int | None
    sigma_refined: int | None
    rewrite_steps: int = 0
    residual: str | None = None

    def to_obj(self) -> dict[str, object]:
        """JSON-serializable form (ServingReport / bench / CLI codec)."""
        return {
            "query": self.query,
            "lane": self.lane,
            "prefix": self.prefix,
            "prefix_steps": self.prefix_steps,
            "qualifiers": self.qualifiers,
            "axis_steps": self.axis_steps,
            "sigma_worst": self.sigma_worst,
            "sigma_refined": self.sigma_refined,
            "rewrite_steps": self.rewrite_steps,
            "residual": self.residual,
        }

    @classmethod
    def from_obj(cls, obj: Mapping[str, object]) -> "QueryPlan":
        """Inverse of :meth:`to_obj`."""
        def _opt(name: str) -> int | None:
            value = obj[name]
            return None if value is None else int(value)  # type: ignore[call-overload]

        return cls(
            query=str(obj["query"]),
            lane=str(obj["lane"]),
            prefix=None if obj["prefix"] is None else str(obj["prefix"]),
            prefix_steps=int(obj["prefix_steps"]),  # type: ignore[call-overload]
            qualifiers=int(obj["qualifiers"]),  # type: ignore[call-overload]
            axis_steps=int(obj["axis_steps"]),  # type: ignore[call-overload]
            sigma_worst=_opt("sigma_worst"),
            sigma_refined=_opt("sigma_refined"),
            rewrite_steps=int(obj.get("rewrite_steps", 0)),  # type: ignore[call-overload]
            residual=None if obj.get("residual") is None else str(obj["residual"]),
        )


def pure(part: Rpeq) -> bool:
    """No qualifiers and no axis steps anywhere under ``part``."""
    return not any(
        isinstance(node, (Qualifier, Following, Preceding)) for node in part.walk()
    )


def _required_concrete(part: Rpeq) -> bool:
    """Whether ``part`` forces at least one concrete (non-wildcard) step.

    ``a`` and ``a+`` force a concrete step; ``a*``, ``E?`` and ``ε`` can
    match the empty path, so they force nothing; a union forces one only
    if **both** branches do.
    """
    if isinstance(part, Label):
        return not part.is_wildcard
    if isinstance(part, Plus):
        return not part.label.is_wildcard
    if isinstance(part, Concat):
        return _required_concrete(part.left) or _required_concrete(part.right)
    if isinstance(part, Union):
        return _required_concrete(part.left) and _required_concrete(part.right)
    # Star / OptionalExpr / Empty may match ε; axis steps and qualifiers
    # never appear here (prefixes are pure).
    return False


def split_at_prefix(expr: Rpeq) -> tuple[Rpeq, Rpeq]:
    """Split a query where the network would take over.

    Returns ``(prefix, residual)`` with ``expr ≡ prefix.residual``:
    ``prefix`` is the qualifier-free part of the spine, crossing into
    the qualifier-free base of the first qualified step; ``residual``
    starts at that step's qualifiers (``E[F]`` splits as ``E`` and
    ``ε[F]``) and runs to the end.  Either half may be
    :class:`~repro.rpeq.ast.Empty`.  The planner's ``QueryPlan.prefix``
    and the fast lane's executed split are both this function.
    """
    parts = concat_spine(expr)
    prefix: list[Rpeq] = []
    for index, part in enumerate(parts):
        if pure(part):
            prefix.append(part)
            continue
        residual = parts[index:]
        conditions: list[Rpeq] = []
        base = part
        while isinstance(base, Qualifier):
            conditions.append(base.condition)
            base = base.base
        if conditions and pure(base):
            prefix.extend(concat_spine(base))
            head: Rpeq = Empty()
            for condition in reversed(conditions):
                head = Qualifier(head, condition)
            residual[0] = head
        return concat_all(prefix), concat_all(residual)
    return concat_all(prefix), Empty()


def _min_bound(a: int | None, b: int | None) -> int | None:
    """Minimum of two σ̂ bounds where ``None`` means unbounded (∞)."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def plan_query(
    query: str | Rpeq,
    *,
    limits: ResourceLimits | None = None,
    dtd: "Dtd | None" = None,
    rewrite: bool = False,
    report: AnalysisReport | None = None,
) -> tuple[QueryPlan, AnalysisReport]:
    """Classify one query into an execution lane and refine its σ̂ bound.

    With ``rewrite=True`` the certified rewrite engine runs first (its
    ``RWR0xx`` diagnostics land in ``report``) and the plan describes
    the rewritten query; an uncertified rewrite is discarded and the
    original query is planned instead.  ``PLAN000`` always carries the
    full plan object; the lane-specific ``PLAN001``–``PLAN003`` and the
    strict-improvement ``PLAN004`` ride along.
    """
    out = report if report is not None else AnalysisReport()
    expr = parse(query) if isinstance(query, str) else query

    worst_certificate, _ = certify_cost(expr, limits=limits, dtd=dtd)
    sigma_worst = worst_certificate.sigma_bound

    planned = expr
    rewrite_steps = 0
    if rewrite:
        result, _ = rewrite_query(expr, dtd=dtd, report=out)
        if result.certified and result.changed:
            planned = result.rewritten
            rewrite_steps = len(result.steps)

    profile = analyze(planned)
    axis_steps = sum(
        1 for node in planned.walk() if isinstance(node, (Following, Preceding))
    )
    prefix_expr, residual_expr = split_at_prefix(planned)
    if profile.qualifiers == 0 and axis_steps == 0:
        lane = LANE_DFA
    elif _required_concrete(prefix_expr):
        lane = LANE_HYBRID
    else:
        lane = LANE_NETWORK

    if lane == LANE_DFA:
        # No qualifiers → no condition variables → every candidate is
        # unconditional: the formula-size bound collapses to 1.
        refined = 1
    else:
        planned_certificate, _ = certify_cost(planned, limits=limits, dtd=dtd)
        refined = planned_certificate.sigma_bound
    sigma_refined = _min_bound(refined, sigma_worst)

    has_prefix = not isinstance(prefix_expr, Empty)
    prefix = unparse(prefix_expr) if has_prefix else None
    prefix_steps = len(concat_spine(prefix_expr)) if has_prefix else 0
    plan = QueryPlan(
        query=unparse(planned),
        lane=lane,
        prefix=prefix,
        prefix_steps=prefix_steps,
        qualifiers=profile.qualifiers,
        axis_steps=axis_steps,
        sigma_worst=sigma_worst,
        sigma_refined=sigma_refined,
        rewrite_steps=rewrite_steps,
        residual=(
            None if isinstance(residual_expr, Empty) else display(residual_expr)
        ),
    )

    worst_text = "∞" if sigma_worst is None else str(sigma_worst)
    refined_text = "∞" if sigma_refined is None else str(sigma_refined)
    out.add(
        PLAN000,
        f"lane={lane} σ̂={refined_text} (worst {worst_text}) "
        f"prefix={prefix or 'ε'!r}",
        plan=plan.to_obj(),
    )
    lane_messages = {
        LANE_DFA: "qualifier-free: lazy-DFA eligible, no condition machinery",
        LANE_HYBRID: f"DFA-runnable prefix {prefix!r} "
        f"({prefix_steps} step(s)) before the first qualifier; the "
        f"network is left with {plan.residual!r}",
        LANE_NETWORK: "full transducer network required",
    }
    out.add(_LANE_CODES[lane], lane_messages[lane], lane=lane)
    if sigma_refined is not None and (
        sigma_worst is None or sigma_refined < sigma_worst
    ):
        out.add(
            PLAN004,
            f"refined σ̂={sigma_refined} tightens the worst-case bound "
            f"{worst_text}",
            sigma_refined=sigma_refined,
            sigma_worst=sigma_worst,
        )
    return plan, out


def plan_queries(
    queries: Mapping[str, str | Rpeq],
    *,
    limits: ResourceLimits | None = None,
    dtd: "Dtd | None" = None,
    rewrite: bool = False,
    report: AnalysisReport | None = None,
) -> tuple[dict[str, QueryPlan], AnalysisReport]:
    """Plan a whole query set and report its shared prefixes.

    Returns per-query plans plus one shared report: all ``PLAN0xx``
    (and, with ``rewrite=True``, ``RWR0xx``) diagnostics, and the
    ``RWR010`` common-prefix groups across the set.
    """
    out = report if report is not None else AnalysisReport()
    plans: dict[str, QueryPlan] = {}
    for query_id, query in queries.items():
        plans[query_id], _ = plan_query(
            query, limits=limits, dtd=dtd, rewrite=rewrite, report=out
        )
    factor_common_prefixes(queries, report=out)
    return plans, out


def lane_counts(plans: Mapping[str, QueryPlan]) -> dict[str, int]:
    """How many plans landed in each lane (all lanes always present)."""
    counts = {lane: 0 for lane in LANES}
    for plan in plans.values():
        counts[plan.lane] += 1
    return counts


def check_lane_coverage(payload: Mapping[str, object]) -> list[str]:
    """Validate an ``analyze --plan --json`` payload's lane invariants.

    This is the gate CI used to re-implement inline against the JSON:
    every lane of :data:`LANES` must be exercised by the corpus, every
    refined σ̂ must stay under its worst-case bound, and every rewrite
    certificate present in the diagnostics must have discharged.
    Returns a list of human-readable problems — empty means the payload
    passes (``spex analyze --plan --check-lanes`` exits nonzero
    otherwise, so local runs and CI share one checker).
    """
    problems: list[str] = []
    lanes: set[str] = set()
    for name, entry in payload.items():
        if not isinstance(entry, Mapping):
            problems.append(f"{name}: malformed payload entry")
            continue
        plan = entry.get("plan")
        if not isinstance(plan, Mapping):
            problems.append(f"{name}: entry carries no plan")
            continue
        lane = str(plan.get("lane"))
        if lane not in LANES:
            problems.append(f"{name}: unknown lane {lane!r}")
        lanes.add(lane)
        worst = plan.get("sigma_worst")
        refined = plan.get("sigma_refined")
        if worst is not None:
            if refined is None:
                problems.append(
                    f"{name}: refined σ̂ is unbounded but the worst case "
                    f"is {worst}"
                )
            elif int(refined) > int(worst):  # type: ignore[call-overload]
                problems.append(
                    f"{name}: refined σ̂ {refined} exceeds the worst-case "
                    f"bound {worst}"
                )
        analysis = entry.get("analysis")
        diagnostics = (
            analysis.get("diagnostics", [])
            if isinstance(analysis, Mapping)
            else []
        )
        for diag in diagnostics:
            if not isinstance(diag, Mapping):
                continue
            details = diag.get("details")
            if not isinstance(details, Mapping):
                continue
            certificate = details.get("certificate")
            if isinstance(certificate, Mapping) and not certificate.get(
                "discharged"
            ):
                problems.append(
                    f"{name}: rewrite certificate failed to discharge "
                    f"({diag.get('code')})"
                )
    missing = set(LANES) - lanes
    if missing:
        problems.append(
            f"corpus does not exercise every lane: missing {sorted(missing)}"
        )
    return problems
