"""Static analysis of rpeq queries and compiled SPEX networks.

A multi-pass analyzer with a shared diagnostics framework (stable codes,
severities, source spans, text + JSON output — see ``docs/analysis.md``
for the full catalogue):

* :func:`lint_query` — the rpeq linter (``RPQ0xx``): trivially-true or
  contradictory qualifiers, redundant closures, dead union branches,
  and DTD-based satisfiability.
* :func:`verify_network` — structural invariants of the compiled
  transducer DAG (``NET001``–``NET010``): acyclicity, single
  input/output, split/join and creator/filter/determinant pairing,
  condition-variable scope, reachability; run by ``spex analyze``.
* :func:`certify_cost` — the paper's ``d·σ`` worst-case memory bound,
  cross-checked against :class:`~repro.limits.ResourceLimits`
  (``COST0xx``).
* :func:`check_snapshot_coverage` — behavioral meta-check that
  checkpoint snapshots capture all mutated transducer state
  (``NET020``/``NET021``).
* :func:`preflight` / :func:`ensure_preflight` — lint and cost, what the
  engines run before consuming a stream (opt-out via ``preflight=False``).
* :func:`rewrite_query` / :func:`factor_common_prefixes` — the certified
  rewrite engine (``RWR0xx``): every applied rule emits a diagnostic and
  a machine-checked equivalence certificate, discharged by differential
  evaluation on witness streams.
* :func:`plan_query` / :func:`plan_queries` — execution-lane planning
  (``PLAN0xx``): lazy-DFA / hybrid / full-network classification with a
  refined per-query ``σ̂`` bound (always ≤ the worst-case COST bound).
"""

from .cost import CostCertificate, certify_cost
from .diagnostics import (
    CODES,
    AnalysisReport,
    CodeInfo,
    Diagnostic,
    Severity,
    Span,
    all_codes,
    register_code,
)
from .lint import lint_query
from .metrics import QueryProfile, analyze, labels_used, uses_wildcard
from .netcheck import verify_network
from .planner import (
    LANES,
    QueryPlan,
    check_lane_coverage,
    lane_counts,
    plan_queries,
    plan_query,
    split_at_prefix,
)
from .preflight import ensure_preflight, preflight
from .rewrite import (
    EquivalenceCertificate,
    PrefixGroup,
    RewriteResult,
    RewriteStep,
    factor_common_prefixes,
    rewrite_query,
)
from .snapshot_check import check_snapshot_coverage

__all__ = [
    "AnalysisReport",
    "CODES",
    "CodeInfo",
    "CostCertificate",
    "Diagnostic",
    "EquivalenceCertificate",
    "LANES",
    "PrefixGroup",
    "QueryPlan",
    "QueryProfile",
    "RewriteResult",
    "RewriteStep",
    "Severity",
    "Span",
    "all_codes",
    "analyze",
    "certify_cost",
    "check_lane_coverage",
    "check_snapshot_coverage",
    "ensure_preflight",
    "factor_common_prefixes",
    "labels_used",
    "lane_counts",
    "lint_query",
    "plan_queries",
    "plan_query",
    "preflight",
    "register_code",
    "rewrite_query",
    "split_at_prefix",
    "uses_wildcard",
    "verify_network",
]
