"""Certified semantics-preserving query rewriting (``RWR0xx``).

The one query rewriter, and an *audited* one: every applied rule is

* **diagnosed** — one ``RWR0xx`` diagnostic per rewrite step, carrying
  the rewritten site, the before/after query text and the rule that
  fired; and
* **certified** — a machine-checked :class:`EquivalenceCertificate`,
  discharged by differential evaluation of the before/after queries on
  generated witness streams (seeded random trees over the query's label
  vocabulary plus decoy labels, a depth chain, and a flat fan-out).  A
  step whose certificate fails to discharge aborts the whole rewrite
  (``RWR090``, an error) and the original query is returned unchanged —
  a rewrite can never silently change answers.

Beyond the structural rules (epsilon elimination, closure collapse,
dead union branches, vacuous qualifiers — each strictly shrinks the
AST) the engine applies three optimizer-grade rules:

* **qualifier pushdown** (``RWR007``): ``(E1.E2)[F] → E1.(E2[F])`` —
  sound because ``eval((E1.E2)[F], u)`` and ``eval(E1.(E2[F]), u)`` both
  select exactly the ``v ∈ eval(E2, w)``, ``w ∈ eval(E1, u)`` with
  ``eval(F, v) ≠ ∅``.  The condition sub-network shrinks and the
  qualifier-free spine prefix grows (feeding the planner's hybrid lane).
* **qualifier hoisting** (``RWR008``): ``(E1[F] | E2[F]) → (E1|E2)[F]``
  — one condition sub-network instead of two.
* **schema-dead branch elimination** (``RWR006``): with a DTD, a union
  branch that
  :meth:`~repro.dtd.analysis.SchemaAnalyzer.condition_satisfiable_somewhere`
  proves empty *from every context* is dropped.

:func:`factor_common_prefixes` additionally reports (``RWR010``) the
shared concatenation prefixes across a multi-query set — the paper's
shared-prefix SDI evaluation opportunity — without transforming anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

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
from ..errors import ReproError
from ..rpeq.parser import parse
from ..rpeq.unparse import unparse
from .diagnostics import AnalysisReport, Severity, register_code
from .metrics import always_nonempty, labels_used

if TYPE_CHECKING:
    from ..dtd.analysis import SchemaAnalyzer
    from ..dtd.model import Dtd
    from ..xmlstream.events import Event

RWR001 = register_code(
    "RWR001", Severity.INFO, "rewrite", "Vacuous epsilon eliminated"
)
RWR002 = register_code(
    "RWR002", Severity.INFO, "rewrite", "Redundant closure collapsed"
)
RWR003 = register_code(
    "RWR003", Severity.INFO, "rewrite", "Trivially-true qualifier removed"
)
RWR004 = register_code(
    "RWR004", Severity.INFO, "rewrite", "Duplicate qualifier removed"
)
RWR005 = register_code(
    "RWR005", Severity.INFO, "rewrite", "Dead union branch eliminated"
)
RWR006 = register_code(
    "RWR006", Severity.INFO, "rewrite", "Schema-dead union branch eliminated"
)
RWR007 = register_code(
    "RWR007", Severity.INFO, "rewrite", "Qualifier pushed down a concatenation"
)
RWR008 = register_code(
    "RWR008", Severity.INFO, "rewrite", "Common qualifier hoisted out of a union"
)
RWR010 = register_code(
    "RWR010", Severity.INFO, "rewrite", "Common prefix shared across query set"
)
RWR090 = register_code(
    "RWR090", Severity.ERROR, "rewrite", "Equivalence certificate failed"
)
RWR091 = register_code(
    "RWR091", Severity.WARNING, "rewrite", "Rewrite step budget exhausted"
)

#: Default seed for witness-stream generation (deterministic end to end).
WITNESS_SEED = 20030305


def _render_query(expr: Rpeq) -> str:
    """Concrete syntax for diagnostics, lenient about bare epsilon.

    ``Empty`` inside a larger expression has no concrete spelling (the
    parser never builds such trees, but hand-built ASTs can — that is
    precisely the ``RWR001`` input), so fall back to the AST repr rather
    than refuse to diagnose the rewrite that removes it.
    """
    try:
        return unparse(expr)
    except ReproError:
        return repr(expr)


# ----------------------------------------------------------------------
# spine helpers (shared with the planner)


def concat_spine(expr: Rpeq) -> list[Rpeq]:
    """Left-to-right top-level parts of a concatenation chain.

    Iterative, since Lemma V.1 workloads are chains thousands of steps
    long.  A non-``Concat`` expression is its own one-part spine.
    """
    if not isinstance(expr, Concat):
        return [expr]
    parts: list[Rpeq] = []
    stack: list[Rpeq] = [expr]
    while stack:
        current = stack.pop()
        if isinstance(current, Concat):
            stack.append(current.right)
            stack.append(current.left)
        else:
            parts.append(current)
    return parts


# ----------------------------------------------------------------------
# equivalence certificates


@dataclass
class EquivalenceCertificate:
    """Proof obligation for one rewrite step, discharged differentially.

    ``before``/``after`` are the whole-query texts around the step.  The
    obligation is discharged by evaluating both queries on every witness
    stream and comparing the full ``(position, label)`` match sequences;
    any divergence records the failing stream in :attr:`failure` and
    leaves :attr:`discharged` false.
    """

    rule: str
    before: str
    after: str
    streams: int = 0
    matches: int = 0
    discharged: bool = False
    failure: str | None = None

    def to_obj(self) -> dict[str, object]:
        """JSON-serializable form (embedded in the RWR diagnostic)."""
        return {
            "rule": self.rule,
            "before": self.before,
            "after": self.after,
            "streams": self.streams,
            "matches": self.matches,
            "discharged": self.discharged,
            "failure": self.failure,
        }


def witness_streams(
    before: Rpeq,
    after: Rpeq,
    *,
    seed: int = WITNESS_SEED,
    dtd: "Dtd | None" = None,
) -> list[list["Event"]]:
    """Generate the witness streams a certificate is discharged on.

    The label vocabulary is the union of both queries' labels plus decoy
    labels that appear in neither (so absorbed/eliminated branches are
    exercised as *non*-matches too).  Shapes: seeded random trees, one
    deep chain, one flat fan-out — the three regimes of the paper's
    datasets.

    With a ``dtd``, witnesses are sampled *valid* documents instead:
    under a schema, equivalence is rightly judged modulo that schema
    (the schema-dead rule ``RWR006`` is only sound on conforming
    documents).  A DTD the sampler cannot generate from falls back to
    the generic streams — schema-dependent rewrites then simply fail
    their certificates and are discarded, which is the safe direction.
    """
    if dtd is not None:
        try:
            from ..dtd.generate import generate_document

            return [
                list(generate_document(dtd, seed=seed + i, max_depth=6))
                for i in range(6)
            ]
        except Exception:
            pass
    from ..workloads.generators import deep_chain, random_tree, wide_flat

    labels = sorted(labels_used(before) | labels_used(after))
    if not labels:
        labels = ["a"]
    alphabet = tuple(labels) + ("zz", "yy")
    streams = [
        list(random_tree(seed + i, 48, max_depth=5, labels=alphabet))
        for i in range(4)
    ]
    streams.append(list(deep_chain(8, label=labels[0], leaf_label=labels[-1])))
    streams.append(list(wide_flat(10, label=labels[0], child_label=labels[-1])))
    return streams


def _match_signature(expr: Rpeq, events: list["Event"]) -> list[tuple[int, str]]:
    """Evaluate ``expr`` and return its ``(position, label)`` matches."""
    from ..core.engine import SpexEngine

    engine = SpexEngine(expr, collect_events=False, preflight=False)
    return [(match.position, match.label) for match in engine.run(iter(events))]


def discharge(
    certificate: EquivalenceCertificate,
    before: Rpeq,
    after: Rpeq,
    *,
    seed: int = WITNESS_SEED,
    dtd: "Dtd | None" = None,
) -> bool:
    """Differentially discharge one certificate; returns success."""
    streams = witness_streams(before, after, seed=seed, dtd=dtd)
    matches = 0
    for index, events in enumerate(streams):
        try:
            got_before = _match_signature(before, events)
            got_after = _match_signature(after, events)
        except Exception as exc:  # evaluation itself failed: not discharged
            certificate.failure = f"stream {index}: evaluation raised {exc!r}"
            certificate.streams = index
            return False
        if got_before != got_after:
            certificate.failure = (
                f"stream {index}: {len(got_before)} vs {len(got_after)} "
                f"match(es) diverged"
            )
            certificate.streams = index + 1
            return False
        matches += len(got_before)
    certificate.streams = len(streams)
    certificate.matches = matches
    certificate.discharged = True
    return True


# ----------------------------------------------------------------------
# the rules


def _match_rule(
    node: Rpeq, schema: "SchemaAnalyzer | None"
) -> tuple[Rpeq, str] | None:
    """Try every rule at one node; return ``(replacement, code)``."""
    if isinstance(node, Concat):
        if isinstance(node.left, Empty):
            return node.right, RWR001
        if isinstance(node.right, Empty):
            return node.left, RWR001
        left, right = node.left, node.right
        # Closure fusion over one label test — but never Plus.Plus, which
        # requires at least TWO steps (not expressible as one closure).
        if (
            isinstance(left, (Star, Plus))
            and isinstance(right, (Star, Plus))
            and left.label == right.label
            and not (isinstance(left, Plus) and isinstance(right, Plus))
        ):
            if isinstance(left, Star) and isinstance(right, Star):
                return Star(left.label), RWR002
            return Plus(left.label), RWR002
        return None
    if isinstance(node, Union):
        left, right = node.left, node.right
        if left == right:
            return left, RWR005
        if isinstance(left, Empty):
            return OptionalExpr(right), RWR001
        if isinstance(right, Empty):
            return OptionalExpr(left), RWR001
        # Wildcard absorption within the same step kind.
        for absorber, absorbed in ((left, right), (right, left)):
            if (
                isinstance(absorber, Label)
                and absorber.is_wildcard
                and isinstance(absorbed, Label)
            ):
                return absorber, RWR005
            if (
                isinstance(absorber, Plus)
                and absorber.label.is_wildcard
                and isinstance(absorbed, Plus)
            ):
                return absorber, RWR005
            if (
                isinstance(absorber, Star)
                and absorber.label.is_wildcard
                and isinstance(absorbed, Star)
            ):
                return absorber, RWR005
        # Common qualifier hoisting: (E1[F] | E2[F]) -> (E1|E2)[F].
        if (
            isinstance(left, Qualifier)
            and isinstance(right, Qualifier)
            and left.condition == right.condition
        ):
            return Qualifier(Union(left.base, right.base), left.condition), RWR008
        # Schema-dead branch: a branch satisfiable from *no* context
        # (including the document root) selects nothing anywhere, so the
        # union collapses to the other branch in any evaluation context.
        if schema is not None:
            if not schema.condition_satisfiable_somewhere(left):
                return right, RWR006
            if not schema.condition_satisfiable_somewhere(right):
                return left, RWR006
        return None
    if isinstance(node, OptionalExpr):
        inner = node.inner
        if isinstance(inner, (Empty, OptionalExpr, Star)):
            return inner, RWR002 if not isinstance(inner, Empty) else RWR001
        if isinstance(inner, Plus):
            return Star(inner.label), RWR002
        return None
    if isinstance(node, Qualifier):
        if always_nonempty(node.condition):
            return node.base, RWR003
        if (
            isinstance(node.base, Qualifier)
            and node.base.condition == node.condition
        ):
            return node.base, RWR004
        # Qualifier pushdown: (E1.E2)[F] -> E1.(E2[F]).
        if isinstance(node.base, Concat):
            base = node.base
            return (
                Concat(base.left, Qualifier(base.right, node.condition)),
                RWR007,
            )
        return None
    # Labels, closures, axis steps, Empty: nothing fires at a leaf.
    return None


def _rewrite_site(
    node: Rpeq, schema: "SchemaAnalyzer | None"
) -> tuple[Rpeq, str, Rpeq, Rpeq] | None:
    """One bottom-up, leftmost rewrite anywhere under ``node``.

    Returns ``(new_node, code, site_before, site_after)`` for the first
    site (children before the node itself) where a rule fires, or
    ``None`` at fixpoint.  Recursion depth is the AST height.
    """
    if isinstance(node, (Concat, Union)):
        hit = _rewrite_site(node.left, schema)
        if hit is not None:
            return type(node)(hit[0], node.right), hit[1], hit[2], hit[3]
        hit = _rewrite_site(node.right, schema)
        if hit is not None:
            return type(node)(node.left, hit[0]), hit[1], hit[2], hit[3]
    elif isinstance(node, OptionalExpr):
        hit = _rewrite_site(node.inner, schema)
        if hit is not None:
            return OptionalExpr(hit[0]), hit[1], hit[2], hit[3]
    elif isinstance(node, Qualifier):
        hit = _rewrite_site(node.base, schema)
        if hit is not None:
            return Qualifier(hit[0], node.condition), hit[1], hit[2], hit[3]
        hit = _rewrite_site(node.condition, schema)
        if hit is not None:
            return Qualifier(node.base, hit[0]), hit[1], hit[2], hit[3]
    local = _match_rule(node, schema)
    if local is not None:
        replacement, code = local
        return replacement, code, node, replacement
    return None


# ----------------------------------------------------------------------
# the engine


@dataclass(frozen=True)
class RewriteStep:
    """One applied rule: the site and the whole-query before/after."""

    rule: str
    site_before: str
    site_after: str
    query_before: str
    query_after: str

    def to_obj(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "site_before": self.site_before,
            "site_after": self.site_after,
            "query_before": self.query_before,
            "query_after": self.query_after,
        }


@dataclass(frozen=True)
class RewriteResult:
    """The outcome of :func:`rewrite_query` for one query."""

    original: Rpeq
    rewritten: Rpeq
    steps: tuple[RewriteStep, ...]
    certificates: tuple[EquivalenceCertificate, ...]

    @property
    def changed(self) -> bool:
        return self.rewritten != self.original

    @property
    def certified(self) -> bool:
        """Every step's equivalence certificate discharged."""
        return all(cert.discharged for cert in self.certificates)

    def to_obj(self) -> dict[str, object]:
        return {
            "original": _render_query(self.original),
            "rewritten": _render_query(self.rewritten),
            "changed": self.changed,
            "certified": self.certified,
            "steps": [step.to_obj() for step in self.steps],
            "certificates": [cert.to_obj() for cert in self.certificates],
        }


def rewrite_query(
    query: str | Rpeq,
    *,
    dtd: "Dtd | None" = None,
    report: AnalysisReport | None = None,
    certify: bool = True,
    max_steps: int = 200,
    seed: int = WITNESS_SEED,
) -> tuple[RewriteResult, AnalysisReport]:
    """Rewrite one query to the rules' fixpoint, certifying every step.

    Each applied rule emits its ``RWR0xx`` diagnostic into ``report``
    (created if omitted) with the step and its certificate attached.
    With ``certify=True`` (the default) every step is differentially
    checked on witness streams *before* it is committed; a failing
    certificate emits ``RWR090`` (an error) and the function returns the
    **original** query untouched — certification is the gate, not an
    afterthought.  ``certify=False`` leaves the obligations recorded but
    undischarged (for callers that batch-verify separately, e.g. the
    differential test suite).

    Returns the :class:`RewriteResult` and the report.
    """
    out = report if report is not None else AnalysisReport()
    expr = parse(query) if isinstance(query, str) else query
    schema: "SchemaAnalyzer | None" = None
    if dtd is not None:
        from ..dtd.analysis import SchemaAnalyzer

        schema = SchemaAnalyzer(dtd)

    current = expr
    steps: list[RewriteStep] = []
    certificates: list[EquivalenceCertificate] = []
    for _ in range(max_steps):
        hit = _rewrite_site(current, schema)
        if hit is None:
            break
        new_expr, code, site_before, site_after = hit
        step = RewriteStep(
            rule=code,
            site_before=_render_query(site_before),
            site_after=_render_query(site_after),
            query_before=_render_query(current),
            query_after=_render_query(new_expr),
        )
        certificate = EquivalenceCertificate(
            rule=code, before=step.query_before, after=step.query_after
        )
        if certify:
            discharge(certificate, current, new_expr, seed=seed, dtd=dtd)
        out.add(
            code,
            f"{step.site_before or 'ε'!r} → {step.site_after or 'ε'!r}",
            step=step.to_obj(),
            certificate=certificate.to_obj(),
        )
        certificates.append(certificate)
        if certify and not certificate.discharged:
            out.add(
                RWR090,
                f"rule {code} on {step.query_before!r} failed its "
                f"equivalence certificate ({certificate.failure}); "
                f"rewrite aborted, original query kept",
                certificate=certificate.to_obj(),
            )
            return (
                RewriteResult(expr, expr, tuple(steps), tuple(certificates)),
                out,
            )
        steps.append(step)
        current = new_expr
    if _rewrite_site(current, schema) is not None:
        out.add(
            RWR091,
            f"rewrite stopped after {max_steps} step(s) before reaching "
            f"the fixpoint",
            max_steps=max_steps,
        )
    return RewriteResult(expr, current, tuple(steps), tuple(certificates)), out


# ----------------------------------------------------------------------
# multi-query common-prefix factoring


@dataclass(frozen=True)
class PrefixGroup:
    """Queries sharing a leading concatenation prefix."""

    prefix: str
    steps: int
    members: tuple[str, ...]

    def to_obj(self) -> dict[str, object]:
        return {
            "prefix": self.prefix,
            "steps": self.steps,
            "members": list(self.members),
        }


def factor_common_prefixes(
    queries: Mapping[str, str | Rpeq],
    *,
    report: AnalysisReport | None = None,
) -> tuple[tuple[PrefixGroup, ...], AnalysisReport]:
    """Report the shared concatenation prefixes across a query set.

    Groups queries by their longest common spine prefix (≥ 1 part shared
    by ≥ 2 queries) and emits one ``RWR010`` diagnostic per group — the
    statically-detected sharing a shared-prefix SDI evaluator (paper
    Sec. VIII) would exploit.  Purely informational: no query changes.
    """
    out = report if report is not None else AnalysisReport()
    spines: dict[str, list[str]] = {}
    for query_id, query in queries.items():
        expr = parse(query) if isinstance(query, str) else query
        spines[query_id] = [_render_query(part) for part in concat_spine(expr)]

    buckets: dict[str, list[str]] = {}
    for query_id, spine in sorted(spines.items()):
        if spine and spine[0]:
            buckets.setdefault(spine[0], []).append(query_id)

    groups: list[PrefixGroup] = []
    for first, members in sorted(buckets.items()):
        if len(members) < 2:
            continue
        common = list(spines[members[0]])
        for query_id in members[1:]:
            spine = spines[query_id]
            keep = 0
            for a, b in zip(common, spine):
                if a != b:
                    break
                keep += 1
            common = common[:keep]
        if not common:
            continue
        group = PrefixGroup(
            prefix=".".join(common), steps=len(common), members=tuple(members)
        )
        groups.append(group)
        out.add(
            RWR010,
            f"{len(group.members)} queries share the prefix "
            f"{group.prefix!r} ({group.steps} step(s))",
            **group.to_obj(),
        )
    ordered = tuple(sorted(groups, key=lambda g: (-len(g.members), g.prefix)))
    return ordered, out
