"""Bulkheads, circuit breakers, deadlines, and admission control.

The multi-query engine's shared stream pass is a shared-fate hot path:
one pathological query or adversarial document degrades every query
riding the pass.  This module provides the serving-robustness policy
objects and state machines that :meth:`MultiQueryEngine.serve
<repro.core.multiquery.MultiQueryEngine.serve>` enforces:

* **Bulkheads** — each query is its own fault domain.  A query that
  raises, trips its :class:`~repro.limits.ResourceLimits`, or blows a
  deadline is *quarantined*: its sub-network is detached mid-stream,
  its buffers released, and its already-decided results flushed with the
  outcome marked ``degraded`` — while every healthy query keeps
  streaming.
* **Circuit breakers** — quarantine is not forever.  A per-query
  breaker (closed → open → half-open) sits out
  :attr:`BreakerPolicy.cooldown_documents` documents, then re-admits the
  query as a *probe* at the next document boundary; surviving
  :attr:`BreakerPolicy.probe_documents` documents closes the breaker,
  failing the probe re-opens it.  :attr:`BreakerPolicy.max_trips` caps
  how often a query may burn the service before it is out for good.
* **Admission control** — at registration time the PR 3 cost certifier's
  ``d·σ`` bound classifies each query *admit* / *admit-degraded*
  (tighter buffer ceilings) / *reject* under an
  :class:`AdmissionPolicy` budget, so a certifiably-over-budget query
  never touches the stream at all.
* **Load shedding** — when the aggregate buffered events across all live
  queries cross a high-water mark, the lowest-priority queries are shed
  (dropped from the pass, buffers released) until the pass fits — the
  stream itself is never dropped.

Every quarantine, trip, shed, re-admission and deadline expiry is
counted in a :class:`ServingReport` and mirrored into the engine's
robustness counters / CLI recovery summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

from ..errors import AdmissionError
from ..limits import ResourceLimits
from ..rpeq.ast import Rpeq
from .clock import Clock  # noqa: F401  (re-exported for serve() signatures)

if TYPE_CHECKING:
    from ..analysis.planner import QueryPlan


class BreakerState(str, Enum):
    """Circuit-breaker states (the classic three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Re-admission policy for quarantined queries.

    Attributes:
        cooldown_documents: document boundaries a tripped query sits out
            before a probe is attempted (1 = probe at the very next
            document).
        probe_documents: consecutive clean documents a half-open probe
            must survive before the breaker closes again.
        max_trips: total failures after which the breaker latches open
            permanently for this pass (``None`` = keep probing forever).
    """

    cooldown_documents: int = 1
    probe_documents: int = 1
    max_trips: int | None = 3

    def __post_init__(self) -> None:
        if self.cooldown_documents < 1:
            raise ValueError("cooldown_documents must be positive")
        if self.probe_documents < 1:
            raise ValueError("probe_documents must be positive")
        if self.max_trips is not None and self.max_trips < 1:
            raise ValueError("max_trips must be positive")


class CircuitBreaker:
    """Per-query breaker governing quarantine re-admission.

    The driver calls :meth:`record_failure` when the query's bulkhead
    trips, :meth:`admits` at every document boundary to learn whether
    the query may run the next document, and
    :meth:`record_document_success` when a document completes cleanly.
    """

    def __init__(self, policy: BreakerPolicy | None = None) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self.state = BreakerState.CLOSED
        self.trips = 0
        self._cooldown = 0
        self._probe_successes = 0

    @property
    def latched(self) -> bool:
        """Permanently open: the query exhausted ``max_trips``."""
        return (
            self.policy.max_trips is not None and self.trips >= self.policy.max_trips
        )

    def record_failure(self) -> None:
        """The query failed (error, limit, deadline): open the breaker."""
        self.trips += 1
        self.state = BreakerState.OPEN
        self._cooldown = self.policy.cooldown_documents
        self._probe_successes = 0

    def latch(self) -> None:
        """Force the breaker permanently open (poison-pill quarantine).

        Used by the shard layer (:mod:`repro.core.shards`) when a query
        is convicted of crashing its worker process: the breaker jumps
        straight to ``max_trips`` so :attr:`latched` holds — and keeps
        holding across checkpoint/resume, exactly like an organically
        exhausted breaker.  Requires a finite ``max_trips``.
        """
        if self.policy.max_trips is None:
            raise ValueError(
                "cannot latch a breaker whose policy has max_trips=None"
            )
        self.trips = max(self.trips, self.policy.max_trips)
        self.state = BreakerState.OPEN
        self._cooldown = self.policy.cooldown_documents
        self._probe_successes = 0

    def admits(self) -> bool:
        """Document boundary: may the query run the next document?

        An open breaker counts down its cooldown; reaching zero moves it
        to half-open, which admits the query as a probe.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.latched:
            return False
        if self.state is BreakerState.OPEN:
            self._cooldown -= 1
            if self._cooldown > 0:
                return False
            self.state = BreakerState.HALF_OPEN
            self._probe_successes = 0
        return True  # HALF_OPEN: probing

    def record_document_success(self) -> bool:
        """A document completed cleanly; returns ``True`` on re-closure."""
        if self.state is not BreakerState.HALF_OPEN:
            return False
        self._probe_successes += 1
        if self._probe_successes >= self.policy.probe_documents:
            self.state = BreakerState.CLOSED
            self._probe_successes = 0
            return True
        return False

    # ------------------------------------------------------------------
    # checkpointing (PR 2 protocol: plain JSON-able state)

    def snapshot(self) -> dict:
        return {
            "state": self.state.value,
            "trips": self.trips,
            "cooldown": self._cooldown,
            "probe_successes": self._probe_successes,
        }

    def restore(self, state: dict) -> None:
        self.state = BreakerState(state["state"])
        self.trips = int(state["trips"])
        self._cooldown = int(state["cooldown"])
        self._probe_successes = int(state["probe_successes"])


@dataclass(frozen=True)
class AdmissionPolicy:
    """Budget policy classifying queries before they touch the stream.

    Classification uses the planner's *refined* ``σ̂`` bound
    (:func:`repro.analysis.planner.plan_query`, which is ≤ the raw
    cost-certifier bound by construction — a qualifier-free query never
    builds condition formulas, so its bound collapses to 1), computed
    against ``depth_bound`` (or the engine's ``ResourceLimits.max_depth``):

    * ``σ̂ ≤ degrade_sigma`` (or no soft ceiling) → **admit**;
    * ``degrade_sigma < σ̂ ≤ reject_sigma`` → **admit degraded**: the
      query runs under tightened buffer ceilings
      (``degraded_max_buffered_events`` / ``degraded_max_pending``);
    * ``σ̂ > reject_sigma`` → **reject** (coded ``ADMIT003``);
    * uncertifiable queries (axis steps, unbounded closure-qualifier
      growth with unknown depth) follow ``on_uncertifiable``.

    Attributes:
        reject_sigma: hard ceiling on the certified ``σ̂`` bound.
        degrade_sigma: soft ceiling; between soft and hard the query is
            admitted with degraded buffers.
        on_uncertifiable: ``"admit"``, ``"degrade"`` (default) or
            ``"reject"`` for queries whose bound cannot be certified.
        depth_bound: stream depth ``d`` used for certification when the
            engine's limits set none.
        degraded_max_buffered_events / degraded_max_pending: the buffer
            ceilings imposed on degraded admissions (combined with any
            engine-level limits by taking the minimum).
    """

    reject_sigma: int | None = None
    degrade_sigma: int | None = None
    on_uncertifiable: str = "degrade"
    depth_bound: int | None = None
    degraded_max_buffered_events: int = 4096
    degraded_max_pending: int = 1024

    def __post_init__(self) -> None:
        if self.on_uncertifiable not in ("admit", "degrade", "reject"):
            raise ValueError(
                f"on_uncertifiable must be 'admit', 'degrade' or 'reject', "
                f"got {self.on_uncertifiable!r}"
            )
        for name in ("reject_sigma", "degrade_sigma", "depth_bound"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if (
            self.reject_sigma is not None
            and self.degrade_sigma is not None
            and self.degrade_sigma > self.reject_sigma
        ):
            raise ValueError("degrade_sigma must not exceed reject_sigma")

    def planning_limits(self, limits: ResourceLimits | None) -> ResourceLimits | None:
        """``limits`` as queries are planned and certified under them:
        with ``depth_bound`` filled in where they set no depth."""
        if self.depth_bound is None or (
            limits is not None and limits.max_depth is not None
        ):
            return limits
        return replace(limits or ResourceLimits(), max_depth=self.depth_bound)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of classifying one query.

    ``status`` is ``"admit"``, ``"degraded"`` or ``"rejected"``; ``code``
    identifies the rule that fired (``ADMIT000`` clean admit,
    ``ADMIT001`` σ̂ over the soft ceiling, ``ADMIT002`` uncertifiable
    degraded, ``ADMIT003`` σ̂ over the hard ceiling, ``ADMIT004``
    uncertifiable rejected).  ``limits`` is the effective
    :class:`~repro.limits.ResourceLimits` the query's network runs
    under (``None`` = the engine's own limits, unchanged).  ``lane``
    is the planner's execution-lane classification the σ̂ bound came
    from (``"dfa"`` / ``"hybrid"`` / ``"network"``).
    """

    status: str
    code: str
    reason: str
    sigma_bound: int | None = None
    limits: ResourceLimits | None = None
    lane: str | None = None

    @property
    def admitted(self) -> bool:
        return self.status != "rejected"

    @property
    def degraded(self) -> bool:
        return self.status == "degraded"


def _degraded_limits(
    base: ResourceLimits | None, policy: AdmissionPolicy
) -> ResourceLimits:
    """Tighten ``base`` to the policy's degraded buffer ceilings."""

    def tighter(current: int | None, ceiling: int) -> int:
        return ceiling if current is None else min(current, ceiling)

    base = base if base is not None else ResourceLimits()
    return replace(
        base,
        max_buffered_events=tighter(
            base.max_buffered_events, policy.degraded_max_buffered_events
        ),
        max_pending_candidates=tighter(
            base.max_pending_candidates, policy.degraded_max_pending
        ),
    )


def classify_admission(
    query: Rpeq,
    policy: AdmissionPolicy,
    limits: ResourceLimits | None = None,
    plan: "QueryPlan | None" = None,
) -> AdmissionDecision:
    """Classify one query against the budget policy (pure function).

    ``plan`` is an optional pre-computed
    :class:`~repro.analysis.planner.QueryPlan` (the engines pass the one
    they already built); without it the planner runs here.  Either way
    the budget is checked against the *refined* σ̂ bound — never looser
    than the raw worst-case COST bound.
    """
    from ..analysis.planner import plan_query

    if plan is None:
        plan, _report = plan_query(query, limits=policy.planning_limits(limits))
    sigma = plan.sigma_refined
    lane = plan.lane

    if sigma is None:
        if policy.on_uncertifiable == "reject":
            return AdmissionDecision(
                status="rejected",
                code="ADMIT004",
                reason="memory bound not certifiable (policy rejects "
                "uncertifiable queries)",
                lane=lane,
            )
        if policy.on_uncertifiable == "degrade":
            return AdmissionDecision(
                status="degraded",
                code="ADMIT002",
                reason="memory bound not certifiable; admitted with "
                "degraded buffer ceilings",
                limits=_degraded_limits(limits, policy),
                lane=lane,
            )
        return AdmissionDecision(
            status="admit",
            code="ADMIT000",
            reason="uncertifiable but policy admits",
            lane=lane,
        )

    if policy.reject_sigma is not None and sigma > policy.reject_sigma:
        return AdmissionDecision(
            status="rejected",
            code="ADMIT003",
            reason=f"certified σ̂={sigma} exceeds budget "
            f"{policy.reject_sigma}",
            sigma_bound=sigma,
            lane=lane,
        )
    if policy.degrade_sigma is not None and sigma > policy.degrade_sigma:
        return AdmissionDecision(
            status="degraded",
            code="ADMIT001",
            reason=f"certified σ̂={sigma} exceeds soft budget "
            f"{policy.degrade_sigma}; admitted with degraded buffer "
            f"ceilings",
            sigma_bound=sigma,
            limits=_degraded_limits(limits, policy),
            lane=lane,
        )
    return AdmissionDecision(
        status="admit",
        code="ADMIT000",
        reason=f"certified σ̂={sigma} within budget",
        sigma_bound=sigma,
        lane=lane,
    )


def ensure_admitted(query_id: str, decision: AdmissionDecision) -> None:
    """Raise :class:`~repro.errors.AdmissionError` on a rejection."""
    if not decision.admitted:
        raise AdmissionError(
            f"query {query_id!r} refused admission "
            f"[{decision.code}]: {decision.reason}",
            decision=decision,
        )


@dataclass(frozen=True)
class ServingPolicy:
    """Everything :meth:`MultiQueryEngine.serve` enforces per pass.

    Attributes:
        quarantine: bulkhead isolation on/off.  Off, a query failure
            propagates and kills the pass (the pre-serving behaviour);
            deadlines and shedding still apply.
        breaker: re-admission policy for quarantined queries.
        stream_deadline: wall-clock budget (seconds) for the whole pass;
            expiry detaches every live query with a per-query
            ``DEADLINE_STREAM`` outcome and ends the pass cleanly — no
            global abort, no exception.
        doc_deadline: wall-clock budget (seconds) per document; expiry
            detaches the live queries for the *rest of that document*
            (outcome ``DEADLINE_DOC``) and they rejoin at the next
            document boundary.
        shed_buffered_events: high-water mark on the *aggregate* buffered
            events across all live queries; crossing it sheds the
            lowest-priority queries (never the stream) until the pass
            fits again.  Shed queries rejoin at the next document
            boundary without a breaker penalty.
        priorities: per-query priority for shedding order — *lower*
            values are shed first; missing queries default to 0.
    """

    quarantine: bool = True
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    stream_deadline: float | None = None
    doc_deadline: float | None = None
    shed_buffered_events: int | None = None
    priorities: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stream_deadline is not None and self.stream_deadline <= 0:
            raise ValueError("stream_deadline must be positive")
        if self.doc_deadline is not None and self.doc_deadline <= 0:
            raise ValueError("doc_deadline must be positive")
        if self.shed_buffered_events is not None and self.shed_buffered_events < 1:
            raise ValueError("shed_buffered_events must be positive")


@dataclass
class QueryOutcome:
    """The serving fate of one query over one pass.

    ``status``: ``"ok"``, ``"quarantined"``, ``"deadline"``, ``"shed"``
    or ``"rejected"``.  ``degraded`` marks partial delivery — the query
    was detached at some point, so its match stream is a prefix of what
    an unperturbed run would have produced (or it ran under degraded
    admission buffers).
    """

    query_id: str
    status: str = "ok"
    code: str | None = None
    reason: str | None = None
    document: int | None = None
    degraded: bool = False
    matches: int = 0
    trips: int = 0
    readmissions: int = 0

    @property
    def healthy(self) -> bool:
        return self.status == "ok"

    def to_obj(self) -> dict:
        """JSON-serializable form (checkpoint / IPC codec): every field
        but the id, which keys the entry."""
        obj = self.__dict__.copy()  # the fields, without asdict's deep copy
        del obj["query_id"]
        return obj

    @classmethod
    def from_obj(cls, query_id: str, obj: Mapping) -> "QueryOutcome":
        """Inverse of :meth:`to_obj`."""
        return cls(query_id, **obj)


@dataclass
class ServingReport:
    """Counters and per-query outcomes for one serving pass.

    ``plans`` carries the planner metadata per query (the
    :meth:`~repro.analysis.planner.QueryPlan.to_obj` form: execution
    lane, qualifier-free prefix, refined σ̂) so operators see *why* each
    query was admitted the way it was — it rides the same codec as the
    counters through checkpoints, shard IPC and merges.
    """

    outcomes: dict[str, QueryOutcome] = field(default_factory=dict)
    plans: dict[str, dict] = field(default_factory=dict)
    documents_seen: int = 0
    quarantines: int = 0
    breaker_trips: int = 0
    probes: int = 0
    readmissions: int = 0
    load_sheds: int = 0
    deadline_hits: int = 0
    admitted: int = 0
    admitted_degraded: int = 0
    rejected: int = 0
    #: queries that left for good (:meth:`depart`): how many, how many of
    #: them with a ``degraded`` outcome, and the matches they were sent
    departed: int = 0
    departed_degraded: int = 0
    departed_matches: int = 0

    #: the integer counters serialized by :meth:`to_obj` (order matters
    #: only for readability; the codec is keyed, not positional).
    COUNTER_FIELDS = (
        "documents_seen",
        "quarantines",
        "breaker_trips",
        "probes",
        "readmissions",
        "load_sheds",
        "deadline_hits",
        "admitted",
        "admitted_degraded",
        "rejected",
        "departed",
        "departed_degraded",
        "departed_matches",
    )

    def outcome(self, query_id: str) -> QueryOutcome:
        if query_id not in self.outcomes:
            self.outcomes[query_id] = QueryOutcome(query_id)
        return self.outcomes[query_id]

    def depart(self, query_id: str) -> None:
        """Fold a removed query's outcome into the totals and drop it.

        A service mints a query id per connection; keeping an entry per
        id that ever subscribed would grow the report — and every
        checkpoint that carries it — with the service's history instead
        of its live subscription set.
        """
        self.plans.pop(query_id, None)
        outcome = self.outcomes.pop(query_id, None)
        if outcome is not None:
            self.departed += 1
            self.departed_degraded += outcome.degraded
            self.departed_matches += outcome.matches

    def to_obj(self) -> dict:
        """JSON-serializable form: ``{"outcomes": ..., "report": ...}``.

        The shape matches the serving section of the multiquery
        checkpoint payload, so checkpoints, shard IPC messages and
        merged reports all speak one codec.
        """
        return {
            "outcomes": {
                query_id: outcome.to_obj()
                for query_id, outcome in self.outcomes.items()
            },
            "plans": {
                query_id: dict(plan) for query_id, plan in self.plans.items()
            },
            "report": {name: getattr(self, name) for name in self.COUNTER_FIELDS},
        }

    @classmethod
    def from_obj(cls, obj: Mapping) -> "ServingReport":
        """Inverse of :meth:`to_obj`."""
        report = cls()
        counters = obj["report"]
        for name in cls.COUNTER_FIELDS:
            setattr(report, name, int(counters[name]))
        for query_id, state in obj["outcomes"].items():
            report.outcomes[query_id] = QueryOutcome.from_obj(query_id, state)
        for query_id, plan in obj["plans"].items():
            report.plans[query_id] = dict(plan)
        return report

    #: Outcome-status severity for :meth:`merged` conflicts.  Higher
    #: wins: a quarantine latch reported by one shard must never be
    #: papered over by a healthy outcome for the same query from
    #: another report (e.g. a restarted worker that no longer ran the
    #: query), and a rejection outranks transient detachments.
    _MERGE_SEVERITY = {
        "ok": 0,
        "closed": 1,
        "shed": 2,
        "deadline": 3,
        "rejected": 4,
        "quarantined": 5,
    }

    @classmethod
    def merged(cls, reports: "Iterable[ServingReport]") -> "ServingReport":
        """Merge per-shard reports into one service-wide report.

        Counters sum — except ``documents_seen``, which is the max
        (every shard watches the same stream, so summing would count
        each document once per shard).  Queries are normally disjoint
        across shards so outcomes union; when two reports *do* carry
        the same query id (a worker restarted mid-pass, or overlapping
        partial reports), the outcomes are combined instead of
        last-writer-wins: matches/readmissions sum, trips take the max,
        ``degraded`` latches (once degraded, always degraded), and the
        status/code/reason come from the more severe outcome per
        :data:`_MERGE_SEVERITY` — so a quarantine latch survives the
        merge no matter which report order the coordinator saw.

        An empty iterable merges to an empty (all-zero) report.
        """
        merged = cls()
        for report in reports:
            for name in cls.COUNTER_FIELDS:
                if name == "documents_seen":
                    merged.documents_seen = max(
                        merged.documents_seen, report.documents_seen
                    )
                else:
                    setattr(
                        merged, name, getattr(merged, name) + getattr(report, name)
                    )
            for query_id, outcome in report.outcomes.items():
                existing = merged.outcomes.get(query_id)
                if existing is None:
                    merged.outcomes[query_id] = outcome
                else:
                    merged.outcomes[query_id] = cls._combine(existing, outcome)
            # Plans are registration-time constants: every shard that
            # carries a query carries the same plan, so union suffices.
            merged.plans.update(report.plans)
        return merged

    @classmethod
    def _combine(cls, first: QueryOutcome, second: QueryOutcome) -> QueryOutcome:
        """Fold two outcomes for the same query into one (see merged)."""
        severity = cls._MERGE_SEVERITY
        worse, other = first, second
        if severity.get(second.status, 0) > severity.get(first.status, 0):
            worse, other = second, first
        return QueryOutcome(
            query_id=first.query_id,
            status=worse.status,
            code=worse.code,
            reason=worse.reason,
            document=worse.document if worse.document is not None else other.document,
            degraded=first.degraded or second.degraded,
            matches=first.matches + second.matches,
            trips=max(first.trips, second.trips),
            readmissions=first.readmissions + second.readmissions,
        )

    @property
    def healthy(self) -> list[str]:
        """Queries that finished the pass undisturbed."""
        return sorted(
            query_id
            for query_id, outcome in self.outcomes.items()
            if outcome.healthy and not outcome.degraded
        )

    def summary(self) -> str:
        """One log-friendly line, mirroring ``ErrorReport.summary``."""
        return (
            f"{len(self.outcomes) + self.departed} quer(y/ies) over "
            f"{self.documents_seen} document(s): "
            f"{self.quarantines} quarantine(s), "
            f"{self.breaker_trips} breaker trip(s), "
            f"{self.readmissions} readmission(s), "
            f"{self.load_sheds} shed(s), "
            f"{self.deadline_hits} deadline hit(s), "
            f"{self.rejected} rejected at admission"
        )
