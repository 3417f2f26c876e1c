"""Evaluating many queries against one stream — the SDI scenario.

Selective dissemination of information (the paper's motivating use case
and the setting of the XFilter/YFilter related work, Sec. VIII) evaluates
thousands of subscription queries against each incoming document.  The
paper's conclusion names multi-query processing as the natural next step
for SPEX; this module provides the shared-pass variant: the stream is
read **once**, every query runs on the execution lane its plan names —
the shared lazy DFA, a DFA-headed residual network or its own plain
network (:mod:`repro.core.fastlane`) — and one per-event transition,
:class:`ServePump`'s, drives them all.

Every way of consuming a pass is a caller of that transition:

* :meth:`MultiQueryEngine.run` — full evaluation; yields
  ``(query_id, match)`` pairs progressively, errors propagate.
* :meth:`MultiQueryEngine.serve` — the same pass with per-query fault
  domains (quarantine, breakers, deadlines, shedding).
* :meth:`MultiQueryEngine.start_pump` — :meth:`serve` with the source
  left to the caller: it drives the returned :class:`ServePump` (the
  TCP service and the shard workers pull a document or chunk at a time),
  attaches and closes subscriptions while it runs.
* :meth:`MultiQueryEngine.resume` / :meth:`~MultiQueryEngine.resume_pump`
  — either of them continued from a :meth:`~MultiQueryEngine.checkpoint`.
* :meth:`MultiQueryEngine.filter_documents` /
  :meth:`~MultiQueryEngine.filter_stream` — XFilter-style boolean
  matching: a query's first match (in a document) is its verdict, so
  what follows it costs nothing once every verdict is in.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import chain
from operator import length_hint
from typing import Any, Protocol, cast

from ..analysis.diagnostics import AnalysisReport
from ..errors import (
    CheckpointError,
    DeadlineExceeded,
    EngineError,
    ResourceLimitError,
    StreamError,
)
from ..limits import ResourceLimits, stream_guard
from ..rpeq.ast import Empty, Rpeq
from ..rpeq.parser import parse
from ..rpeq.unparse import unparse
from ..xmlstream.events import EndDocument, EndElement, Event, StartDocument, StartElement
from ..xmlstream.offsets import StreamCursor, skip_events
from ..xmlstream.parser import ParserLimits, iter_events
from ..xmlstream.recovery import (
    ErrorReport,
    RecoveryPolicy,
    as_policy,
    repair,
    unfinished,
)
from .checkpoint import Checkpoint
from .clock import Clock, as_clock
from .compiler import compile_network
from .engine import EngineStats, RobustnessCounters, recovery_policy
from .fastlane import CORE_DRIVEN_LANES, FastLaneCore, build_lane_runner
from .network import Network
from .optimize import OptimizationFlags, as_flags
from .output_tx import Match
from .path_transducers import DemandInputTransducer, InputTransducer
from .serving import (
    AdmissionDecision,
    AdmissionPolicy,
    BreakerState,
    CircuitBreaker,
    ServingPolicy,
    ServingReport,
    classify_admission,
    ensure_admitted,
)


class Runner(Protocol):
    """One query's evaluator on its execution lane, as :class:`ServePump`
    drives it — the table in ``docs/architecture.md`` says what each
    call owes.  A :class:`~repro.core.network.Network` is one, and so is
    each adapter of :mod:`repro.core.fastlane`."""

    def flush(self) -> list[Match]: ...
    @property
    def buffered_events(self) -> int: ...
    def deactivate(self) -> None: ...
    def snapshot(self) -> dict: ...
    def restore(self, state: dict) -> None: ...


class EventRunner(Runner, Protocol):
    """A runner the loop calls per event: one off the ``CORE_DRIVEN_LANES``."""

    def process_event(self, event: Event) -> list[Match]: ...


class MultiQueryEngine:
    """One stream pass, many rpeq queries."""

    def __init__(
        self,
        queries: Mapping[str, str | Rpeq] | Iterable[str],
        collect_events: bool = False,
        limits: ResourceLimits | None = None,
        preflight: bool = True,
        admission: AdmissionPolicy | None = None,
        rewrite: bool = False,
        optimize: bool | OptimizationFlags = True,
    ) -> None:
        """Register subscription queries.

        Args:
            queries: either a mapping ``query_id -> query`` or a plain
                iterable of query strings (ids are then the strings
                themselves).
            collect_events: whether matches should carry event fragments;
                off by default, as SDI workloads usually need match
                notifications, not reconstructed fragments.
            limits: resource guards (see
                :class:`repro.limits.ResourceLimits`) — on a shared SDI
                pass, the defense that keeps one depth-bomb document
                from taking every subscription down with it.
            preflight: statically analyze every registered query before
                accepting the engine; per-query reports are kept in
                :attr:`analysis`.
            admission: cost-certified admission control
                (:class:`~repro.core.serving.AdmissionPolicy`).  Each
                query is classified at registration; rejected queries
                never touch the stream and degraded admissions run under
                tightened buffer ceilings.  Decisions are kept in
                :attr:`admissions`.
            rewrite: opt-in certified query rewriting
                (:func:`repro.analysis.rewrite.rewrite_query`).  Each
                registered query is rewritten before planning, admission
                and pre-flight; a rewrite is applied **only** if every
                step's equivalence certificate discharged, otherwise the
                original query runs.  Results are kept in
                :attr:`rewrites`.
            optimize: ``True``, ``False`` or an
                :class:`~repro.core.optimize.OptimizationFlags`.
                ``production_network`` selects how every transducer
                network is compiled and driven, as for
                :func:`~repro.core.compiler.compile_network`; the
                ``dfa_lane``/``hybrid_gate`` knobs control whether
                planned fast lanes *execute* on the shared lazy DFA
                (:mod:`repro.core.fastlane`) — with both off every
                query runs on its transducer network regardless of the
                planner's lane.  The lanes each query actually ran on
                are kept in :attr:`lane_executions`, compile-time
                demotions (``PLAN005``) in :attr:`lane_demotions`.

        Raises:
            StaticAnalysisError: pre-flight analysis rejected one of the
                queries (the exception names the offending query id).
        """
        #: the registered queries, as they run (after the opt-in rewrite)
        self.queries: dict[str, Rpeq] = {}
        self._texts: dict[str, str] = {}
        self.collect_events = collect_events
        self.limits = limits
        self.optimize = as_flags(optimize)
        #: lifetime recovery counters (a ``SpexEngine``'s are these)
        self.robustness = RobustnessCounters()
        #: the execution lane each compiled query actually runs on
        #: (``"dfa"``/``"hybrid"``/``"gated"``/``"network"``), refreshed
        #: by every compile pass — the planner invariant CI asserts.
        self.lane_executions: dict[str, str] = {}
        #: per-query reason a planned fast lane was demoted to the
        #: network at compile time (surfaced as ``PLAN005``).
        self.lane_demotions: dict[str, str] = {}
        self._fastlane_core: FastLaneCore | None = None
        self.admission = admission
        self.rewrite = rewrite
        #: per-query :class:`~repro.analysis.rewrite.RewriteResult` for
        #: queries the certified rewriter changed (``rewrite=True`` only)
        self.rewrites: dict = {}
        #: per-query :class:`~repro.analysis.planner.QueryPlan` —
        #: execution lane, qualifier-free prefix and refined σ̂ bound
        self.plans: dict = {}
        #: per-query :class:`~repro.core.serving.AdmissionDecision`
        #: (empty without an admission policy)
        self.admissions: dict[str, AdmissionDecision] = {}
        #: per-query pre-flight reports (``None`` with ``preflight=False``)
        self.analysis: dict | None = {} if preflight else None
        if not isinstance(queries, Mapping):
            queries = {text: text for text in queries}
        for query_id, query in queries.items():
            self._register(query_id, query)
        #: :class:`~repro.core.serving.ServingReport` of the most recent
        #: :meth:`serve` pass (``None`` before the first one)
        self.serving: ServingReport | None = None
        self._pump: ServePump | None = None  # of the most recent pass
        self._last_cursor: StreamCursor | None = None
        self._breakers: dict[str, CircuitBreaker] | None = None

    def __len__(self) -> int:
        return len(self.queries)

    @property
    def stats(self) -> EngineStats:
        """Roll-up of the most recent compile pass and lifetime counters.

        The ``fastlane_*`` fields carry the lane-execution invariant the
        ``lane-differential`` CI job asserts: every planned dfa-lane
        query (under default flags) must show up in
        ``fastlane_dfa_queries``, i.e. it actually executed on the
        shared lazy DFA rather than a transducer network.
        """
        lanes = Counter(self.lane_executions.values())
        stats = EngineStats(
            fastlane_dfa_queries=lanes["dfa"],
            fastlane_hybrid_queries=lanes["hybrid"],
            fastlane_gated_queries=lanes["gated"],
            fastlane_demotions=len(self.lane_demotions),
        )
        core = self._fastlane_core
        if core is not None:
            stats.fastlane_states = core.states_interned
            stats.fastlane_saturated_steps = core.saturated_steps
            for fed, parked in core.gate_counts().values():
                stats.fastlane_gate_fed_events += fed
                stats.fastlane_gate_parked_events += parked
        self.robustness.copy_into(stats)
        return stats

    @property
    def gate_counts(self) -> dict[str, tuple[int, int]]:
        """Per gated query, ``(events fed, events parked)`` of the most
        recent pass: how much of the stream its residual network saw."""
        core = self._fastlane_core
        return {} if core is None else core.gate_counts()

    # ------------------------------------------------------------------
    # registration / admission

    def _is_admitted(self, query_id: str) -> bool:
        decision = self.admissions.get(query_id)
        return decision is None or decision.admitted

    def _effective_limits(self, query_id: str) -> ResourceLimits | None:
        """The limits a query's network runs under (degraded or engine)."""
        decision = self.admissions.get(query_id)
        if decision is not None and decision.limits is not None:
            return decision.limits
        return self.limits

    def _preflight_one(self, query_id: str, query: Rpeq) -> AnalysisReport:
        from ..analysis.preflight import ensure_preflight
        from ..errors import StaticAnalysisError

        try:
            return ensure_preflight(
                query,
                limits=self.limits,
                optimize=self.optimize,
                collect_events=self.collect_events,
            )
        except StaticAnalysisError as exc:
            raise StaticAnalysisError(
                f"query {query_id!r}: {exc}", report=exc.report
            ) from exc

    def add_query(
        self,
        query_id: str,
        query: str | Rpeq,
        require_admission: bool = False,
    ) -> AdmissionDecision | None:
        """Register one more subscription (effective from the next pass).

        Runs the same admission classification and pre-flight analysis
        as the constructor.  Returns the admission decision (``None``
        without an admission policy); with ``require_admission=True`` a
        rejection raises :class:`~repro.errors.AdmissionError` instead
        of registering the query as rejected.
        """
        if query_id in self.queries:
            raise EngineError(f"query {query_id!r} already registered")
        return self._register(query_id, query, require_admission)

    def _register(
        self, query_id: str, query: str | Rpeq, require_admission: bool = False
    ) -> AdmissionDecision | None:
        """Rewrite → plan → admit → pre-flight one query, then record it.

        Nothing is recorded when a step refuses the query (a rejection
        under ``require_admission``, a pre-flight error).
        """
        from dataclasses import replace

        from ..analysis.planner import plan_query

        expr = parse(query) if isinstance(query, str) else query
        rewritten = None
        if self.rewrite:
            # Only a fully certified rewrite replaces the query; a failed
            # certificate (or a no-op) leaves the original untouched.
            from ..analysis.rewrite import rewrite_query

            result, _report = rewrite_query(expr)
            if result.certified and result.changed:
                rewritten = result
                expr = result.rewritten
        limits = self.limits
        if self.admission is not None:
            limits = self.admission.planning_limits(limits)
        plan, _report = plan_query(expr, limits=limits)
        if rewritten is not None:
            # The planner saw the rewritten query, so it counted zero
            # steps — stamp the actual count from the applied rewrite.
            plan = replace(plan, rewrite_steps=len(rewritten.steps))
        decision = None
        if self.admission is not None:
            decision = classify_admission(
                expr, self.admission, self.limits, plan=plan
            )
            if require_admission:
                ensure_admitted(query_id, decision)
            if not decision.admitted:
                self.robustness.admissions_rejected += 1
        if self.analysis is not None and (decision is None or decision.admitted):
            self.analysis[query_id] = self._preflight_one(query_id, expr)
        self.queries[query_id] = expr
        self._texts[query_id] = unparse(expr)  # as checkpoints name it
        self.plans[query_id] = plan
        if rewritten is not None:
            self.rewrites[query_id] = rewritten
        if decision is not None:
            self.admissions[query_id] = decision
        return decision

    def remove_query(self, query_id: str) -> None:
        """Drop a subscription (effective from the next pass)."""
        if query_id not in self.queries:
            raise EngineError(f"query {query_id!r} is not registered")
        del self.queries[query_id]
        del self._texts[query_id]
        self.admissions.pop(query_id, None)
        self.plans.pop(query_id, None)
        self.rewrites.pop(query_id, None)
        self.lane_executions.pop(query_id, None)
        self.lane_demotions.pop(query_id, None)
        if self.analysis is not None:
            self.analysis.pop(query_id, None)
        if self.serving is not None and query_id not in (self._breakers or ()):
            # closed in the pump (or never attached): nothing will touch
            # its outcome again, so the report keeps the totals only
            self.serving.depart(query_id)

    def _compile_one(
        self,
        query_id: str,
        cursor: StreamCursor,
        collect_events: bool | None = None,
        lane: str | None = None,
    ) -> Runner:
        """Compile one query onto its execution lane, for the pass that
        ``cursor`` counts.

        Returns a *runner* (``docs/architecture.md``): a plain
        transducer :class:`Network` or one of the fast-lane runners of
        :mod:`repro.core.fastlane`.  Fast lanes require what they were
        proved against: no event collection.  Limits keep the lanes (the
        stream's are checked against the cursor, and no fast lane
        buffers an event or builds a formula) but for one ceiling,
        ``max_pending_candidates``, which demotes as
        :func:`~repro.core.fastlane.build_lane_runner` says.

        ``lane`` is the lane a checkpoint says the query was executing
        on; the runner compiled here must land on it to take its
        snapshot.

        Raises:
            CheckpointError: the query compiles onto another lane than
                ``lane`` under this engine's flags and limits.
        """
        collect = self.collect_events if collect_events is None else collect_events
        limits = self._effective_limits(query_id)
        query = self.queries[query_id]

        def factory(
            expr: Rpeq = query, source: InputTransducer | None = None
        ) -> Network:
            return compile_network(
                expr,
                collect_events=collect,
                optimize=self.optimize,
                limits=limits,
                source=source,
            )[0]

        runner: Runner | None = None
        executed = "network"
        flags = self.optimize
        if lane != "network" and not collect and (flags.dfa_lane or flags.hybrid_gate):
            plan = self.plans.get(query_id)
            if __debug__ and plan is not None:
                # The executed split and the planned prefix are one
                # function of the query; a plan computed for another
                # expression (a stale rewrite, a hand-edited plan) must
                # not route this one.
                from ..analysis.planner import split_at_prefix

                prefix = split_at_prefix(query)[0]
                have = None if isinstance(prefix, Empty) else unparse(prefix)
                assert have == plan.prefix, (query_id, have, plan.prefix)
            if self._fastlane_core is None:
                self._fastlane_core = FastLaneCore(cursor)
            runner, executed, reason = build_lane_runner(
                self._fastlane_core,
                query_id,
                query,
                plan,
                flags,
                lambda residual: factory(residual, DemandInputTransducer()),
                limits,
            )
            if reason is not None:
                self.lane_demotions[query_id] = reason
        if lane is not None and executed != lane:
            raise CheckpointError(
                f"query {query_id!r} was checkpointed on the {lane} lane but "
                f"compiles onto the {executed} lane here; resume with the "
                f"checkpoint's optimization flags and the checkpointed "
                f"pass's max_pending_candidates"
            )
        self.lane_executions[query_id] = executed
        return runner if runner is not None else factory()

    def _compile_all(
        self, cursor: StreamCursor, collect_events: bool | None = None
    ) -> dict[str, Runner]:
        # A fresh pass gets a fresh shared DFA: networks restart their
        # per-pass state, so the fast-lane core must too.
        self._fastlane_core = None
        self.lane_executions = {}
        self.lane_demotions = {}
        runners: dict[str, Runner] = {}
        for query_id in self.queries:
            if not self._is_admitted(query_id):
                continue
            runners[query_id] = self._compile_one(query_id, cursor, collect_events)
        return runners

    def run(
        self,
        source: str | Iterable[Event],
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
        cursor: StreamCursor | None = None,
    ) -> Iterator[tuple[str, Match]]:
        """Evaluate all queries in one pass; yield matches progressively.

        With ``on_error="skip"``/``"repair"`` the source is treated as a
        sequence of documents, each evaluated as if alone; a malformed
        document (or one that trips a resource limit) files a
        per-document record in ``report`` and the pass continues with
        the next document — one poisoned subscriber document no longer
        kills the shared pipeline.  Under skip, and under repair while a
        limit is armed, a document's matches (not its events) are held
        until its ``</$>`` shows it good; otherwise each leaves at the
        event that decides it (:meth:`ServePump._recover`).  Where an
        event iterable ends inside a document, that document is a
        prefix under every policy: nothing is recorded, skip withholds
        it.  A cut source raises :class:`~repro.errors.StreamError`.

        Passing a ``cursor`` (strict mode only) makes the pass
        checkpointable via :meth:`checkpoint`.

        The pass is a :class:`ServePump` under the inert policy: no
        bulkheads (a failing query propagates), no deadlines, no
        shedding — the same per-event transition :meth:`serve` runs.
        """
        recovery = recovery_policy(on_error, cursor)
        pump = self._open_pump(_INERT, cursor=cursor)
        yield from self._drive(pump, source, recovery, report)

    def _open_pump(
        self,
        policy: ServingPolicy,
        clock: Clock | None = None,
        cursor: StreamCursor | None = None,
        serving: ServingReport | None = None,
        collect_events: bool | None = None,
    ) -> "ServePump":
        """Compile every admitted query into a fresh pump.

        Without a ``serving`` report the pass is not a serving pass: it
        leaves :attr:`serving` alone and checkpoints without breaker
        state.
        """
        clock = as_clock(clock)
        self._last_cursor = cursor
        if cursor is None:
            cursor = StreamCursor()  # private: checks, but cannot checkpoint
        runners = self._compile_all(cursor, collect_events)
        breakers = {query_id: CircuitBreaker(policy.breaker) for query_id in runners}
        self._breakers = breakers if serving is not None else None
        if serving is None:
            serving = ServingReport()
        self._pump = ServePump(self, runners, policy, serving, breakers, clock, cursor)
        return self._pump

    def _drive(
        self,
        pump: "ServePump",
        source: str | Iterable[Event],
        recovery: RecoveryPolicy,
        report: ErrorReport | None,
        parser_limits: ParserLimits | None = None,
    ) -> Iterator[tuple[str, Match]]:
        """Pull ``source`` through ``pump`` under a recovery policy."""
        events = iter_events(source, limits=parser_limits)
        if recovery is RecoveryPolicy.STRICT:
            # The pump's own cursor validates on the fly, so malformed
            # input raises the documented StreamError instead of silently
            # confusing every subscription's transducer stacks at once.
            return pump._pull(events)
        return chain.from_iterable(pump._recover(events, recovery, report))

    # ------------------------------------------------------------------
    # serving: bulkheads, breakers, deadlines, shedding

    def serve(
        self,
        source: str | Iterable[Event],
        policy: ServingPolicy | None = None,
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
        cursor: StreamCursor | None = None,
        clock: Clock | None = None,
        parser_limits: ParserLimits | None = None,
    ) -> Iterator[tuple[str, Match]]:
        """Evaluate all queries with per-query fault domains.

        Like :meth:`run`, but each query is a *bulkhead*: a query that
        raises, trips its resource limits, or blows a deadline is
        quarantined — its sub-network detached mid-stream, its buffers
        released, its already-decided results flushed, and its
        :class:`~repro.core.serving.QueryOutcome` marked ``degraded`` —
        while every healthy query keeps streaming, byte-identical to a
        run without the poisoned neighbour.  A per-query circuit breaker
        (closed → open → half-open) re-admits quarantined queries at
        document boundaries; ``policy.stream_deadline`` /
        ``policy.doc_deadline`` (measured on ``clock``) yield per-query
        ``DEADLINE_*`` outcomes — never a global abort — and
        ``policy.shed_buffered_events`` sheds the lowest-priority
        queries (never the stream) under buffer pressure.

        The pass's :class:`~repro.core.serving.ServingReport` is kept in
        :attr:`serving`.  Strict passes given a ``cursor`` remain
        checkpointable; breaker and quarantine state round-trip through
        :meth:`checkpoint`/:meth:`resume`.  ``parser_limits`` arms the
        untrusted-input hardening of the XML layer
        (:class:`~repro.xmlstream.parser.ParserLimits`).

        Under ``on_error="skip"``/``"repair"`` every recovered document
        is evaluated as if alone, its matches in the order a strict pass
        emits them, held to its ``</$>`` as :meth:`run` holds them.
        """
        recovery = recovery_policy(on_error, cursor)
        pump = self.start_pump(policy, clock, cursor)
        return self._drive(pump, source, recovery, report, parser_limits)

    def _admission_outcome(self, serving: ServingReport, query_id: str) -> bool:
        """Record a query's plan and admission decision in ``serving``.

        Returns ``True`` when the query may join the pass (cleanly or
        degraded), ``False`` on a rejection.
        """
        serving.plans[query_id] = self.plans[query_id].to_obj()
        outcome = serving.outcome(query_id)
        decision = self.admissions.get(query_id)
        if decision is None:
            serving.admitted += 1
            return True
        if not decision.admitted:
            outcome.status = "rejected"
            outcome.code = decision.code
            outcome.reason = decision.reason
            serving.rejected += 1
            return False
        serving.admitted += 1
        if decision.degraded:
            outcome.degraded = True
            outcome.code = decision.code
            outcome.reason = decision.reason
            serving.admitted_degraded += 1
        return True

    def start_pump(
        self,
        policy: ServingPolicy | None = None,
        clock: Clock | None = None,
        cursor: StreamCursor | None = None,
        quarantined: Iterable[str] = (),
    ) -> "ServePump":
        """Open a push-mode serving pass (see :class:`ServePump`).

        This is :meth:`serve` with the event loop inverted: instead of
        handing over a source iterable and consuming a match iterator,
        the caller *pushes* events into the returned pump one at a time
        and receives each event's matches synchronously.  The asyncio
        service frontend (:mod:`repro.service`) is built on this — an
        event arriving over the network cannot be pulled by a generator,
        so the pump is the shape the state machine must have there.
        :meth:`serve` is this call plus a pull loop over
        :meth:`ServePump.feed`, which is what makes a served
        subscriber's match stream bit-identical to an offline
        :meth:`serve` pass by construction.

        Every fed event is checked and counted by the pump's
        :class:`~repro.xmlstream.offsets.StreamCursor` before anything
        processes it, so a malformed push raises
        :class:`~repro.errors.StreamError` exactly where :meth:`run`
        would.  Passing the ``cursor`` keeps the pass checkpointable:
        :meth:`checkpoint` may be called between any two :meth:`feed`
        calls.

        ``quarantined`` names queries that enter the pass already
        poisoned: their breakers are latched open before the first event
        (outcome ``POISON``), so they never run and never re-admit —
        the shard layer uses this to keep convicted poison-pill queries
        out of a freshly started worker without a checkpoint to carry
        the latch.
        """
        policy = policy if policy is not None else ServingPolicy()
        serving = ServingReport()
        self.serving = serving
        for query_id in self.queries:
            self._admission_outcome(serving, query_id)
        pump = self._open_pump(policy, clock, cursor, serving)
        pump._latch_poisoned(quarantined)
        return pump

    # ------------------------------------------------------------------
    # checkpoint / resume

    def checkpoint(self) -> Checkpoint:
        """Capture the in-flight shared pass as a :class:`Checkpoint`.

        Valid between events of a strict :meth:`run` that was given a
        ``cursor``; every live subscription's runner is snapshotted
        against the one shared source position.  A pulled pass is
        between events once it has yielded the last match of one.

        Raises:
            CheckpointError: no cursor-tracked strict pass, or a mid-event cut.
        """
        pump = self._pump
        if self._last_cursor is None or pump is None:
            raise CheckpointError(
                "nothing to checkpoint: pass a StreamCursor to run() "
                "(strict mode) and start consuming it first"
            )
        if undelivered := length_hint(pump._held):  # a resume would skip them
            raise CheckpointError(
                f"{undelivered} match(es) of the last event not consumed yet; "
                f"checkpoint after its last match"
            )
        payload = {
            # registration order is the cross-query emission order, so
            # it is data: a list, which a sorted-key file cannot reorder
            "subscriptions": [
                [query_id, text, self.lane_executions.get(query_id)]
                for query_id, text in self._texts.items()
            ],
            "collect_events": self.collect_events,
            "optimize": self.optimize.to_obj(),
            "cursor": self._last_cursor.state(),
            "runners": {
                query_id: runner.snapshot() for query_id, runner in pump._live.items()
            },
        }
        if self._breakers is not None and self.serving is not None:
            payload["serving"] = {
                "breakers": {
                    query_id: breaker.snapshot()
                    for query_id, breaker in self._breakers.items()
                },
                **self.serving.to_obj(),
            }
        self.robustness.checkpoints_written += 1
        return Checkpoint(kind="multiquery", payload=payload)

    def resume(
        self,
        checkpoint: Checkpoint,
        source: str | Iterable[Event],
        policy: ServingPolicy | None = None,
        clock: Clock | None = None,
        parser_limits: ParserLimits | None = None,
    ) -> Iterator[tuple[str, Match]]:
        """Continue a checkpointed shared pass against ``source``.

        The source must replay the stream the checkpoint was taken
        from; matches before the checkpoint plus matches after this
        resume equal an uninterrupted pass.  Compatibility checks are eager.

        Checkpoints taken from a :meth:`serve` pass carry quarantine and
        breaker state: only the queries that were live at the cut are
        restored, tripped queries stay out until their *restored*
        breaker re-admits them at a document boundary (a latched breaker
        never does), and the resumed pass continues under ``policy``
        (defaults to a fresh :class:`~repro.core.serving.ServingPolicy`
        — pass the original one to keep deadlines and shedding).

        Raises:
            CheckpointError: the checkpoint came from a different engine
                kind, a different subscription set, or different options.
            StreamError: ``source`` is shorter than the checkpointed
                position.
        """
        payload = checkpoint.require("multiquery")
        pump = self._revive(payload, policy, clock)
        # The restored cursor carries the envelope state at the cut, so
        # the tail is checked exactly as the uninterrupted pass would have.
        events = iter_events(source, limits=parser_limits)
        return pump._pull(skip_events(events, pump.cursor.events_read))

    def resume_pump(
        self,
        checkpoint: Checkpoint,
        policy: ServingPolicy | None = None,
        clock: Clock | None = None,
    ) -> "ServePump":
        """Reconstruct a checkpointed serving pass as a push-mode pump.

        This is the *service-native* resume path: where :meth:`resume`
        couples the restored state to a pull-mode source iterator, this
        returns a live :class:`ServePump` with **no source attached** —
        the caller (the asyncio service frontend) pushes events arriving
        over the network into it, exactly as :meth:`start_pump` callers
        do.  Every restored artifact is the same as :meth:`resume`'s:
        the runner snapshots, the stream cursor, the
        :class:`~repro.core.serving.ServingReport` (so document indices
        continue where the cut left them), and the circuit breakers —
        including latched quarantine convictions,
        which stay latched without any offline engine round-trip.

        The caller owns the replay contract :meth:`resume` enforces with
        ``skip_events``: the first event pushed into the returned pump
        must be the first event *after* the checkpoint cut (the pump's
        restored cursor continues counting from there).

        Raises:
            CheckpointError: wrong engine kind / subscription set /
                options, or the checkpoint carries no serving state
                (it was taken from a plain :meth:`run` pass, which has
                no breakers or report to revive a pump from).
        """
        payload = checkpoint.require("multiquery")
        pump = self._revive(payload, policy, clock)
        if "serving" not in payload:
            raise CheckpointError(
                "checkpoint carries no serving state: only checkpoints "
                "taken from a serve()/start_pump() pass can resume as a "
                "pump"
            )
        return pump

    def _revive(
        self,
        payload: dict,
        policy: ServingPolicy | None,
        clock: Clock | None,
    ) -> "ServePump":
        """Shared state restoration of :meth:`resume`/:meth:`resume_pump`.

        Validates the checkpoint against this engine's registrations
        and options, revives every snapshotted runner on the lane the
        checkpoint names for it, the stream cursor and — for a serving
        pass — the report and the breakers.  Only the runners present
        in the checkpoint are revived: queries that were quarantined,
        shed or rejected at the cut have no snapshot, and re-admitting
        them is the breaker's call, not the resume path's.  A checkpoint
        of a plain :meth:`run` revives under the inert policy.
        """
        subscriptions = payload["subscriptions"]
        if [[query_id, text] for query_id, text, _lane in subscriptions] != [
            [query_id, text] for query_id, text in self._texts.items()
        ]:
            raise CheckpointError(
                "checkpoint subscription set does not match this engine's "
                "query set in its registration order"
            )
        if bool(payload["collect_events"]) != self.collect_events:
            raise CheckpointError(
                f"checkpoint was taken with collect_events="
                f"{bool(payload['collect_events'])}, engine has "
                f"collect_events={self.collect_events}"
            )
        if as_flags(payload["optimize"]) != self.optimize:
            raise CheckpointError(
                f"checkpoint was taken with optimize="
                f"{as_flags(payload['optimize']).describe()}, engine has "
                f"optimize={self.optimize.describe()}"
            )
        # Two-phase revival: every runner is compiled (and its fast-lane
        # slot registered in the shared DFA) before the core replays the
        # cursor's open path, so the product automaton's initial state
        # covers the full slot set; then each runner restores.
        self._fastlane_core = None
        self.lane_executions = {}
        self.lane_demotions = {}
        clock = as_clock(clock)
        cursor = StreamCursor.from_state(payload["cursor"])
        states = payload["runners"]
        runners: dict[str, Runner] = {
            query_id: self._compile_one(query_id, cursor, lane=lane)
            for query_id, _text, lane in subscriptions  # the live set's order
            if query_id in states and self._is_admitted(query_id)
        }
        if self._fastlane_core is not None:
            self._fastlane_core.restore_path()
        for query_id, runner in runners.items():
            runner.restore(states[query_id])
        self._last_cursor = cursor
        self.robustness.restores += 1
        state = payload.get("serving")
        if state is None:
            self._breakers = None
            breakers = {query_id: CircuitBreaker() for query_id in runners}
            self._pump = ServePump(
                self, runners, _INERT, ServingReport(), breakers, clock, cursor
            )
            return self._pump
        policy = policy if policy is not None else ServingPolicy()
        serving = ServingReport.from_obj(state)
        breakers = {}
        for query_id, snap in state["breakers"].items():
            breakers[query_id] = CircuitBreaker(policy.breaker)
            breakers[query_id].restore(snap)
        self.serving = serving
        self._breakers = breakers
        self._pump = ServePump(self, runners, policy, serving, breakers, clock, cursor)
        return self._pump

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: Checkpoint,
        limits: ResourceLimits | None = None,
        admission: AdmissionPolicy | None = None,
    ) -> "MultiQueryEngine":
        """Build an engine matching the checkpoint's subscription set."""
        payload = checkpoint.require("multiquery")
        return cls(
            {query_id: text for query_id, text, _lane in payload["subscriptions"]},
            collect_events=bool(payload["collect_events"]),
            limits=limits,
            admission=admission,
            optimize=as_flags(payload["optimize"]),
        )

    def evaluate(
        self,
        source: str | Iterable[Event],
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
    ) -> dict[str, list[Match]]:
        """All matches per query, eagerly."""
        results: dict[str, list[Match]] = {query_id: [] for query_id in self.queries}
        for query_id, match in self.run(source, on_error=on_error, report=report):
            results[query_id].append(match)
        return results

    def filter_documents(
        self,
        source: str | Iterable[Event],
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
    ) -> dict[str, bool]:
        """Boolean matching: which subscriptions does the stream match?

        Networks are dropped from the hot loop as soon as their query
        produces a first match, so highly selective subscription sets get
        cheaper as the document streams by.

        Under ``on_error="skip"``/``"repair"`` a multi-document source
        is evaluated document by document: malformed or limit-tripping
        documents are recorded in ``report`` and excluded, and each
        query's verdict is ``True`` iff it matched any *surviving*
        document.  Once every verdict is in, the pass reads no further —
        a recovering one to the end of the document it is in, whose
        records it files.
        """
        pump = self._open_pump(_INERT, collect_events=False)
        policy = as_policy(on_error)
        strict = policy is RecoveryPolicy.STRICT
        events = iter_events(source)
        batches: Iterable[list[tuple[str, Match]]] = (
            ([pair] for pair in pump._pull(events))
            if strict
            else pump._recover(events, policy, report)
        )
        matched: dict[str, bool] = {query_id: False for query_id in self.queries}
        if pump._live:
            for pairs in batches:
                for query_id, _match in pairs:
                    if not matched[query_id]:  # final: nothing delivered is withdrawn
                        matched[query_id] = True
                        pump.close(query_id)
                if not pump._live and (strict or not pump.cursor.in_document):
                    break
        return matched

    def filter_stream(
        self,
        source: Iterable[Event],
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
    ) -> Iterator[dict[str, bool]]:
        """SDI over a *sequence* of documents on one connection.

        Yields, per document of a concatenated multi-document stream
        (see :func:`repro.xmlstream.split_documents`), the boolean match
        verdict of every subscription — the routing decision the paper's
        Sec. I scenario needs.  Each document is evaluated as if alone,
        in one pass over the stream.  A document the source ends inside
        gets no verdict: a finite read of an iterable is a prefix, as
        for :meth:`run`.

        With a non-strict ``on_error`` policy, documents the recovery
        layer quarantines (and documents that trip a resource limit)
        yield no verdict; their error records land in ``report`` and the
        connection keeps flowing.
        """
        pump = self._open_pump(_INERT, collect_events=False)
        cursor = pump.cursor
        hit: set[str] = set()
        for pairs in pump._recover(
            iter_events(source), as_policy(on_error), report, verdicts=True
        ):
            hit.update(query_id for query_id, _match in pairs)
            if not cursor.in_document:  # at its </$>: the verdicts are in
                yield {query_id: query_id in hit for query_id in self.queries}
                hit.clear()


#: The policy of every pass that is not a serving one (``SpexEngine``'s
#: too): a failing query propagates, nothing expires, nothing is shed.
_INERT = ServingPolicy(quarantine=False)


class ServePump:
    """The bulkhead state machine of one pass, and its one loop.

    Every per-event door of :class:`MultiQueryEngine` runs through this
    class — :meth:`~MultiQueryEngine.run`, :meth:`~MultiQueryEngine.serve`
    and :meth:`~MultiQueryEngine.resume` pull a source iterable through
    it, the ``filter_*`` methods as far as their verdicts need,
    the asyncio service frontend (:mod:`repro.service`) pulls each
    ingested document, the shard workers pull each chunk they are sent,
    and a caller handed one event at a time pushes it (:meth:`feed`),
    all through :meth:`_advance`.  The lane advance, the
    per-query dispatch, the emission order and every bulkhead semantic
    of the serving layer (quarantine, breakers, deadlines, shedding,
    document-boundary re-admission) therefore have exactly one
    implementation, and a network subscriber's match stream is
    bit-identical to an offline pass by construction.  Per live query
    the pump holds a :class:`Runner` and touches it through that
    protocol only (the table in ``docs/architecture.md``, *The runner
    protocol*), whichever lane the query executes on.

    On top of the per-event transition the pump supports the *dynamic
    subscription set* a long-lived service needs: :meth:`attach`
    registers a query mid-pass (it joins at the next document boundary,
    the same place breaker re-admissions happen), and :meth:`close`
    withdraws one (a departed subscriber) without the breaker penalty a
    quarantine carries.

    Not thread-safe: feed/attach/close must come from one driver.
    """

    def __init__(
        self,
        engine: MultiQueryEngine,
        live: dict[str, Runner],
        policy: ServingPolicy,
        serving: ServingReport,
        breakers: dict[str, CircuitBreaker],
        clock: Clock,
        cursor: StreamCursor,
    ) -> None:
        self._engine = engine
        #: the attached runners, always in registration order — the
        #: cross-query emission order within one event
        self._live = live
        self.policy = policy
        self.serving = serving
        self._breakers = breakers
        self._clock = clock
        self._cursor = cursor
        #: the stream limits' per-event check (``None`` unarmed): one for
        #: the whole pass, so its wall-clock budget outlives every
        #: rebinding of the loop
        self._guard = stream_guard(engine.limits, cursor, clock)
        #: set once the stream deadline expired: the pass is over and
        #: further :meth:`feed` calls are a :class:`~repro.errors.EngineError`.
        self.finished = False
        self._stream_deadline = (
            clock.monotonic() + policy.stream_deadline
            if policy.stream_deadline is not None
            else None
        )
        self._doc_deadline: float | None = None
        #: what the loop reads for the current live set (:meth:`_compile`);
        #: ``None`` once the live set changed
        self._bound: tuple[Any, ...] | None = None
        #: the last event's pairs as :meth:`_pull` yields them
        self._held: Iterator[tuple[str, Match]] = iter(())

    # ------------------------------------------------------------------
    # introspection

    @property
    def live_queries(self) -> list[str]:
        """Queries currently attached to the pass (sorted)."""
        return sorted(self._live)

    @property
    def at_document_boundary(self) -> bool:
        """True between documents — the checkpoint-commit positions."""
        return not self._cursor.in_document

    @property
    def cursor(self) -> StreamCursor:
        """The cursor every fed event is checked and counted by (the
        caller's when one was passed, else the pump's own)."""
        return self._cursor

    # ------------------------------------------------------------------
    # the live set: attach / close / detach / re-admit

    def attach(self, query_id: str) -> bool:
        """Join a (freshly registered) query; effective next document.

        The query must already be registered on the engine
        (:meth:`MultiQueryEngine.add_query`, which classifies admission
        and runs pre-flight).  Returns ``False`` when admission rejected
        the query — its outcome then reads ``rejected`` with the
        ``ADMIT`` code, and it never touches the stream.  Admitted
        queries join at the next ``<$>`` through the same re-admission
        path a recovered breaker uses, so mid-document joins can never
        observe a half-seen document.
        """
        if query_id in self._breakers:
            raise EngineError(f"query {query_id!r} is already attached")
        if query_id not in self._engine.queries:
            raise EngineError(
                f"query {query_id!r} is not registered on the engine"
            )
        if not self._engine._admission_outcome(self.serving, query_id):
            return False
        self._breakers[query_id] = CircuitBreaker(self.policy.breaker)
        return True

    def close(
        self,
        query_id: str,
        code: str | None = None,
        reason: str | None = None,
        degraded: bool = False,
    ) -> list[Match]:
        """Withdraw a query from the pass (a departed subscriber).

        Unlike a quarantine this is not a failure: no breaker trip, no
        ``degraded`` mark unless the caller says so (the service marks
        forced disconnects — overflow, write timeout — degraded, and
        voluntary unsubscribes clean).  Returns the query's already-
        decided but undelivered matches so the caller can flush them.
        """
        if self._breakers.pop(query_id, None) is None:
            return []
        outcome = self.serving.outcome(query_id)
        outcome.status = "closed"
        outcome.code = code
        outcome.reason = reason
        if degraded:
            outcome.degraded = True
        flushed = self._unlink(query_id) if query_id in self._live else []
        core = self._engine._fastlane_core
        if core is not None:
            # unlike a detach, nothing re-registers this slot: it leaves
            # the shared DFA at the next document boundary
            core.retire(query_id)
        return flushed

    def _stale(self) -> None:
        """The live set changed: the loop binds it anew after this event."""
        self._bound = None

    def _unlink(self, query_id: str) -> list[Match]:
        """Drop a live query's runner; return its undelivered matches.

        The runner is unlinked (its buffers go with it, and its slot in
        the shared DFA stops) and any matches it had already decided but
        not yet delivered are returned so the caller can flush them.
        """
        runner = self._live.pop(query_id)
        self._stale()
        flushed = runner.flush()
        runner.deactivate()
        self.serving.outcome(query_id).matches += len(flushed)
        return flushed

    def _detach(
        self, query_id: str, status: str, code: str, reason: str
    ) -> list[Match]:
        """Drop a query under a now-``degraded`` outcome; its flush."""
        serving = self.serving
        outcome = serving.outcome(query_id)
        outcome.status = status
        outcome.code = code
        outcome.reason = reason
        outcome.document = serving.documents_seen - 1 if serving.documents_seen else None
        outcome.degraded = True
        return self._unlink(query_id) if query_id in self._live else []

    def _quarantine(self, query_id: str, exc: Exception) -> list[Match]:
        code = "LIMIT" if isinstance(exc, ResourceLimitError) else "ERROR"
        flushed = self._detach(query_id, "quarantined", code, str(exc))
        breaker = self._breakers[query_id]
        breaker.record_failure()
        serving = self.serving
        robustness = self._engine.robustness
        serving.outcome(query_id).trips = breaker.trips
        serving.quarantines += 1
        serving.breaker_trips += 1
        robustness.quarantines += 1
        robustness.breaker_trips += 1
        if breaker.latched:
            self._convict(query_id)
        return flushed

    def _convict(self, query_id: str) -> None:
        """A latched query holds what a resumed pass gives it: no lane, no
        slot in the shared DFA from the next ``<$>`` (as :meth:`close`)."""
        engine = self._engine
        if engine._fastlane_core is not None:
            engine._fastlane_core.retire(query_id)
        engine.lane_executions.pop(query_id, None)

    def _latch_poisoned(self, quarantined: Iterable[str]) -> None:
        """Latch pre-convicted poison-pill queries before the first event.

        Used when the caller (the shard coordinator) already knows
        certain queries crash the process: their breakers latch open
        permanently, their networks are dropped, and their outcomes read
        ``quarantined``/``POISON`` — the same terminal state an in-pass
        ``max_trips`` exhaustion reaches.
        """
        for query_id in quarantined:
            breaker = self._breakers.get(query_id)
            if breaker is None or breaker.latched:
                continue
            breaker.latch()
            self._detach(
                query_id,
                "quarantined",
                "POISON",
                "pre-quarantined as a poison pill (crashed its shard "
                "worker process)",
            )
            self.serving.outcome(query_id).trips = breaker.trips
            self.serving.quarantines += 1
            self._engine.robustness.quarantines += 1
            self._convict(query_id)

    def _shed(self, total: int) -> list[tuple[str, Match]]:
        """Shed lowest-priority queries until the pass fits again."""
        policy = self.policy
        live = self._live
        out: list[tuple[str, Match]] = []
        for query_id in sorted(live, key=lambda q: (policy.priorities.get(q, 0), q)):
            if total <= policy.shed_buffered_events:
                break
            load = live[query_id].buffered_events
            flushed = self._detach(
                query_id,
                "shed",
                "SHED001",
                f"aggregate buffered events {total} over high-water mark "
                f"{policy.shed_buffered_events}",
            )
            out += [(query_id, match) for match in flushed]
            total -= load
            self.serving.load_sheds += 1
            self._engine.robustness.load_sheds += 1
        return out

    def _expire(self) -> list[tuple[str, Match]] | None:
        """Detach every live query if a deadline has passed: their
        flushes, or ``None`` while there is time.

        A stream-deadline expiry additionally ends the pass
        (:attr:`finished`)."""
        policy = self.policy
        now = self._clock.monotonic()
        if self._stream_deadline is not None and now > self._stream_deadline:
            self.finished = True
            code, scope = "DEADLINE_STREAM", "stream"
            message = f"stream deadline of {policy.stream_deadline}s expired"
        elif self._doc_deadline is not None and now > self._doc_deadline:
            self._doc_deadline = None
            code, scope = "DEADLINE_DOC", "document"
            message = f"document deadline of {policy.doc_deadline}s expired"
        else:
            return None
        reason = str(DeadlineExceeded(message, scope=scope))
        out: list[tuple[str, Match]] = []
        for query_id in list(self._live):
            flushed = self._detach(query_id, "deadline", code, reason)
            out += [(query_id, match) for match in flushed]
            self.serving.deadline_hits += 1
            self._engine.robustness.deadline_hits += 1
        self._stale()  # and a finished pump refuses to bind again
        return out

    def _open_document(self) -> bool:
        """``<$>``: count the document, arm its deadline, and rejoin
        every attached query whose breaker admits it.

        Shed and doc-deadline detachments carry no breaker penalty, so
        their (closed) breakers re-admit immediately; quarantined queries
        wait out the cooldown and come back as half-open probes.
        Returns whether the live set changed — the loop then binds the
        new one before the ``<$>`` goes on.
        """
        engine = self._engine
        serving = self.serving
        live = self._live
        serving.documents_seen += 1
        if self.policy.doc_deadline is not None:
            self._doc_deadline = self._clock.monotonic() + self.policy.doc_deadline
        changed = False
        for query_id, breaker in self._breakers.items():
            if query_id in live:
                continue
            outcome = serving.outcome(query_id)
            if outcome.status == "rejected" or not breaker.admits():
                continue
            live[query_id] = engine._compile_one(query_id, self._cursor)
            if breaker.state is BreakerState.HALF_OPEN:
                serving.probes += 1
            outcome.status = "ok"
            changed = True
        if changed:
            ordered = {q: live[q] for q in engine.queries if q in live}
            live.clear()
            live.update(ordered)
        return changed

    def _close_document(self) -> None:
        """``</$>``: every query still live completed the document."""
        self._doc_deadline = None
        serving = self.serving
        for query_id in self._live:
            if self._breakers[query_id].record_document_success():
                serving.outcome(query_id).readmissions += 1
                serving.readmissions += 1
                self._engine.robustness.readmissions += 1

    # ------------------------------------------------------------------
    # the per-event transition

    def feed(self, event: Event) -> list[tuple[str, Match]]:
        """Process one event; return its ``(query_id, match)`` pairs.

        Document boundaries re-admit breakers and (re)arm the document
        deadline, expired deadlines detach with ``DEADLINE_*`` outcomes
        (a stream-deadline expiry additionally marks the pump
        :attr:`finished`), failing queries are quarantined with their
        partial matches flushed, and buffer pressure sheds the
        lowest-priority queries.  Within one event, matches come in
        registration order across queries (whatever a query's
        detach/re-admit history) and in decision order within a query:
        the one loop, :meth:`_advance`, over this one event.

        Raises:
            EngineError: the pass is :attr:`finished`.
        """
        return self._advance((event,)) or []

    def _compile(self) -> tuple[Any, ...]:
        """Bind what :meth:`_advance` reads (its first statement names
        it all) for the current live set, which :meth:`_stale` unbinds.

        Raises:
            EngineError: the pass is :attr:`finished`.
        """
        if self.finished:
            raise EngineError("serving pass is finished (stream deadline)")
        live = self._live
        core = self._engine._fastlane_core
        lanes = self._engine.lane_executions
        cursor = self._cursor
        policy = self.policy
        self._bound = (
            [
                (query_id, cast(EventRunner, runner).process_event)
                for query_id, runner in live.items()
                if lanes.get(query_id) not in CORE_DRIVEN_LANES
            ],
            {query_id: self.serving.outcome(query_id) for query_id in live},
            {query_id: rank for rank, query_id in enumerate(live)},
            core,
            *(
                ([], [], [], [])
                if core is None
                else (core._stack, core._opened, core._obligs, core._dirty)
            ),
            cursor,
            cursor.open_labels,
            cursor.open_starts,
            cursor.advance,
            self._guard,
            policy.stream_deadline is not None or policy.doc_deadline is not None,
            policy.shed_buffered_events,
        )
        return self._bound

    def _advance(self, events: Iterable[Event]) -> list[tuple[str, Match]] | None:
        """The transition, over ``events`` up to the first event that
        decides something or ends a document: that event's
        ``(query_id, match)`` pairs, or ``None`` once ``events`` is
        exhausted.

        Each pass of the body is the list in ``docs/architecture.md``,
        *One per-event driver*.  A change to the live set leaves the
        event's pairs a list, so the call returns there and the next one
        binds the new set; ``<$>``'s re-admissions bind at once.
        """
        (
            runners, outcomes, rank, core, stack, opened, obligs, dirty,
            cursor, labels, starts, check_and_count, guard, timed, shed_above,
        ) = self._bound or self._compile()  # fmt: skip
        for event in events:
            cls = event.__class__
            if cls is StartElement:
                label = event.label  # type: ignore[attr-defined]
                if labels:  # open elements: inside a document
                    labels.append(label)
                    ordinal = cursor.elements_seen + 1
                    cursor.elements_seen = ordinal
                    starts.append(ordinal)
                    cursor.events_read += 1
                else:
                    check_and_count(event)
            elif cls is EndElement and labels and labels[-1] == event.label:  # type: ignore[attr-defined]
                labels.pop()
                starts.pop()
                cursor.events_read += 1
            else:
                check_and_count(event)
            out: list[tuple[str, Match]] | None = None
            todo = runners
            if guard is not None:
                # the stream limits, which never trip at <$>
                try:
                    guard(event)
                except ResourceLimitError as exc:
                    if self._live:
                        if not self.policy.quarantine:
                            raise
                        # every live query alike, in registration order; the
                        # event goes on, so the core keeps following the stream
                        out = [
                            (query_id, match)
                            for query_id in list(self._live)
                            for match in self._quarantine(query_id, exc)
                        ]
                        todo = []
            if cls is StartDocument and self._open_document():
                runners, outcomes, rank, core, stack, opened, obligs, dirty = (
                    self._compile()[:8]
                )
                todo = runners
            if timed:
                expired = self._expire()
                if expired is not None:
                    out = expired if out is None else out + expired
                    todo = []  # everything live was just detached
            if core is not None:
                if cls is StartElement:
                    state = stack[-1]
                    nxt = state.trans.get(label) or core._step(state, label)
                    stack.append(nxt)
                    frame = obligs[-1]
                    if frame:
                        frame = core._descend(frame, label)
                    if nxt.accepts:
                        core._open(nxt.accepts, label, len(stack) - 1, frame)
                    else:
                        opened.append(())
                        obligs.append(frame)
                elif cls is EndElement:
                    frame = opened.pop()
                    if frame:
                        core._close(frame)
                    obligs.pop()
                    stack.pop()
                elif cls is StartDocument:
                    core.start_document()
                elif cls is EndDocument:
                    core.end_document()
            if todo:
                for query_id, process_event in todo:
                    try:
                        matches = process_event(event)
                    except Exception as exc:
                        if not self.policy.quarantine:
                            raise
                        matches = self._quarantine(query_id, exc)
                    else:
                        if not matches:
                            continue
                        outcomes[query_id].matches += len(matches)
                    out = out or []  # a match, or the live set changed
                    for match in matches:
                        out.append((query_id, match))
            if dirty:
                # Fast-lane drains arrive in close order; a stable sort
                # on the registration rank merges them bit-identically
                # to the pure-network pass (match-bearing events only).
                drained = core.drain_matches()  # type: ignore[union-attr]
                for query_id, _match in drained:
                    outcomes[query_id].matches += 1
                out = drained if out is None else out + drained
                if len(out) > 1:
                    out.sort(key=lambda pair: rank[pair[0]])
            if cls is EndDocument:
                self._close_document()
                out = out or []  # a document ends a call: _recover's boundary
            if shed_above is not None and self._live:
                total = sum(runner.buffered_events for runner in self._live.values())
                if total > shed_above:
                    out = [*(out or ()), *self._shed(total)]
            if out is not None:
                return out
        return None

    def _pull(self, events: Iterable[Event]) -> Iterator[tuple[str, Match]]:
        """Run the transition over ``events``; yield each event's pairs
        before the next event is taken from the iterator."""
        events = iter(events)
        while (out := self._advance(events)) is not None:
            # the cursor counts the event: checkpoint() waits for its last pair
            self._held = held = iter(out)
            yield from held
            if self.finished:
                return

    def _recover(
        self,
        events: Iterable[Event],
        policy: RecoveryPolicy,
        report: ErrorReport | None,
        verdicts: bool = False,
    ) -> Iterator[list[tuple[str, Match]]]:
        """The one loop on runners compiled once, under a recovery policy,
        each document as if alone (``docs/architecture.md``).  ``skip``
        and ``repair`` file what :func:`recovering` files, under this
        pass's one cursor; ``strict`` raises.  Pairs are yielded as
        :meth:`_advance` returns them (``[]`` at a quiet ``</$>``), but
        held to the ``</$>`` of a document that can still be withdrawn:
        under skip, and under repair with a limit armed and bulkheads
        off.  With ``verdicts``, a document whose every live query has
        matched is read on by the cursor alone, unless a limit is armed."""
        engine, cursor, live = self._engine, self._cursor, self._live
        report = report if report is not None else ErrorReport()
        source = iter(events)
        fresh = {query_id: runner.snapshot() for query_id, runner in live.items()}
        skip = policy is RecoveryPolicy.SKIP_DOCUMENT
        hold = skip or (
            policy is RecoveryPolicy.REPAIR
            and not self.policy.quarantine
            and any(engine._effective_limits(query_id) is not None for query_id in live)
        )
        held: list[tuple[str, Match]] = []
        ahead: list[Event] = []  # read before the source: a resynced <$>, a repair
        garbage_at = resync_at = -1  # documents_seen at a garbage record / a skip
        skim = verdicts and engine.limits is None
        decided: set[str] = set()  # the queries with a verdict in this document
        # only check the rest of the document: the limit it tripped, or True
        checking: ResourceLimitError | bool = False  # once every verdict is in
        while True:
            error: StreamError | ResourceLimitError | None = None
            rest = iter(ahead)
            pending = chain(rest, source) if ahead else source
            try:
                if not checking:
                    out = self._advance(pending)
                else:
                    out = None
                    for _event in cursor.attach(pending):
                        if not cursor.in_document:
                            out = []
                            break
            except (StreamError, ResourceLimitError) as exc:
                if policy is RecoveryPolicy.STRICT:
                    raise
                out, error = None, exc
            ahead = [*rest]
            refused = error.event if isinstance(error, StreamError) else None
            if out is not None:
                held += out
                if cursor.in_document and not self.finished:
                    if skim:
                        decided.update(query_id for query_id, _match in out)
                        checking = len(decided) >= len(live)
                    if not hold and held:
                        yield held
                        held = []
                    continue
                if isinstance(checking, ResourceLimitError):  # the rest checked out
                    out, error = None, checking
            elif isinstance(error, ResourceLimitError):
                if cursor.in_document:
                    checking = error
                    continue
            elif policy is RecoveryPolicy.REPAIR and error is not None:
                # the repair rule puts its events in front of the source
                fixes = repair(cursor, refused, error, report)
                if fixes is not None:
                    cursor.events_read += not fixes  # a dropped event was read too
                    ahead = fixes
                    if refused is None:  # the source died
                        source = iter(())
                    continue
            if out is None and not cursor.in_document and not isinstance(error, ResourceLimitError):
                if refused is not None:  # garbage, or a skipped document's rest
                    cursor.events_read += 1
                    report.events_dropped += 1
                    if garbage_at != cursor.documents_seen:
                        garbage_at = cursor.documents_seen
                        report.add(-1, f"event {refused} between documents", "dropped")
                    continue
                if error is not None and resync_at != cursor.documents_seen:
                    report.add(-1, f"source failed: {error}", "dropped")
                return
            report.documents_seen += 1
            over = out is None and error is None  # the input ends inside the document
            if over and not skip and isinstance(checking, ResourceLimitError):
                error = checking  # a prefix over a limit
            if out is not None or over and error is None and not skip:
                # a document that ended good, or a prefix as strict reads it
                yield held
                if self.finished or over:
                    return
            else:
                for query_id, _match in held:  # decided, never delivered
                    self.serving.outcome(query_id).matches -= 1
                index = cursor.documents_seen - 1
                if refused is not None:
                    # resync: the rest is garbage, unrecorded, up to a <$>
                    report.add(index, str(error), "skipped")
                    garbage_at = resync_at = cursor.documents_seen
                    cursor.abandon_document()
                    ahead = [refused] if refused.__class__ is StartDocument else []
                    cursor.events_read += not ahead
                elif isinstance(error, ResourceLimitError):  # the rest checked out
                    report.add(index, str(error), "limit")
                    if over:
                        return
                else:  # the source died inside the document, or skip's prefix
                    if error is not None:
                        report.add(index, unfinished(error), "skipped")  # type: ignore[arg-type]
                    return
            held = []
            decided.clear()
            checking = False
            cursor.elements_seen = 0  # each document as if alone: positions restart
            for query_id, runner in live.items():
                # a plain network numbers positions and looks across </$>;
                # a dropped or skimmed document stopped every runner midway
                lane = engine.lane_executions[query_id]
                if error is not None or skim or lane == "network":
                    if query_id not in fresh:  # joined during the pass
                        fresh[query_id] = engine._compile_one(query_id, cursor).snapshot()
                    runner.restore(fresh[query_id])
