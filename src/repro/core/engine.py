"""The SPEX engine facade — the library's main entry point.

Typical use::

    from repro import SpexEngine

    engine = SpexEngine("_*.country[province].name")
    for match in engine.run("mondial.xml"):
        print(match.position, match.to_xml())

An engine holds the *query* (parsed once); each :meth:`run` compiles a
fresh transducer network (linear time, Lemma V.1) so engines are reusable
and runs are independent.  Results are yielded progressively, in document
order, as soon as their membership is decided — the defining property of
the paper's evaluation model.  The pass itself is the one per-event
transition every door of :mod:`repro.core.multiquery` runs, over an
engine with this query as its only subscription.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields, replace
from typing import cast

from ..analysis.metrics import QueryProfile, analyze
from ..conditions.store import ConditionStore
from ..errors import CheckpointError, EngineError
from ..limits import ResourceLimits
from ..rpeq.ast import Rpeq
from ..rpeq.parser import parse
from ..xmlstream.events import Event
from ..xmlstream.offsets import StreamCursor
from ..xmlstream.recovery import ErrorReport, RecoveryPolicy, as_policy
from .checkpoint import Checkpoint
from .compiler import compile_network, translation_degree
from .network import Network, NetworkStats
from .optimize import OptimizationFlags, as_flags
from .output_tx import Match, OutputStats


@dataclass
class RobustnessCounters:
    """Recovery-machinery odometer for one engine (across runs).

    Incremented by :meth:`SpexEngine.checkpoint`/:meth:`SpexEngine.resume`
    and by the supervisor (:mod:`repro.core.supervisor`) as it retries
    sources and detects stalls; surfaced through
    :attr:`EngineStats <SpexEngine.stats>` and the CLI recovery summary.
    """

    checkpoints_written: int = 0
    restores: int = 0
    retries: int = 0
    stalls_detected: int = 0
    # Serving-layer counters (bulkheads, breakers, admission, shedding);
    # incremented by MultiQueryEngine.serve().
    quarantines: int = 0
    breaker_trips: int = 0
    readmissions: int = 0
    load_sheds: int = 0
    deadline_hits: int = 0
    admissions_rejected: int = 0

    def copy_into(self, stats: "EngineStats") -> None:
        """Set the like-named fields of ``stats`` to these counters."""
        for counter in fields(self):
            setattr(stats, counter.name, getattr(self, counter.name))


@dataclass
class EngineStats:
    """Everything the complexity experiments measure, for one run.

    Attributes:
        network: per-transducer instrumentation roll-up.
        output: candidate buffering metrics of the output transducer.
        condition_variables: total qualifier instances created.
        peak_live_variables: worst-case undetermined instances (≤ d per
            qualifier in the paper's analysis).
        query: structural metrics of the evaluated query.
        documents_skipped: documents quarantined by the recovery layer
            (``on_error="skip"``) or abandoned after a resource limit.
        events_repaired: events synthesized/rewritten by
            ``on_error="repair"``.
        limit_hits: resource-guard firings — raised
            :class:`~repro.errors.ResourceLimitError` occurrences plus
            candidates evicted by the ``drop_oldest`` overflow policy.
        checkpoints_written: checkpoints taken from this engine.
        restores: runs started from a checkpoint.
        retries: source reconnects performed by the supervisor.
        stalls_detected: heartbeat-timeout firings in the supervisor.
        quarantines: per-query bulkhead detachments in the serving layer.
        breaker_trips: circuit-breaker openings (serving layer).
        readmissions: breakers re-closed after a successful probe.
        load_sheds: queries shed at the aggregate-buffer high-water mark.
        deadline_hits: per-query deadline expiries (document + stream).
        admissions_rejected: queries refused at admission control.
        fastlane_dfa_queries: queries executed on the shared lazy DFA
            (multi-query engines only; the ``lane-differential`` CI gate
            asserts this equals the planner's dfa-lane count).
        fastlane_hybrid_queries: queries executed natively on the DFA
            with per-candidate condition automata.
        fastlane_gated_queries: queries running as a residual network
            behind a DFA head.
        fastlane_gate_fed_events: events fed to residual networks,
            summed over the gated queries (each query counts every
            stream event once, as fed or parked).
        fastlane_gate_parked_events: events the DFA head withheld from
            residual networks — start tags never needed, their end tags
            and the text between.  ``parked / (fed + parked)`` is the
            gate's selectivity; per query it is
            ``MultiQueryEngine.gate_counts``.
        fastlane_demotions: planned fast lanes demoted to the network at
            compile time (``PLAN005``).
        fastlane_states: interned product-DFA states.
        fastlane_saturated_steps: subset-construction steps taken past
            the determinization memo bound (uncached but bounded).
    """

    network: NetworkStats = field(default_factory=NetworkStats)
    output: OutputStats = field(default_factory=OutputStats)
    condition_variables: int = 0
    peak_live_variables: int = 0
    query: QueryProfile | None = None
    documents_skipped: int = 0
    events_repaired: int = 0
    limit_hits: int = 0
    checkpoints_written: int = 0
    restores: int = 0
    retries: int = 0
    stalls_detected: int = 0
    quarantines: int = 0
    breaker_trips: int = 0
    readmissions: int = 0
    load_sheds: int = 0
    deadline_hits: int = 0
    admissions_rejected: int = 0
    fastlane_dfa_queries: int = 0
    fastlane_hybrid_queries: int = 0
    fastlane_gated_queries: int = 0
    fastlane_gate_fed_events: int = 0
    fastlane_gate_parked_events: int = 0
    fastlane_demotions: int = 0
    fastlane_states: int = 0
    fastlane_saturated_steps: int = 0

    def summary(self) -> str:
        """Human-readable one-screen digest of a run's resource profile."""
        lines = [
            f"events processed      : {self.network.events}",
            f"network degree        : {self.network.degree}",
            f"peak stack height     : {self.network.max_stack}",
            f"max formula size (σ)  : {self.network.max_formula_size}",
            f"condition variables   : {self.condition_variables}"
            f" (peak live {self.peak_live_variables})",
            f"candidates            : {self.output.candidates_created}"
            f" created, {self.output.candidates_dropped} dropped",
            f"peak buffered events  : {self.output.peak_buffered_events}",
            f"peak pending results  : {self.output.peak_pending_candidates}",
            f"documents skipped     : {self.documents_skipped}",
            f"events repaired       : {self.events_repaired}",
            f"limit hits            : {self.limit_hits}",
            f"checkpoints written   : {self.checkpoints_written}",
            f"restores              : {self.restores}",
            f"retries               : {self.retries}",
            f"stalls detected       : {self.stalls_detected}",
            f"quarantines           : {self.quarantines}"
            f" ({self.breaker_trips} trip(s), {self.readmissions} readmission(s))",
            f"load sheds            : {self.load_sheds}",
            f"deadline hits         : {self.deadline_hits}",
            f"admissions rejected   : {self.admissions_rejected}",
            f"fast-lane queries     : {self.fastlane_dfa_queries} dfa, "
            f"{self.fastlane_hybrid_queries} hybrid, "
            f"{self.fastlane_gated_queries} gated "
            f"({self.fastlane_demotions} demoted)",
            f"fast-lane DFA states  : {self.fastlane_states}"
            f" ({self.fastlane_saturated_steps} saturated step(s))",
            f"gated network events  : {self.fastlane_gate_fed_events} fed, "
            f"{self.fastlane_gate_parked_events} parked",
        ]
        if self.query is not None:
            lines.insert(
                0,
                f"query fragment        : {self.query.fragment} "
                f"({self.query.steps} steps, {self.query.qualifiers} "
                f"qualifiers, {self.query.closures} closures)",
            )
        return "\n".join(lines)


def recovery_policy(
    on_error: RecoveryPolicy | str, cursor: StreamCursor | None
) -> RecoveryPolicy:
    """Coerce ``on_error``; only a strict pass may carry a checkpoint cursor."""
    policy = as_policy(on_error)
    if policy is not RecoveryPolicy.STRICT and cursor is not None:
        raise EngineError(
            "checkpoint cursors require on_error='strict' (recovery "
            "policies re-segment the source per document)"
        )
    return policy


class SpexEngine:
    """Streamed, progressive rpeq evaluation (the paper's contribution).

    A facade over a :class:`~repro.core.multiquery.MultiQueryEngine`
    holding one subscription, whose id is :attr:`name`, with the fast
    lanes off: every pass is the inert pump's one per-event transition
    (:class:`~repro.core.multiquery.ServePump`) over the query's
    transducer network, and a checkpoint is the inner engine's.
    """

    name = "spex"

    def __init__(
        self,
        query: str | Rpeq,
        collect_events: bool = True,
        optimize: bool | OptimizationFlags = True,
        limits: ResourceLimits | None = None,
        preflight: bool = True,
        rewrite: bool = False,
    ) -> None:
        """Create an engine for a query.

        Args:
            query: rpeq source text or an already-parsed AST.
            collect_events: when ``False``, matches carry positions only
                and the output transducer never buffers events — useful
                for benchmarking the matching machinery in isolation.
            optimize: ``True`` (the production network), ``False``
                (the literal Fig. 11 network, interpreted) or a
                :class:`repro.core.optimize.OptimizationFlags` — a
                single-query engine reads only its
                ``production_network`` field.
            limits: resource guards applied to every run (see
                :class:`repro.limits.ResourceLimits`); ``None`` means
                unbounded, the paper's trusting default.
            preflight: lint the query and certify its cost against
                the limits (:mod:`repro.analysis`) before accepting the
                engine; the report is kept as :attr:`analysis`.
            rewrite: opt-in certified query rewriting
                (:func:`repro.analysis.rewrite.rewrite_query`), applied
                before pre-flight and compilation, so redundant
                constructs never become transducers.  Every rewrite
                step is gated on a machine-checked equivalence
                certificate — an uncertified rewrite is discarded and
                the original query runs.  The
                :class:`~repro.analysis.rewrite.RewriteResult` is kept
                as :attr:`rewrite_result` (``None`` when off).

        Raises:
            StaticAnalysisError: pre-flight analysis found an
                error-severity problem (e.g. the certified worst-case
                memory bound already exceeds ``limits``); disable with
                ``preflight=False`` to force evaluation anyway.
        """
        self.query: Rpeq = parse(query) if isinstance(query, str) else query
        #: :class:`~repro.analysis.rewrite.RewriteResult` of the opt-in
        #: certified rewrite (``None`` when ``rewrite=False``)
        self.rewrite_result = None
        if rewrite:
            from ..analysis.rewrite import rewrite_query

            result, _report = rewrite_query(self.query)
            self.rewrite_result = result
            if result.certified and result.changed:
                self.query = result.rewritten
        self.collect_events = collect_events
        self.optimize = optimize
        self.limits = limits
        #: pre-flight :class:`~repro.analysis.AnalysisReport` (``None``
        #: when constructed with ``preflight=False``)
        self.analysis = None
        if preflight:
            from ..analysis.preflight import ensure_preflight

            self.analysis = ensure_preflight(
                self.query,
                limits=limits,
                optimize=optimize,
                collect_events=collect_events,
            )
        from .multiquery import MultiQueryEngine  # it imports this module

        # Lanes off: the network lane is what the exact counts of
        # ``stats`` (and the paper's figures) measure.
        flags = replace(as_flags(optimize), dfa_lane=False, hybrid_gate=False)
        self._engine = MultiQueryEngine(
            {self.name: self.query},
            collect_events=bool(collect_events),
            limits=limits,
            preflight=False,
            optimize=flags,
        )
        #: lifetime recovery counters (checkpoints, restores, retries,
        #: stalls), the inner engine's; the supervisor increments the
        #: latter two
        self.robustness = self._engine.robustness
        self._last_report: ErrorReport | None = None

    # ------------------------------------------------------------------
    # evaluation

    def run(
        self,
        source: str | Iterable[Event],
        on_error: RecoveryPolicy | str = RecoveryPolicy.STRICT,
        report: ErrorReport | None = None,
        cursor: StreamCursor | None = None,
    ) -> Iterator[Match]:
        """Evaluate the query against a stream, yielding matches lazily.

        Args:
            source: XML text, a file path, or an iterable of events
                (see :func:`repro.xmlstream.iter_events`), possibly
                unbounded.  Where an iterable ends inside a document,
                that document is a prefix; a source that is cut says so
                by raising :class:`~repro.errors.StreamError`, as the
                XML parser does on a truncated file.
            on_error: recovery policy (see
                :class:`repro.xmlstream.RecoveryPolicy`).  ``"strict"``
                (default) checks stream well-formedness on the fly (a
                single O(depth) stack, the run's
                :class:`~repro.xmlstream.StreamCursor`) and raises
                :class:`~repro.errors.StreamError` at the first
                violation instead of silently confusing the transducer
                stacks.  ``"skip"`` and
                ``"repair"`` treat the source as a sequence of
                documents, evaluate each as if alone, and
                survive malformed documents and resource-limit hits: the
                poisoned document yields an error record in ``report``
                instead of killing the run.  Under these policies
                positions restart at each ``<$>``; under skip a
                document's matches are withheld until the whole
                document is known good — the quarantine guarantee costs
                within-document progressiveness — and under repair
                only while a resource limit is armed.
            report: receives per-document
                :class:`~repro.xmlstream.ErrorRecord` entries and
                recovery counters; also readable afterwards via
                :attr:`stats`.
            cursor: a :class:`~repro.xmlstream.StreamCursor` to track the
                source position, which makes the run *checkpointable*:
                while the run is in flight, :meth:`checkpoint` captures
                engine state tagged with the cursor's position.  Only
                strict runs can be checkpointed (recovery policies
                re-segment the source per document, so a single stream
                position does not determine their state).

        Yields:
            :class:`Match` objects in document order, each as soon as the
            stream prefix read so far decides it (under skip: as soon as
            its document is known good).
        """
        self._last_report = report if report is not None else ErrorReport()
        pairs = self._engine.run(source, on_error, self._last_report, cursor)
        for _query_id, match in pairs:
            yield match

    def evaluate(self, source: str | Iterable[Event]) -> list[Match]:
        """Evaluate eagerly and return all matches."""
        return list(self.run(source))

    def positions(self, source: str | Iterable[Event]) -> list[int]:
        """Document-order positions of all matched elements.

        Positions align with :attr:`repro.xmlstream.Node.position`, which
        makes results directly comparable with the DOM oracle.
        """
        return [match.position for match in self.run(source)]

    def count(self, source: str | Iterable[Event]) -> int:
        """Number of matches, without keeping them."""
        return sum(1 for _ in self.run(source))

    def first(self, source: str | Iterable[Event]) -> Match | None:
        """The first match, stopping the stream pass as soon as it is
        decided — or ``None`` when the (finite) stream has none.

        The run generator is closed explicitly on early exit, so the
        stream pass stops *now* — not at some later garbage collection —
        and any file handle or live source behind it is released.  This
        is what makes ``first``/``exists`` safe on unbounded sources.
        """
        run = self.run(source)
        try:
            return next(run, None)
        finally:
            run.close()

    def exists(self, source: str | Iterable[Event]) -> bool:
        """Whether the stream matches at all (XFilter-style boolean).

        Short-circuits at the first match, reading as little of the
        stream as the decision requires.
        """
        return self.first(source) is not None

    # ------------------------------------------------------------------
    # checkpoint / resume

    def checkpoint(self) -> Checkpoint:
        """Capture the in-flight run as a :class:`Checkpoint`.

        Valid between events of a strict :meth:`run` that was given a
        ``cursor`` (and immediately after it finishes): the cursor points
        just past the last event the network processed, so a resumed run
        continues with the next event — no event is evaluated twice and
        no match is duplicated.  So the cut must follow the last match
        of that event: between two of them it is refused.

        Raises:
            CheckpointError: no cursor-tracked strict run, or a mid-event cut.
        """
        return self._engine.checkpoint()

    def resume(
        self,
        checkpoint: Checkpoint,
        source: str | Iterable[Event],
    ) -> Iterator[Match]:
        """Continue a checkpointed run against ``source``.

        The source must replay the *same* stream the checkpoint was taken
        from (same file, a reconnected feed replaying from the start, …).
        Resume seeks by re-parsing and discarding the prefix — SAX keeps
        no restartable parse state, and the skipped events never touch
        the transducer network — then continues evaluation with restored
        state; the restored cursor checks the resumed tail exactly as
        the original run would have, from the envelope state at the cut.
        The concatenation of matches yielded before the checkpoint and
        after this resume equals an uninterrupted run: no duplicates, no
        drops.

        All compatibility checks happen eagerly, in this call — not at
        first iteration — so a mismatched checkpoint fails fast.

        Raises:
            CheckpointError: the checkpoint came from a different engine
                kind, query, or compiler settings.
            StreamError: ``source`` is shorter than the checkpointed
                position (it is not the same stream).
        """
        pairs = self._engine.resume(checkpoint, source)
        self._last_report = ErrorReport()
        return (match for _query_id, match in pairs)

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: Checkpoint,
        limits: ResourceLimits | None = None,
    ) -> SpexEngine:
        """Build an engine configured exactly as the checkpoint requires.

        Convenience for cold restarts where only the checkpoint file
        survives: the query and compiler settings are read back from the
        payload, so ``engine.resume(checkpoint, source)`` is guaranteed
        compatible.
        """
        payload = checkpoint.require("multiquery")
        subscriptions = payload["subscriptions"]
        if len(subscriptions) != 1:
            raise CheckpointError(
                f"checkpoint holds {len(subscriptions)} subscriptions; a "
                f"SpexEngine resumes exactly one"
            )
        return cls(
            subscriptions[0][1],
            collect_events=bool(payload["collect_events"]),
            optimize=as_flags(payload["optimize"]),
            limits=limits,
        )

    # ------------------------------------------------------------------
    # introspection

    @property
    def stats(self) -> EngineStats:
        """Instrumentation for the most recent (possibly ongoing) run."""
        stats = EngineStats(query=analyze(self.query))
        if self._last_network is not None:
            stats.network = self._last_network.stats()
            stats.output = self._last_network.sink.output_stats
        if self._last_store is not None:
            stats.condition_variables = self._last_store.total_variables
            stats.peak_live_variables = self._last_store.peak_live_variables
        if self._last_report is not None:
            stats.documents_skipped = self._last_report.documents_skipped
            stats.events_repaired = self._last_report.events_repaired
            stats.limit_hits = self._last_report.limit_hits
        stats.limit_hits += stats.output.candidates_evicted
        self.robustness.copy_into(stats)
        return stats

    @property
    def _last_network(self) -> Network | None:
        """The network of the most recent pass: its pump's one runner."""
        pump = self._engine._pump
        return None if pump is None else cast(Network, pump._live.get(self.name))

    @property
    def _last_store(self) -> ConditionStore | None:
        """The condition store of :attr:`_last_network`."""
        network = self._last_network
        return None if network is None else network.condition_store

    def describe_network(self) -> str:
        """Wiring of a freshly compiled network for this query."""
        network, _store = compile_network(
            self.query, collect_events=False, optimize=self.optimize
        )
        return network.describe()

    def network_degree(self) -> int:
        """Number of transducers the query compiles to (Lemma V.1)."""
        return translation_degree(self.query, self.optimize)


def evaluate(query: str | Rpeq, source: str | Iterable[Event]) -> list[Match]:
    """One-shot convenience: evaluate ``query`` against ``source``."""
    return SpexEngine(query).evaluate(source)
