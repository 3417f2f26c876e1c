"""Exception hierarchy for the SPEX reproduction.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from stream errors from engine errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class QuerySyntaxError(ReproError):
    """An rpeq or conjunctive query could not be parsed.

    Attributes:
        position: character offset in the query text where parsing failed,
            or ``None`` when the failure is not tied to a single position.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class UnsupportedFeatureError(ReproError):
    """A query uses a construct outside the supported fragment.

    Raised, for example, by the XPath translator for axes that the rpeq
    fragment of the paper does not cover (reverse axes are rewritten where
    possible; value comparisons are not supported).
    """


class StreamError(ReproError):
    """An XML event stream is malformed.

    Covers mismatched end tags, events outside the document envelope,
    and premature end of stream.  ``event`` is the event a
    :class:`~repro.xmlstream.offsets.StreamCursor` refused, ``None``
    where the source itself failed.
    """

    def __init__(self, message: str, event: object = None) -> None:
        super().__init__(message)
        self.event = event


class InputLimitError(StreamError):
    """An untrusted-input hardening ceiling was exceeded while parsing.

    Subclasses :class:`StreamError` so the recovery policies
    (:mod:`repro.xmlstream.recovery`) treat a hardening trip exactly like
    any other malformed-input failure: fatal under ``strict``,
    quarantined under ``skip``, auto-closed under ``repair``.  The
    ``code`` attribute identifies which guard fired:

    ========  =====================================================
    code      guard
    ========  =====================================================
    INPUT001  entity amplification (billion-laughs expansion size)
    INPUT002  entity nesting depth
    INPUT003  text-node length
    INPUT004  attribute value length / count
    INPUT005  tag or attribute name length
    INPUT006  parse-output amplification backstop
    ========  =====================================================
    """

    def __init__(self, message: str, code: str, observed: int | float | None = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.observed = observed


class DeadlineExceeded(ReproError):
    """A per-document or per-stream wall-clock deadline expired.

    In the serving layer (:meth:`MultiQueryEngine.serve
    <repro.core.multiquery.MultiQueryEngine.serve>`) deadline expiry is
    a per-query *outcome*, never a global abort: affected queries are
    detached with this error recorded in their
    :class:`~repro.core.serving.QueryOutcome` while the stream pass
    continues (document deadline) or winds down cleanly (stream
    deadline).  The ``scope`` attribute is ``"document"`` or
    ``"stream"``.
    """

    def __init__(self, message: str, scope: str = "stream") -> None:
        super().__init__(message)
        self.scope = scope


class AdmissionError(ReproError):
    """A query was refused admission by the serving budget policy.

    Raised by :meth:`MultiQueryEngine.add_query
    <repro.core.multiquery.MultiQueryEngine.add_query>` with
    ``strict=True``; otherwise rejection is recorded as a per-query
    outcome and the query simply never joins the stream pass.  The
    :class:`~repro.core.serving.AdmissionDecision` is attached as
    ``decision``.
    """

    def __init__(self, message: str, decision: object | None = None) -> None:
        super().__init__(message)
        self.decision = decision


class ResourceLimitError(ReproError):
    """A configured :class:`~repro.limits.ResourceLimits` bound was exceeded.

    Raised by the network (stream depth, per-document event/time budgets,
    formula size σ) and by the output transducer (buffered events, pending
    candidates) when the limits policy is ``"raise"``.  The ``limit`` and
    ``observed`` attributes identify which guard fired and the value that
    tripped it, so callers can log actionable per-document error records.
    """

    def __init__(self, message: str, limit: str | None = None, observed: int | float | None = None) -> None:
        super().__init__(message)
        self.limit = limit
        self.observed = observed


class CheckpointError(ReproError):
    """A checkpoint could not be created, verified, or resumed.

    Raised for integrity failures (checksum mismatch, truncated or
    hand-edited checkpoint files), version skew, and resume-time
    incompatibilities (different query, different compiler settings, a
    source shorter than the checkpointed position).
    """


class EngineError(ReproError):
    """Internal evaluation invariant violated.

    This indicates a bug in the engine (or a hand-built network wired
    incorrectly), never a user input problem.
    """


class CompilationError(ReproError):
    """An rpeq or conjunctive query could not be compiled into a network."""


class StaticAnalysisError(ReproError):
    """The pre-flight static analyzer rejected a query.

    Raised by the engines when an error-severity diagnostic is found
    before any stream is consumed — e.g. a statically unsatisfiable
    query under a DTD, or a certified worst-case memory bound that
    already exceeds the configured :class:`~repro.limits.ResourceLimits`.
    The full :class:`~repro.analysis.AnalysisReport` is attached as
    ``report``.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report
