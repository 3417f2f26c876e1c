"""One time source for the whole codebase.

Deadlines, backoff, stall watchdogs and latency injection all need a
clock; tests need to *control* that clock.  Before this module each
consumer reached for :func:`time.monotonic`/:func:`time.sleep` directly,
which made wall-clock behaviour untestable without real sleeping.
:class:`Clock` is the single injectable abstraction: production code
uses :data:`SYSTEM_CLOCK`, tests pass a :class:`FakeClock` and advance
it deterministically.

:class:`ExponentialBackoff` is the one retry schedule, so a supervised
reconnect, a shard restart and a service restart back off alike.

Adopters: :class:`~repro.core.supervisor.Supervisor` (backoff and
checkpoint cadence), :func:`repro.limits.stream_guard` (per-document
wall-clock budget), the serving layer
(:mod:`repro.core.serving` deadlines), and
:class:`~repro.xmlstream.faults.FaultInjector` (``stall`` and
``slow_source`` latency injection).
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable


class Clock:
    """Injectable time source: a monotonic reading plus a sleeper."""

    def monotonic(self) -> float:
        """Seconds from an arbitrary, monotonically increasing origin."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block for ``seconds`` (or simulate blocking, for fakes)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real wall clock (:func:`time.monotonic` / :func:`time.sleep`)."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


#: Shared default instance — stateless, so one is enough.
SYSTEM_CLOCK = SystemClock()


class FakeClock(Clock):
    """Deterministic clock for tests.

    Time moves only when told to: :meth:`advance` jumps the reading, and
    :meth:`sleep` advances it by the requested amount (so code that
    sleeps against a deadline terminates instantly in tests).  Every
    sleep is recorded for assertions.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        #: every ``sleep`` duration requested, in order
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        if seconds > 0:
            self._now += seconds

    def advance(self, seconds: float) -> None:
        """Move time forward without sleeping."""
        if seconds < 0:
            raise ValueError("clocks cannot run backwards")
        self._now += seconds


class _CallableClock(Clock):
    """Adapter wrapping bare ``monotonic``/``sleep`` callables.

    Keeps the historical :class:`~repro.core.supervisor.Supervisor`
    signature (``sleep=``, ``clock=`` as plain callables) working
    unchanged on top of the unified abstraction.
    """

    def __init__(
        self,
        monotonic: Callable[[], float] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self._monotonic = monotonic if monotonic is not None else time.monotonic
        self._sleep = sleep if sleep is not None else time.sleep

    def monotonic(self) -> float:
        return self._monotonic()

    def sleep(self, seconds: float) -> None:
        self._sleep(seconds)


def as_clock(value: Clock | Callable[[], float] | None) -> Clock:
    """Coerce ``None`` (system), a :class:`Clock`, or a bare monotonic
    callable into a :class:`Clock`."""
    if value is None:
        return SYSTEM_CLOCK
    if isinstance(value, Clock):
        return value
    if callable(value):
        return _CallableClock(monotonic=value)
    raise TypeError(f"not a clock: {value!r}")


class ExponentialBackoff:
    """Seeded exponential backoff with jitter, shared retry discipline.

    The supervisor (:mod:`repro.core.supervisor`), the shard coordinator
    (:mod:`repro.core.shards`) and the service supervisor
    (:mod:`repro.service.supervisor`) all restart under this schedule.
    ``delay(failures)`` is a pure function of the seeded RNG stream, so
    schedules are reproducible.
    """

    def __init__(
        self,
        initial: float = 0.1,
        factor: float = 2.0,
        maximum: float = 30.0,
        jitter: float = 0.1,
        seed: int = 0,
    ) -> None:
        self.initial = initial
        self.factor = factor
        self.maximum = maximum
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, failures: int) -> float:
        """Backoff delay for the ``failures``-th consecutive failure (≥1)."""
        delay = min(self.maximum, self.initial * self.factor ** (failures - 1))
        if self.jitter:
            delay *= 1.0 + self._rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)
