"""Subscription dispatch — the SDI delivery layer.

The paper's motivating application (Sec. I): filter a stream according to
subscriber requirements and *disseminate* the selected information.  The
engines in :mod:`repro.core.multiquery` compute the matches; this module
adds the delivery half: callbacks per subscription, invoked progressively
as matches are decided, with per-subscriber isolation (one failing
callback never stalls the stream or the other subscribers).
"""

from __future__ import annotations

import logging
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from ..rpeq.ast import Rpeq
from ..xmlstream.events import Event
from .multiquery import SharedNetworkEngine
from .output_tx import Match

logger = logging.getLogger(__name__)

#: A subscriber callback: receives each match for its subscription.
Callback = Callable[[Match], None]


@dataclass
class DispatchReport:
    """Outcome of one dispatch run.

    Attributes:
        delivered: matches delivered per subscription id.
        failures: callback exceptions per subscription id (the stream
            continues past them; they are also logged).
    """

    delivered: dict[str, int] = field(default_factory=dict)
    failures: dict[str, list[Exception]] = field(default_factory=dict)

    @property
    def total_delivered(self) -> int:
        return sum(self.delivered.values())


class Dispatcher:
    """Routes matches of many subscriptions to their subscribers.

    Subscriptions share one prefix-shared network (one stream pass);
    fragments are collected only if at least one subscriber wants them.

    Example::

        dispatcher = Dispatcher()
        dispatcher.subscribe("rush", "_*.order[rush]", notify_ops)
        dispatcher.subscribe("all", "_*.order", archive)
        report = dispatcher.dispatch(stream)
    """

    def __init__(self, collect_events: bool = True) -> None:
        self._queries: dict[str, str | Rpeq] = {}
        self._callbacks: dict[str, list[Callback]] = {}
        self.collect_events = collect_events

    def subscribe(
        self, subscription_id: str, query: str | Rpeq, callback: Callback
    ) -> None:
        """Register a callback for a subscription (multiple allowed)."""
        existing = self._queries.get(subscription_id)
        if existing is not None and existing != query:
            raise ValueError(
                f"subscription {subscription_id!r} already registered "
                f"with a different query"
            )
        self._queries[subscription_id] = query
        self._callbacks.setdefault(subscription_id, []).append(callback)

    def unsubscribe(self, subscription_id: str) -> None:
        """Drop a subscription and all its callbacks."""
        self._queries.pop(subscription_id, None)
        self._callbacks.pop(subscription_id, None)

    def __len__(self) -> int:
        return len(self._queries)

    def dispatch(self, source: str | Iterable[Event]) -> DispatchReport:
        """One stream pass: deliver every match to its subscribers.

        Callback exceptions are caught, logged, and recorded in the
        report — dissemination to other subscribers continues.
        """
        report = DispatchReport(
            delivered={subscription: 0 for subscription in self._queries}
        )
        if not self._queries:
            return report
        engine = SharedNetworkEngine(
            dict(self._queries), collect_events=self.collect_events
        )
        for subscription_id, match in engine.run(source):
            for callback in self._callbacks.get(subscription_id, ()):
                try:
                    callback(match)
                except Exception as error:  # noqa: BLE001 - isolation
                    logger.exception(
                        "subscriber %r failed on match at position %d",
                        subscription_id,
                        match.position,
                    )
                    report.failures.setdefault(subscription_id, []).append(error)
            report.delivered[subscription_id] += 1
        return report
