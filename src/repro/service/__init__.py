"""Async streaming service frontend (``spex serve --listen``).

The network face of the SDI scenario: producers push XML event streams
in over long-lived TCP connections, subscribers register rpeq queries
and receive match frames — with the serving layer's bulkheads,
breakers, admission control and deadlines applied per wire query, plus
the transport-level robustness only a server needs (backpressure,
overflow policies, clocked timeouts, heartbeats, graceful drain).

Layering:

* :mod:`repro.service.protocol` — transport-agnostic NDJSON frame codec
  and code vocabulary;
* :mod:`repro.service.server` — the asyncio TCP service around one
  :class:`~repro.core.multiquery.ServePump`;
* :mod:`repro.service.client` — thin asyncio producer/subscriber
  clients;
* :mod:`repro.service.loadgen` — load harness measuring p50/p99 match
  latency and sustained ev/s, with seeded chaos modes;
* :mod:`repro.service.wal` — write-ahead match log backing durable
  sessions and exactly-once-observed resume;
* :mod:`repro.service.supervisor` — process supervisor restarting a
  crashed server with ``--resume`` under seeded backoff.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from .protocol import (
    MAX_FRAME_BYTES,
    OVERFLOW_BLOCK,
    OVERFLOW_DISCONNECT,
    OVERFLOW_POLICIES,
    OVERFLOW_SHED_OLDEST,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from .server import ServiceConfig, ServiceStats, SpexService

if TYPE_CHECKING:
    from .client import ProducerClient, ServiceConnection, SubscriberClient
    from .loadgen import LoadConfig, LoadReport, SubscriberResult, percentile, run_load
    from .supervisor import (
        ServiceSupervisor,
        ServiceSupervisorConfig,
        ServiceSupervisorError,
    )
    from .wal import Session, SessionStore, WalError, WalRecovery, WriteAheadLog

#: Names loaded on first use, so that ``spex serve --listen`` imports
#: only what it serves (PEP 562).
_LAZY = {
    "ProducerClient": "client",
    "ServiceConnection": "client",
    "SubscriberClient": "client",
    "LoadConfig": "loadgen",
    "LoadReport": "loadgen",
    "SubscriberResult": "loadgen",
    "percentile": "loadgen",
    "run_load": "loadgen",
    "ServiceSupervisor": "supervisor",
    "ServiceSupervisorConfig": "supervisor",
    "ServiceSupervisorError": "supervisor",
    "Session": "wal",
    "SessionStore": "wal",
    "WalError": "wal",
    "WalRecovery": "wal",
    "WriteAheadLog": "wal",
}


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "MAX_FRAME_BYTES",
    "OVERFLOW_BLOCK",
    "OVERFLOW_DISCONNECT",
    "OVERFLOW_POLICIES",
    "OVERFLOW_SHED_OLDEST",
    "PROTOCOL_VERSION",
    "LoadConfig",
    "LoadReport",
    "ProducerClient",
    "ProtocolError",
    "ServiceConfig",
    "ServiceConnection",
    "ServiceStats",
    "ServiceSupervisor",
    "ServiceSupervisorConfig",
    "ServiceSupervisorError",
    "Session",
    "SessionStore",
    "SpexService",
    "SubscriberClient",
    "SubscriberResult",
    "WalError",
    "WalRecovery",
    "WriteAheadLog",
    "decode_frame",
    "encode_frame",
    "percentile",
    "run_load",
]
