"""SPEX core: messages, transducers, networks, compiler, engine.

This package is the paper's primary contribution — the streamed and
progressive evaluation model of Sec. III.
"""

from .checkpoint import CHECKPOINT_VERSION, Checkpoint
from .clock import SYSTEM_CLOCK, Clock, FakeClock, SystemClock, as_clock
from .compiler import compile_network
from .engine import EngineStats, RobustnessCounters, SpexEngine, evaluate
from .serving import (
    AdmissionDecision,
    AdmissionPolicy,
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    QueryOutcome,
    ServingPolicy,
    ServingReport,
    classify_admission,
    ensure_admitted,
)
from .supervisor import (
    StallError,
    Supervisor,
    SupervisorConfig,
    SupervisorReport,
    supervise,
)
from .flow_transducers import JoinTransducer, SplitTransducer, UnionTransducer
from .messages import Activation, Close, Contribute, Doc, Message
from .network import Network, NetworkStats
from .multiquery import MultiQueryEngine
from .output_tx import Match, OutputStats, OutputTransducer
from .trace import Tracer, trace_run
from .path_transducers import (
    ChildTransducer,
    ClosureTransducer,
    DemandInputTransducer,
    InputTransducer,
    StarTransducer,
)
from .qualifier_transducers import (
    VariableCreator,
    VariableDeterminant,
    VariableFilter,
)
from .transducer import Transducer, TransducerStats

__all__ = [
    "Activation",
    "AdmissionDecision",
    "AdmissionPolicy",
    "BreakerPolicy",
    "BreakerState",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "ChildTransducer",
    "CircuitBreaker",
    "Clock",
    "Close",
    "ClosureTransducer",
    "Contribute",
    "DemandInputTransducer",
    "Doc",
    "EngineStats",
    "FakeClock",
    "InputTransducer",
    "JoinTransducer",
    "Match",
    "Message",
    "MultiQueryEngine",
    "Network",
    "NetworkStats",
    "OutputStats",
    "OutputTransducer",
    "QueryOutcome",
    "RobustnessCounters",
    "SYSTEM_CLOCK",
    "ServingPolicy",
    "ServingReport",
    "SpexEngine",
    "SplitTransducer",
    "StallError",
    "StarTransducer",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorReport",
    "SystemClock",
    "Tracer",
    "Transducer",
    "TransducerStats",
    "UnionTransducer",
    "VariableCreator",
    "VariableDeterminant",
    "VariableFilter",
    "as_clock",
    "classify_admission",
    "compile_network",
    "ensure_admitted",
    "evaluate",
    "supervise",
    "trace_run",
]
