"""XML stream substrate: events, parsing, serialization, trees, statistics.

This package implements the data model of Sec. II.1 of the paper — XML
streams as sequences of document messages — together with everything the
rest of the library needs to produce, consume, check and materialize such
streams.
"""

from .events import (
    DOCUMENT_LABEL,
    EndDocument,
    EndElement,
    Event,
    StartDocument,
    StartElement,
    Text,
    end_tag,
    events_from_tags,
    is_document_boundary,
    label_of,
    start_tag,
    tags_from_events,
)
from .documents import concat_documents, count_documents, split_documents
from .faults import (
    ADVERSARIAL_FAULT_KINDS,
    FAULT_KINDS,
    RUNTIME_FAULT_KINDS,
    Fault,
    FaultInjector,
    FlakySource,
)
from .offsets import StreamCursor, skip_events
from .parser import (
    ParserLimits,
    iter_documents,
    iter_events,
    parse_batches,
    parse_file,
    parse_stream,
    parse_string,
)
from .recovery import (
    ErrorRecord,
    ErrorReport,
    RecoveryPolicy,
    as_policy,
    recovered_documents,
    recovering,
)
from .serializer import serialize, write_events
from .stats import StreamStats, measure, observed
from .tree import Document, Node, build_document
from .validate import checked, is_well_formed

__all__ = [
    "ADVERSARIAL_FAULT_KINDS",
    "DOCUMENT_LABEL",
    "Document",
    "EndDocument",
    "EndElement",
    "ErrorRecord",
    "ErrorReport",
    "Event",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FlakySource",
    "Node",
    "ParserLimits",
    "RUNTIME_FAULT_KINDS",
    "RecoveryPolicy",
    "StartDocument",
    "StartElement",
    "StreamCursor",
    "StreamStats",
    "Text",
    "as_policy",
    "build_document",
    "checked",
    "concat_documents",
    "count_documents",
    "end_tag",
    "events_from_tags",
    "is_document_boundary",
    "is_well_formed",
    "iter_documents",
    "iter_events",
    "label_of",
    "measure",
    "observed",
    "parse_batches",
    "parse_file",
    "parse_stream",
    "parse_string",
    "recovered_documents",
    "recovering",
    "serialize",
    "skip_events",
    "split_documents",
    "start_tag",
    "tags_from_events",
    "write_events",
]
