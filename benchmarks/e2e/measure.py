"""Statistics, spans and match-stream checking shared by the benchmark.

Nothing here imports ``repro``: these are the benchmark's own
instruments, tested on their own in ``tests/``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterator, Sequence

# ----------------------------------------------------------------------
# percentiles and summaries

#: Percentiles a latency metric may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def highest_percentile(samples: int) -> float | None:
    """The highest reportable percentile: at least ten samples beyond it.

    A p99 over 300 samples is the third-worst value, which one stall
    moves; over 3,000 it has 30 samples beyond it.  ``None`` when even
    the median does not qualify.
    """
    best = None
    for p in PERCENTILES:
        # in tenths of a percent, so 100 samples do carry a p90
        if samples * (1000 - round(p * 10)) >= 10 * 1000:
            best = p
    return best


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


# ----------------------------------------------------------------------
# spans


class SpanRecorder:
    """Spans kept in memory: ``(name, start, end, parent, request)``.

    ``parent`` is the index of the span that caused this one (``None``
    for a root); ``request`` groups the spans of one document.  Spans
    opened with :meth:`span` nest by call structure; :meth:`add` records
    an interval measured elsewhere (a timestamp pair from the event
    loop) under an explicit parent.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[int]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: int | None = None,
    ) -> int:
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append([name, start, end, parent, request])
        return len(self.spans) - 1

    def to_obj(self, workload: str) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request": request,
                "workload": workload,
            }
            for name, start, end, parent, request in self.spans
        ]


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Self time per span name: duration minus what child spans cover.

    Children may overlap each other (documents in flight at once), so
    the covered part is the union of their intervals, clipped to the
    parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def covered(spans: Sequence[Sequence]) -> float:
    """Seconds that lie inside at least one span."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted((span[1], span[2]) for span in spans):
        if end > cursor:
            total += end - max(start, cursor)
            cursor = end
    return total


# ----------------------------------------------------------------------
# match streams
#
# A delivered match is one sink line ``query_id\tposition\tlabel`` (plus
# ``\tfragment`` where fragments are collected).  Lines are compared per
# query, in delivery order.


def match_line(
    query_id: str, position: int, label: str, fragment: str | None = None
) -> str:
    line = f"{query_id}\t{position}\t{label}"
    return line if fragment is None else f"{line}\t{fragment}"


def split_by_query(lines: Sequence[str]) -> dict[str, list[str]]:
    by_query: dict[str, list[str]] = {}
    for line in lines:
        query_id, _, rest = line.partition("\t")
        by_query.setdefault(query_id, []).append(rest)
    return by_query


def digest(lines: Sequence[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def query_digests(lines: Sequence[str]) -> dict[str, list]:
    """Per query: ``[match count, SHA-256 of its ordered matches]``."""
    return {
        query_id: [len(matches), digest(matches)]
        for query_id, matches in sorted(split_by_query(lines).items())
    }


def count_failures(expected: Sequence[str], got: Sequence[str]) -> int:
    """Failed operations in one query's delivered matches.

    Missing, duplicated and wrong matches are the two-sided multiset
    difference.  A stream with the right matches in the wrong order
    fails once per out-of-place match.
    """
    want, have = Counter(expected), Counter(got)
    wrong = sum((want - have).values()) + sum((have - want).values())
    if wrong:
        return wrong
    return sum(1 for a, b in zip(expected, got) if a != b)


def stream_failures(
    expected: dict[str, list[str]], got: dict[str, list[str]]
) -> int:
    return sum(
        count_failures(expected.get(query_id, []), got.get(query_id, []))
        for query_id in set(expected) | set(got)
    )
