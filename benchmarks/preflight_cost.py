"""Per-query cost of pre-flight and of ``add_query`` over the workload corpus.

    PYTHONPATH=src python benchmarks/preflight_cost.py [--rounds N]

Times ``preflight(expr)`` on the parsed query, as the engines call it, and
``MultiQueryEngine({}).add_query(id, text)`` on the query text, as a
subscriber sends it, for each query of
``repro.workloads.query_corpus()``, ``N`` calls each, and prints one JSON
object: the per-query medians in milliseconds and their median over the
corpus.  The engine is built outside the timed call.  Run it with
``PYTHONPATH`` pointing at another checkout's ``src`` to time that tree
with the same script, alternating the two to compare them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.analysis import preflight
from repro.core.multiquery import MultiQueryEngine
from repro.rpeq.parser import parse
from repro.workloads import query_corpus


def _median_ms(call, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args()
    result: dict[str, dict[str, float]] = {"preflight_ms": {}, "add_query_ms": {}}
    for name, text in query_corpus().items():
        result["preflight_ms"][name] = _median_ms(
            lambda expr=parse(text): preflight(expr), args.rounds
        )
        engines = iter([MultiQueryEngine({}) for _ in range(args.rounds)])
        result["add_query_ms"][name] = _median_ms(
            lambda text=text, engines=engines: next(engines).add_query("q", text),
            args.rounds,
        )
    summary = {
        f"median_{key}": statistics.median(per_query.values())
        for key, per_query in result.items()
    }
    print(json.dumps({**summary, **result}, sort_keys=True))


if __name__ == "__main__":
    main()
