"""Named experiment drivers printing the paper's tables and figures.

Runnable without pytest::

    python -m repro.bench figure14          # Fig. 14 (both datasets)
    python -m repro.bench figure15          # Fig. 15 (DMOZ, SPEX only)
    python -m repro.bench memory            # E8 memory comparison
    python -m repro.bench scaling           # E4/E5 linearity series
    python -m repro.bench all

Each driver returns its report string (also printed), so the functions
double as a library API for notebooks and scripts.  Scales are chosen to
finish in seconds; pass ``scale`` to push them up — the shapes are scale
invariant.
"""

from __future__ import annotations

import time
from collections.abc import Callable

from ..core.engine import SpexEngine
from ..workloads import (
    DMOZ_QUERIES,
    MONDIAL_QUERIES,
    WORDNET_QUERIES,
    dmoz_content,
    dmoz_structure,
    mondial,
    wordnet,
)
from ..workloads.generators import deep_chain, random_tree
from .charts import bar_chart, grouped_bar_chart
from .harness import run_grid
from .memory import traced
from .report import check_match_agreement, format_table, grid_table, speedup_summary


def figure14(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """Fig. 14: MONDIAL and WordNet, classes 1-4, three processors."""
    sections: list[str] = []
    datasets = [
        ("MONDIAL", lambda: mondial(seed=7, countries=int(200 * scale)), MONDIAL_QUERIES),
        ("WordNet", lambda: wordnet(seed=7, nouns=int(5000 * scale)), WORDNET_QUERIES),
    ]
    processors = ["spex", "dom", "treegrep"]
    for name, factory, queries in datasets:
        events = list(factory())
        results = run_grid(
            processors,
            {str(k): v for k, v in queries.items()},
            lambda: iter(events),
        )
        problems = check_match_agreement(results)
        if problems:
            raise AssertionError("; ".join(problems))
        sections.append(
            grid_table(
                f"Figure 14 — {name} ({len(events)} messages), seconds",
                results,
                processors,
            )
        )
        by_cell = {(r.query_id, r.processor): r.seconds for r in results}
        query_ids = sorted({r.query_id for r in results})
        sections.append(
            grouped_bar_chart(
                f"Figure 14 — {name} (bars, seconds)",
                query_ids,
                {
                    processor: [by_cell[(q, processor)] for q in query_ids]
                    for processor in processors
                },
                unit="s",
            )
        )
        sections.append(speedup_summary(results, baseline="dom"))
    report = "\n\n".join(sections)
    out(report)
    return report


def figure15(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """Fig. 15: DMOZ structure and content, SPEX only."""
    rows = []
    for file_name, factory in (
        ("structure", lambda: dmoz_structure(seed=7, topics=int(12000 * scale))),
        ("content", lambda: dmoz_content(seed=7, topics=int(24000 * scale))),
    ):
        events = list(factory())
        for class_id, query in DMOZ_QUERIES.items():
            engine = SpexEngine(query, collect_events=True)
            start = time.perf_counter()
            matches = sum(1 for _ in engine.run(iter(events)))
            elapsed = time.perf_counter() - start
            stats = engine.stats
            rows.append(
                [
                    f"{file_name}/{class_id}",
                    round(elapsed, 3),
                    matches,
                    len(events),
                    stats.output.peak_buffered_events,
                    stats.network.max_stack,
                ]
            )
    table = format_table(
        "Figure 15 — DMOZ (SPEX only)",
        ["file/class", "seconds", "matches", "messages", "peak buffer", "peak stack"],
        rows,
    )
    bars = bar_chart(
        "Figure 15 — DMOZ (bars, seconds)",
        [(str(row[0]), float(row[1])) for row in rows],
        unit="s",
    )
    report = table + "\n\n" + bars
    out(report)
    return report


def memory(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """E8: peak memory, SPEX vs. materializing baselines."""
    from .harness import make_processor

    query = "_*.Topic[editor].Title"
    rows = []
    for topics in (int(2000 * scale), int(8000 * scale)):
        for processor in ("spex", "dom", "buffer-dom"):
            evaluate = make_processor(processor, query)
            run = traced(lambda: evaluate(dmoz_structure(seed=7, topics=topics)))
            rows.append([processor, topics, round(run.peak_mib, 2), run.result])
    report = format_table(
        "E8 — peak traced memory (MiB) on DMOZ-like streams",
        ["processor", "topics", "peak MiB", "matches"],
        rows,
    )
    out(report)
    return report


def scaling(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """E4/E5: time vs. stream size, stack vs. depth."""
    rows = []
    engine = SpexEngine("_*.b[c].a", collect_events=False)
    for elements in (int(8000 * scale), int(16000 * scale), int(32000 * scale)):
        events = list(random_tree(seed=11, elements=elements, max_depth=6))
        start = time.perf_counter()
        matches = engine.count(iter(events))
        elapsed = time.perf_counter() - start
        rows.append(["size", elements, round(elapsed, 3), matches, ""])
    for depth in (64, 256, 1024):
        events = list(deep_chain(depth=depth, label="a", leaf_label="z"))
        engine_depth = SpexEngine("_*.a[z]", collect_events=False)
        start = time.perf_counter()
        matches = engine_depth.count(iter(events))
        elapsed = time.perf_counter() - start
        rows.append(
            ["depth", depth, round(elapsed, 3), matches,
             engine_depth.stats.network.max_stack]
        )
    report = format_table(
        "E4/E5 — linear time in s, stack bounded by d",
        ["sweep", "parameter", "seconds", "matches", "peak stack"],
        rows,
    )
    out(report)
    return report


def multiquery(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """E9: subscription sets — independent vs. shared-prefix networks."""
    import random

    from ..baselines.shared_network import SharedNetworkEngine
    from ..core.multiquery import MultiQueryEngine

    rng = random.Random(99)
    labels = ["country", "province", "city", "name", "population", "religions"]
    events = list(mondial(seed=7, countries=int(40 * scale)))
    rows = []
    for count in (4, 16, 64):
        queries = {}
        for index in range(count):
            a, b = rng.choice(labels), rng.choice(labels)
            queries[f"s{index}"] = f"_*.{a}.{b}" if index % 2 else f"_*.{a}[{b}]"
        independent = MultiQueryEngine(queries)
        shared = SharedNetworkEngine(queries)
        start = time.perf_counter()
        matches_a = sum(len(v) for v in independent.evaluate(iter(events)).values())
        independent_time = time.perf_counter() - start
        start = time.perf_counter()
        matches_b = sum(len(v) for v in shared.evaluate(iter(events)).values())
        shared_time = time.perf_counter() - start
        if matches_a != matches_b:
            raise AssertionError("engines disagree")
        rows.append(
            [count, round(independent_time, 3), round(shared_time, 3),
             shared.network_degree(), matches_a]
        )
    report = format_table(
        "E9 — multi-query SDI (seconds)",
        ["queries", "independent", "shared-prefix", "shared degree", "matches"],
        rows,
    )
    out(report)
    return report


def xmark_experiment(scale: float = 1.0, out: Callable[[str], None] = print) -> str:
    """E11: XMark-like workload across processors."""
    from ..workloads.xmark import QUERIES, xmark

    events = list(xmark(seed=7, scale=int(200 * scale)))
    results = run_grid(
        ["spex", "dom", "treegrep"],
        {str(k): v for k, v in QUERIES.items()},
        lambda: iter(events),
    )
    problems = check_match_agreement(results)
    if problems:
        raise AssertionError("; ".join(problems))
    report = grid_table(
        f"E11 — XMark-like auction site ({len(events)} messages), seconds",
        results,
        ["spex", "dom", "treegrep"],
    )
    out(report)
    return report


#: registry used by ``python -m repro.bench``
EXPERIMENTS: dict[str, Callable[..., str]] = {
    "figure14": figure14,
    "figure15": figure15,
    "memory": memory,
    "scaling": scaling,
    "multiquery": multiquery,
    "xmark": xmark_experiment,
}


def run_all(scale: float = 1.0, out: Callable[[str], None] = print) -> None:
    """Run every registered experiment in sequence."""
    for name, driver in EXPERIMENTS.items():
        out(f"\n### {name}\n")
        driver(scale=scale, out=out)
