"""Benchmark harness: processors, timing, memory, paper-style reports."""

from .charts import bar_chart, grouped_bar_chart
from .harness import RunResult, make_processor, run_grid, run_one
from .memory import TracedRun, traced
from .report import (
    check_match_agreement,
    format_table,
    grid_table,
    speedup_summary,
)

__all__ = [
    "RunResult",
    "TracedRun",
    "bar_chart",
    "check_match_agreement",
    "format_table",
    "grid_table",
    "grouped_bar_chart",
    "make_processor",
    "run_grid",
    "run_one",
    "speedup_summary",
    "traced",
]
