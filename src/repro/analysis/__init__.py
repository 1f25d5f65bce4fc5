"""Analysis: trend comparison, utilization correlation, register reuse,
control-path proxies, and text report rendering."""

from repro.analysis.trends import TrendComparison, compare_trends
from repro.analysis.utilization import normalized_pair, kernel_metrics
from repro.analysis.reuse import RegisterReuseAnalyzer
from repro.analysis.control_path import control_path_rate
from repro.analysis.report import bar, format_table, stacked_row

__all__ = [
    "TrendComparison",
    "compare_trends",
    "normalized_pair",
    "kernel_metrics",
    "RegisterReuseAnalyzer",
    "control_path_rate",
    "bar",
    "format_table",
    "stacked_row",
]
