"""Experiment harness: Table 1, Figure 4, compositional statistics."""

from repro.analysis.experiments import (
    CompositionalRow,
    Figure4Curves,
    PAPER_TABLE1,
    Table1Row,
    compositional_row,
    figure4_curves,
    table1_row,
)
from repro.analysis.report import ReportScale, generate_report, write_report
from repro.analysis.validate import CheckOutcome, run_selfcheck
from repro.analysis.sweeps import (
    SweepPoint,
    sweep_cluster_size,
    sweep_failure_rate,
    sweep_repair_speed,
)
from repro.analysis.stats import AlternatingStatistics, ctmdp_alternating_statistics
from repro.analysis.tables import (
    format_bytes,
    render_compositional,
    render_figure4,
    render_table1,
)

__all__ = [
    "CompositionalRow",
    "Figure4Curves",
    "PAPER_TABLE1",
    "Table1Row",
    "compositional_row",
    "figure4_curves",
    "table1_row",
    "CheckOutcome",
    "run_selfcheck",
    "ReportScale",
    "generate_report",
    "write_report",
    "SweepPoint",
    "sweep_cluster_size",
    "sweep_failure_rate",
    "sweep_repair_speed",
    "AlternatingStatistics",
    "ctmdp_alternating_statistics",
    "format_bytes",
    "render_compositional",
    "render_figure4",
    "render_table1",
]
