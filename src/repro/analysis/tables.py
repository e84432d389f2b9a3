"""Plain-text rendering of the experiment results in the paper's layout."""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments import (
    CompositionalRow,
    Figure4Curves,
    PAPER_TABLE1,
    Table1Row,
)

__all__ = ["format_bytes", "render_table1", "render_figure4", "render_compositional"]


def format_bytes(size: int) -> str:
    """Human-readable byte size (KB/MB as in the paper's Mem column)."""
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GB"  # pragma: no cover - unreachable


def _format_row(cells: Sequence[str], widths: Sequence[int]) -> str:
    return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))


def _render_grid(header: Sequence[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[col]), *(len(row[col]) for row in rows)) if rows else len(header[col])
        for col in range(len(header))
    ]
    lines = [_format_row(header, widths)]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(_format_row(row, widths) for row in rows)
    return "\n".join(lines)


def render_table1(rows: list[Table1Row], compare_paper: bool = True) -> str:
    """Render Table 1: model sizes, memory, timings, iterations.

    With ``compare_paper`` the paper's interactive-state counts and
    iteration numbers are shown next to ours.
    """
    header = [
        "N",
        "Inter.st",
        "Markov.st",
        "Inter.tr",
        "Markov.tr",
        "Mem",
        "Gen(s)",
    ]
    bound_set: set[float] = set()
    for row in rows:
        bound_set.update(row.time_bounds)
        bound_set.update(row.runtime_seconds)
    bounds = tuple(sorted(bound_set))
    for bound in bounds:
        header.append(f"Runtime {bound:g}h (s)")
    for bound in bounds:
        header.append(f"Iter {bound:g}h")
    if compare_paper:
        header.extend(["paper Inter.st", "paper Iter"])

    grid: list[list[str]] = []
    for row in rows:
        cells = [
            str(row.n),
            str(row.stats.interactive_states),
            str(row.stats.markov_states),
            str(row.stats.interactive_transitions),
            str(row.stats.markov_transitions),
            format_bytes(row.stats.memory_bytes),
            f"{row.generation_seconds:.2f}",
        ]
        for bound in bounds:
            runtime = row.runtime_seconds.get(bound)
            cells.append(f"{runtime:.2f}" if runtime is not None else "-")
        for bound in bounds:
            cells.append(str(row.iterations.get(bound, "-")))
        if compare_paper:
            paper = PAPER_TABLE1.get(row.n)
            if paper is not None:
                cells.append(str(paper[0]))
                cells.append(f"{paper[4]}/{paper[5]}")
            else:
                cells.extend(["-", "-"])
        grid.append(cells)
    return _render_grid(header, grid)


def render_figure4(curves: Figure4Curves) -> str:
    """Render one Figure 4 panel as a table of probabilities over time."""
    header = ["t (h)", "CTMDP sup", "CTMC"]
    if curves.ctmdp_min is not None:
        header.insert(2, "CTMDP inf")
    header.append("CTMC/sup")
    grid: list[list[str]] = []
    for idx, t in enumerate(curves.time_points):
        sup = curves.ctmdp_max[idx]
        ctmc = curves.ctmc[idx]
        cells = [f"{t:g}", f"{sup:.6e}"]
        if curves.ctmdp_min is not None:
            cells.append(f"{curves.ctmdp_min[idx]:.6e}")
        cells.append(f"{ctmc:.6e}")
        cells.append(f"{ctmc / sup:.4f}" if sup > 0.0 else "-")
        grid.append(cells)
    title = f"Figure 4 panel: FTWC N={curves.n}, gamma={curves.gamma:g}"
    return title + "\n" + _render_grid(header, grid)


def render_compositional(rows: list[CompositionalRow]) -> str:
    """Render the compositional-route statistics beside the direct route."""
    header = [
        "N",
        "Peak product",
        "IMC states",
        "IMC inter.tr",
        "IMC markov.tr",
        "CTMDP states",
        "CTMDP trans",
        "Direct states",
        "Build(s)",
        "p(100h)",
        "p(100h) direct",
    ]
    grid = [
        [
            str(row.n),
            str(row.peak_states),
            str(row.final_imc_states),
            str(row.final_imc_interactive),
            str(row.final_imc_markov),
            str(row.ctmdp_states),
            str(row.ctmdp_transitions),
            str(row.direct_ctmdp_states),
            f"{row.build_seconds:.2f}",
            f"{row.probability_100h:.12e}",
            f"{row.direct_probability_100h:.12e}",
        ]
        for row in rows
    ]
    return _render_grid(header, grid)
