"""GraphViz DOT export for CTMDPs (``repro export``).

Intended for debugging and documentation: CTMDP hyperedges are rendered
through small decision nodes, one per rate function, with edges
labelled by their rates.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ctmdp import CTMDP

__all__ = ["ctmdp_to_dot", "write_dot"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def ctmdp_to_dot(ctmdp: CTMDP, name: str = "ctmdp") -> str:
    """Render a CTMDP as a DOT digraph with explicit decision nodes."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for state in range(ctmdp.num_states):
        label = ctmdp.state_names[state] if ctmdp.state_names else str(state)
        shape = "doublecircle" if state == ctmdp.initial else "circle"
        lines.append(f'  s{state} [label="{_escape(label)}", shape={shape}];')
    matrix = ctmdp.rate_matrix
    for row in range(ctmdp.num_transitions):
        src = int(ctmdp.sources[row])
        action = ctmdp.labels[row]
        lines.append(f'  d{row} [label="{_escape(action)}", shape=point];')
        lines.append(f"  s{src} -> d{row} [arrowhead=none];")
        lo, hi = matrix.indptr[row], matrix.indptr[row + 1]
        for dst, rate in zip(matrix.indices[lo:hi], matrix.data[lo:hi]):
            lines.append(f'  d{row} -> s{int(dst)} [label="{rate:g}"];')
    lines.append("}")
    return "\n".join(lines)


def write_dot(text: str, path: str | Path) -> None:
    """Write a DOT string to a file."""
    Path(path).write_text(text + "\n", encoding="ascii")
