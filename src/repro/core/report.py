"""Plain-text table rendering for figure/benchmark output.

The benchmark harness prints each figure as rows; these helpers format
them the way the paper's tables read, without any plotting dependency.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str] = (),
    float_digits: int = 2,
) -> str:
    """Render rows of dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered))
        for i, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r))
        for r in rendered
    )
    return f"{header}\n{rule}\n{body}"
