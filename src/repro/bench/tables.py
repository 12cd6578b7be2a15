"""ASCII table rendering and paper-vs-measured comparison helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def fmt(value: Cell, precision: int = 3) -> str:
    """Format one table cell (None renders as the paper's '-')."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.{precision}f}"
    return str(value)


@dataclass
class TableData:
    """One rendered exhibit: title, header row, body rows, footnotes."""

    title: str
    headers: List[str]
    rows: List[List[Cell]]
    notes: List[str] = field(default_factory=list)

    def render(self, precision: int = 3) -> str:
        """Render as an aligned ASCII table."""
        body = [[fmt(cell, precision) for cell in row] for row in self.rows]
        widths = [len(header) for header in self.headers]
        for row in body:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def line(cells: Sequence[str]) -> str:
            return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))

        rule = "-+-".join("-" * width for width in widths)
        out = [self.title, "=" * len(self.title), line(self.headers), rule]
        out.extend(line(row) for row in body)
        for note in self.notes:
            out.append(f"  note: {note}")
        return "\n".join(out)

    def to_markdown(self, precision: int = 3) -> str:
        """Render as a GitHub-flavoured markdown table."""
        body = [[fmt(cell, precision) for cell in row] for row in self.rows]
        out = [f"### {self.title}", ""]
        out.append("| " + " | ".join(self.headers) + " |")
        out.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in body:
            out.append("| " + " | ".join(row) + " |")
        for note in self.notes:
            out.append(f"\n> {note}")
        return "\n".join(out)


def ratio(measured: float, paper: float) -> Optional[float]:
    """measured / paper, or None when the paper value is unusable."""
    if paper is None or paper == 0:
        return None
    return measured / paper


def within(measured: float, paper: float, tolerance: float) -> bool:
    """True when measured is within +/- tolerance (fraction) of paper."""
    if paper == 0:
        return measured == 0
    return abs(measured - paper) / abs(paper) <= tolerance
