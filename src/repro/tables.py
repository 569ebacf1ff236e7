"""Aligned plain-text tables and human-scaled time formatting.

The one table type every text surface prints: the CLI, the fleet
service's metrics and the experiment reports. It depends on nothing
else in the package, so importing it loads no experiment or numeric
dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["TextTable", "format_seconds"]


def format_seconds(value: float) -> str:
    """Human-scaled seconds: picks ms/us when small, fixed precision."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1.0:
        return f"{value:.3f} s"
    if magnitude >= 1e-3:
        return f"{value * 1e3:.3f} ms"
    if magnitude >= 1e-6:
        return f"{value * 1e6:.3f} us"
    return f"{value * 1e9:.3f} ns"


class TextTable:
    """A minimal aligned text table with CSV export.

    Parameters
    ----------
    headers:
        Column titles.
    title:
        Optional table caption printed above the header row.
    """

    def __init__(self, headers: Sequence[str], title: str | None = None):
        self.headers = list(headers)
        self.title = title
        self._rows: list[list[str]] = []

    def add_row(self, cells: Iterable[object]) -> None:
        """Append one row; cells are stringified."""
        row = [str(cell) for cell in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} "
                f"columns"
            )
        self._rows.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[str]]:
        """A copy of the current rows."""
        return [list(row) for row in self._rows]

    def render(self) -> str:
        """The aligned text rendering."""
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths))

        parts = []
        if self.title:
            parts.append(self.title)
        parts.append(line(self.headers))
        parts.append(line(["-" * w for w in widths]))
        parts.extend(line(row) for row in self._rows)
        return "\n".join(parts)

    def to_csv(self) -> str:
        """Comma-separated export (no quoting; cells must be simple)."""
        rows = [",".join(self.headers)]
        rows.extend(",".join(row) for row in self._rows)
        return "\n".join(rows)

    def __str__(self) -> str:
        return self.render()
