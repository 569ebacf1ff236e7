"""Scatter tables and series for experiment output.

The paper's figures are scatter plots of (execution time, time penalty)
per algorithm; without a plotting dependency we report the same data as
aligned text tables (:class:`repro.tables.TextTable`) and CSV, which is
what the benchmark harness prints.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.tables import TextTable

__all__ = ["scatter_table", "ascii_scatter", "format_percent"]


def format_percent(fraction: float) -> str:
    """0.029 -> ``2.9%``."""
    return f"{fraction * 100:.1f}%"


def scatter_table(
    points_per_algorithm: Mapping[str, Sequence[tuple[float, float]]],
    title: str | None = None,
) -> TextTable:
    """Tabulate figure-style scatter data.

    *points_per_algorithm* maps algorithm name to its
    ``(execution_time, time_penalty)`` points; one output row per point,
    in seconds, mirroring the axes of Figs. 6-8.
    """
    table = TextTable(
        ["algorithm", "execution_time_s", "time_penalty_s"], title=title
    )
    for name, points in points_per_algorithm.items():
        for execution, penalty in points:
            table.add_row([name, f"{execution:.6g}", f"{penalty:.6g}"])
    return table


def ascii_scatter(
    points_per_algorithm: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 64,
    height: int = 20,
    title: str | None = None,
) -> str:
    """Render figure-style scatter data as a character plot.

    X axis: execution time; Y axis: time penalty (both in seconds, as in
    Figs. 6-8 -- "the closer a solution is to point (0,0), the better").
    Each algorithm gets a letter marker; collisions show ``*``. Axes are
    anchored at 0 so the distance-to-origin reading survives.
    """
    if width < 8 or height < 4:
        raise ValueError("plot area too small (need width >= 8, height >= 4)")
    all_points = [
        point
        for points in points_per_algorithm.values()
        for point in points
    ]
    lines: list[str] = []
    if title:
        lines.append(title)
    if not all_points:
        lines.append("(no points)")
        return "\n".join(lines)

    x_max = max(x for x, _ in all_points) or 1.0
    y_max = max(y for _, y in all_points) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = {}
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for index, name in enumerate(points_per_algorithm):
        markers[name] = letters[index % len(letters)]
    for name, points in points_per_algorithm.items():
        marker = markers[name]
        for x, y in points:
            column = min(width - 1, int(x / x_max * (width - 1)))
            row = height - 1 - min(height - 1, int(y / y_max * (height - 1)))
            cell = grid[row][column]
            grid[row][column] = marker if cell in (" ", marker) else "*"

    lines.append(f"time penalty (0 .. {y_max:.4g} s)")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" execution time (0 .. {x_max:.4g} s)")
    legend = "  ".join(
        f"{marker}={name}" for name, marker in markers.items()
    )
    lines.append(f"legend: {legend}  (*=overlap)")
    return "\n".join(lines)
