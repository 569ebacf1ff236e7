"""Unit tests for text tables and scatter output."""

import pytest

from repro.experiments.reporting import format_percent, scatter_table
from repro.tables import TextTable, format_seconds


class TestFormatSeconds:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, "0"),
            (1.5, "1.500 s"),
            (0.25, "250.000 ms"),
            (0.00025, "250.000 us"),
            (2.5e-7, "250.000 ns"),
            (-0.002, "-2.000 ms"),
        ],
    )
    def test_scaling(self, value, expected):
        assert format_seconds(value) == expected


def test_format_percent():
    assert format_percent(0.029) == "2.9%"
    assert format_percent(0.0) == "0.0%"


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"], title="demo")
        table.add_row(["short", 1])
        table.add_row(["a-much-longer-name", 22])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert lines[1].startswith("name")
        assert set(lines[2]) <= {"-", " "}
        # all data lines have equal visible width structure
        assert "a-much-longer-name" in lines[4]

    def test_row_arity_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_len_and_rows_copy(self):
        table = TextTable(["a"])
        table.add_row([1])
        assert len(table) == 1
        rows = table.rows
        rows[0][0] = "mutated"
        assert table.rows[0][0] == "1"

    def test_str_equals_render(self):
        table = TextTable(["a"])
        table.add_row([1])
        assert str(table) == table.render()


def test_scatter_table():
    points = {
        "FairLoad": [(0.1, 0.01), (0.2, 0.02)],
        "HOLM": [(0.05, 0.03)],
    }
    table = scatter_table(points, title="fig6")
    assert len(table) == 3
    assert ["FairLoad", "0.1", "0.01"] in table.rows
    assert ["HOLM", "0.05", "0.03"] in table.rows
