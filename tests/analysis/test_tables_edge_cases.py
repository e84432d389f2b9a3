"""Edge-case tests for the table renderers."""

from repro.analysis.tables import _render_grid, format_bytes, render_table1


class TestGridRenderer:
    def test_empty_rows(self):
        text = _render_grid(["a", "bb"], [])
        lines = text.splitlines()
        assert lines[0].split() == ["a", "bb"]
        assert set(lines[1]) <= {"-", " "}

    def test_column_widths_fit_content(self):
        text = _render_grid(["x"], [["longvalue"], ["y"]])
        lines = text.splitlines()
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_right_alignment(self):
        text = _render_grid(["col"], [["1"]])
        assert text.splitlines()[-1].endswith("1")


class TestFormatBytes:
    def test_boundary_kilobyte(self):
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(1024) == "1.0 KB"

    def test_gigabytes_capped(self):
        assert format_bytes(3 * 1024**3) == "3.0 GB"


class TestRenderTable1Empty:
    def test_no_rows(self):
        text = render_table1([])
        assert "Inter.st" in text
