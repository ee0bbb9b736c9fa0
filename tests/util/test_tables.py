"""Tests for table rendering and formatting helpers."""

import pytest

from repro.util.tables import render_table


class TestRenderTable:
    def test_basic_structure(self):
        out = render_table(["name", "val"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"|", "-"}
        assert len(lines) == 5

    def test_alignment(self):
        out = render_table(["n", "v"], [["a", 1], ["long", 22]])
        rows = out.splitlines()[2:]
        # numbers right-aligned: "1" ends at same column as "22"
        assert rows[0].rstrip().endswith("|")
        assert rows[0].index("1 |") >= rows[1].index("22") - 1

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_no_title(self):
        out = render_table(["h"], [["x"]])
        assert out.splitlines()[0].startswith("|")
