"""Unit tests for the bench table renderer."""

import pytest

from repro.bench import TableData, fmt, ratio, within


def test_fmt():
    assert fmt(None) == "-"
    assert fmt(3) == "3"
    assert fmt(3.0) == "3"
    assert fmt(3.14159, precision=2) == "3.14"
    assert fmt("x") == "x"
    assert fmt(True) == "yes"
    assert fmt(False) == "no"


def test_render_alignment():
    table = TableData(
        title="T", headers=["name", "value"],
        rows=[["alpha", 1], ["b", 22.5]],
        notes=["a note"],
    )
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="
    assert "name" in lines[2] and "value" in lines[2]
    assert set(lines[3]) <= {"-", "+"}
    assert "alpha" in lines[4]
    assert "note: a note" in lines[-1]
    # All body lines align to the same width.
    assert len(set(len(line) for line in lines[2:6])) <= 2


def test_markdown_rendering():
    table = TableData("Title", ["a", "b"], [[1, None]], notes=["n"])
    md = table.to_markdown()
    assert md.startswith("### Title")
    assert "| a | b |" in md
    assert "| 1 | - |" in md
    assert "> n" in md


def test_ratio():
    assert ratio(2.0, 4.0) == pytest.approx(0.5)
    assert ratio(1.0, 0.0) is None
    assert ratio(1.0, None) is None


def test_within():
    assert within(100, 110, 0.1)
    assert not within(100, 120, 0.1)
    assert within(0, 0, 0.05)
    assert not within(1, 0, 0.05)
