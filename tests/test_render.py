"""Tests for the ASCII polytope renderer."""

import numpy as np
import pytest

from repro.geometry import HPolytope, ascii_sets


class TestAsciiSets:
    def test_nested_boxes_paint_in_order(self, unit_box, small_box):
        art = ascii_sets([unit_box, small_box], glyphs=[".", "#"], width=21, height=11)
        lines = art.split("\n")
        assert len(lines) == 11
        # Centre cell shows the innermost glyph; just inside the window
        # padding the outer set's glyph shows.
        assert lines[5][10] == "#"
        assert lines[5][1] == "."
        assert lines[5][0] == " "  # 5% padding ring stays blank

    def test_points_overlay(self, unit_box):
        art = ascii_sets(
            [unit_box], glyphs=["."], width=21, height=11,
            points=np.array([[0.0, 0.0]]), point_glyph="X",
        )
        assert "X" in art

    def test_explicit_bounds(self, unit_box):
        art = ascii_sets(
            [unit_box], glyphs=["."], width=11, height=5,
            bounds=([-4.0, -4.0], [4.0, 4.0]),
        )
        lines = art.split("\n")
        # With a 4x window, the box occupies only the central region.
        assert lines[0].strip() == ""
        assert "." in lines[2]

    def test_glyph_count_mismatch(self, unit_box):
        with pytest.raises(ValueError, match="glyph"):
            ascii_sets([unit_box], glyphs=[".", "#"])

    def test_rejects_non_2d(self):
        box3 = HPolytope.from_box([-1] * 3, [1] * 3)
        with pytest.raises(ValueError, match="2-D"):
            ascii_sets([box3], glyphs=["."])
