import warnings

import pytest

import c2quadrics.diagram as diagram_module
from c2quadrics.catalog import RestrictedGradingWarning, basis_slice, make_space
from c2quadrics.diagram import UnsupportedFormatError, _ascii, _line_const, diagram
from c2quadrics.grading import Grading

warnings.simplefilter("ignore", RestrictedGradingWarning)


def reference_ascii(pres, rows, window):
    # the cell-by-cell drawing that the row template replaced
    (a0, a1), (b0, b1) = window
    solid = {(g.a, g.b) for g, label in rows if label == "C2/C2"}
    open_ = {(g.a, g.b) for g, label in rows if label == "C2/e"}
    line = _line_const(pres)
    out = []
    for b in range(b1 - (b1 % 2), b0 - 1, -2):
        cells = []
        for a in range(a0 - (a0 % 2), a1 + 1, 2):
            if (a, b) in solid:
                cells.append("*")
            elif (a, b) in open_:
                cells.append("o")
            elif line is not None and a + b == line:
                cells.append("/")
            elif a == 0 and b == 0:
                cells.append("+")
            elif a == 0:
                cells.append("|")
            elif b == 0:
                cells.append("-")
            else:
                cells.append(".")
        out.append("%5d " % b + " ".join(cells))
    footer = "      " + " ".join("%-2d" % a if a % 4 == 0 else "  " for a in range(a0 - (a0 % 2), a1 + 1, 2))
    out.append(footer)
    return "\n".join(out) + "\n"


WINDOWS = [
    ((-40, 40), (-40, 40)),  # even bounds around the origin
    ((-7, 13), (-5, 9)),  # odd bounds around the origin
    ((5, 21), (3, 17)),  # off both axes, odd bounds
    ((4, 20), (2, 18)),  # off both axes, even bounds
    ((-21, -3), (-9, -1)),  # off both axes and the free-orbit line
    ((-6, 30), (-3, 12)),
    ((0, 40), (-9, -3)),  # below the origin: off the line and the a axis
    ((30, 34), (30, 34)),  # an empty slice
    ((0, 0), (0, 0)),  # one-point windows
    ((2, 2), (4, 4)),
    ((3, 3), (5, 5)),
    ((-1, -1), (-1, -1)),
]


@pytest.mark.parametrize(
    "sid",
    ["quadric:11,11", "quadric:10,10", "quadric:1,1", "bu1", "binate:2,1", "proj:3,2", "point"],
)
def test_ascii_matches_the_cell_by_cell_drawing(sid):
    pres = make_space(sid)
    kinds = set()
    for window in WINDOWS:
        for coset in (-1, 0, 1, 2):
            rows = basis_slice(pres, coset, window)
            text = _ascii(pres, rows, window)
            assert text == reference_ascii(pres, rows, window), (sid, window, coset)
            assert diagram(pres, coset, window) == text
            kinds.add(bool(rows))
    assert kinds == {True, False}  # some slices are empty, some are not


def test_ascii_on_shared_and_off_grid_dots():
    # a solid dot wins a cell it shares with an open one, a dot off the grid
    # of even a, b is not drawn, and the column that odd a0 rounds down to is
    pres = make_space("quadric:1,1")
    window = ((-5, 5), (-5, 5))
    rows = [
        (Grading(2, 2, 0), "C2/C2"), (Grading(2, 2, 0), "C2/e"),
        (Grading(-4, 4, 0), "C2/e"), (Grading(-4, 4, 0), "C2/C2"),
        (Grading(1, 2, 0), "C2/C2"), (Grading(2, 1, 0), "C2/e"), (Grading(-6, 0, 0), "C2/C2"),
    ]
    text = _ascii(pres, rows, window)
    assert text == reference_ascii(pres, rows, window)
    assert text.count("*") == 3 and "o" not in text


def test_unknown_format_is_refused_before_the_slice(monkeypatch):
    def no_slice(*args):
        raise AssertionError("basis_slice ran")

    monkeypatch.setattr(diagram_module, "basis_slice", no_slice)
    pres = make_space("quadric:3,3")
    with pytest.raises(UnsupportedFormatError):
        diagram(pres, 0, ((-2, 2), (-2, 2)), "png")
    with pytest.raises(AssertionError, match="basis_slice ran"):
        diagram(pres, 0, ((-2, 2), (-2, 2)), "svg")
