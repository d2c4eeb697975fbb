"""Dot diagrams of basis slices.

A basis class in grading a + b*sigma is drawn at file coordinates
(a/2, b/2): the grid is spaced every two grading units.  Type-C2/C2
classes are solid dots; the type-C2/e class is an open dot that may sit
anywhere on the dashed line a + b = const, so the line itself is drawn.
Both renderers read the slice as integer points (``_slice_points``).
"""

from __future__ import annotations

from bisect import bisect_right

from .catalog import _slice_points


class UnsupportedFormatError(ValueError):
    pass


def diagram(pres, coset, window, fmt="ascii"):
    if fmt not in ("ascii", "svg"):
        raise UnsupportedFormatError("format must be ascii or svg, not %r" % fmt)
    points, free = _slice_points(pres, coset, window)
    if fmt == "ascii":
        return _ascii(pres, points, free, window)
    return _svg(pres, points, free, window)


def _line_const(pres):
    return pres.levele.y_degree() if pres.has_atoms else None


def _ascii(pres, points, free, window):
    """One text row per even b of the window, top down, with a cell per
    even a from a0 rounded down to a1, cells one space apart, so the cell
    of a sits at byte a - start of the row.  Each row starts from one of
    two templates: ``.`` cells with the axis cell ``|``, or on b = 0 ``-``
    cells with ``+`` at the origin.  Then the free-orbit line's cell
    a + b = const (``/``) is set, and then the row's dots, bucketed by b in
    one pass: the open ``o`` of the C2/e point first and the solid ``*`` of
    the C2/C2 points after it, so a solid dot wins a shared cell.  A point
    of odd a, or outside the row, is not drawn."""
    (a0, a1), (b0, b1) = window
    start = a0 - (a0 % 2)
    width = len(range(start, a1 + 1, 2))
    span = 2 * width - 1

    def cell(a):
        k = a - start
        return k if not k & 1 and 0 <= k < span else None

    dots = {}
    k = None if free is None else cell(free[0])
    if k is not None:
        dots[free[1]] = [(k, ord("o"))]
    solid = ord("*")
    for a, b in points:
        k = a - start
        if not k & 1 and 0 <= k < span:
            dots.setdefault(b, []).append((k, solid))
    dotted = bytearray(b". " * width)[:span]
    dashed = bytearray(b"- " * width)[:span]
    axis = cell(0)
    if axis is not None:
        dotted[axis] = ord("|")
        dashed[axis] = ord("+")
    line = _line_const(pres)
    out = []
    for b in range(b1 - (b1 % 2), b0 - 1, -2):
        row = bytearray(dashed if b == 0 else dotted)
        if line is not None:
            k = cell(line - b)
            if k is not None:
                row[k] = ord("/")
        for k, mark in dots.get(b, ()):
            row[k] = mark
        out.append("%5d %s" % (b, row.decode()))
    footer = "      " + " ".join("%-2d" % a if a % 4 == 0 else "  " for a in range(start, a1 + 1, 2))
    out.append(footer)
    return "\n".join(out) + "\n"


def _svg(pres, points, free, window):
    """The window at 7 pixels per grading unit inside a 20-pixel pad: the
    point (a, b) sits at x = X0 + 7a, y = Y0 - 7b.  Grey grid lines at
    even a and b, black axes, the dashed free-orbit line, then one circle
    per point in (a, b) order, the C2/e point's open circle after any
    solid ones on its cell."""
    (a0, a1), (b0, b1) = window
    pad = 20
    X0, Y0 = pad - 7 * a0, pad + 7 * b1
    # the window's near edges are at x = pad and y = pad
    right, bottom = X0 + 7 * a1, Y0 - 7 * b0
    width = right + pad
    height = bottom + pad
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    parts += [
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>' % (x, pad, x, bottom)
        for x in range(X0 + 7 * (a0 - (a0 % 2)), right + 1, 14)
    ]
    parts += [
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>' % (pad, y, right, y)
        for y in range(Y0 - 7 * (b0 - (b0 % 2)), pad - 1, -14)
    ]
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#000"/>' % (pad, Y0, right, Y0))
    parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#000"/>' % (X0, bottom, X0, pad))
    line = _line_const(pres)
    if line is not None:
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#555" '
            'stroke-dasharray="4 3"/>' % (X0 + 7 * (line - b1), pad, X0 + 7 * (line - b0), bottom)
        )
    dots = ['<circle cx="%d" cy="%d" r="4" fill="#000"/>' % (X0 + 7 * a, Y0 - 7 * b) for a, b in points]
    if free is not None:
        a, b = free
        dots.insert(
            bisect_right(points, free),
            '<circle cx="%d" cy="%d" r="4" fill="#fff" stroke="#000"/>' % (X0 + 7 * a, Y0 - 7 * b),
        )
    parts += dots
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
