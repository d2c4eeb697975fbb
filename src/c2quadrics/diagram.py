"""Dot diagrams of basis slices.

A basis class in grading a + b*sigma is drawn at file coordinates
(a/2, b/2): the grid is spaced every two grading units.  Type-C2/C2
classes are solid dots; the type-C2/e class is an open dot that may sit
anywhere on the dashed line a + b = const, so the line itself is drawn.
"""

from __future__ import annotations

from .catalog import basis_slice


class UnsupportedFormatError(ValueError):
    pass


def diagram(pres, coset, window, fmt="ascii"):
    if fmt not in ("ascii", "svg"):
        raise UnsupportedFormatError("format must be ascii or svg, not %r" % fmt)
    rows = basis_slice(pres, coset, window)
    if fmt == "ascii":
        return _ascii(pres, rows, window)
    return _svg(pres, rows, window)


def _line_const(pres):
    return pres.levele.y_degree() if pres.has_atoms else None


def _ascii(pres, rows, window):
    """One text row per even b of the window, top down, with a cell per
    even a from a0 rounded down to a1.  Each row starts from a template:
    ``.`` cells, or ``-`` on b = 0.  Then the axis cell (``|``, or ``+`` at
    the origin) and the free-orbit line's cell a + b = const (``/``) are
    set, and then the row's dots, bucketed by b in one pass over the
    slice: solid ``*`` and open ``o``, where a solid dot wins a shared cell."""
    (a0, a1), (b0, b1) = window
    start = a0 - (a0 % 2)
    width = len(range(start, a1 + 1, 2))

    def column(a):
        i, odd = divmod(a - start, 2)
        return i if not odd and 0 <= i < width else None

    dots = {}
    for g, label in rows:
        i = column(g.a)
        if i is not None:
            dots.setdefault(g.b, []).append((i, "*" if label == "C2/C2" else "o"))
    line = _line_const(pres)
    axis = column(0)
    out = []
    for b in range(b1 - (b1 % 2), b0 - 1, -2):
        cells = ["-" if b == 0 else "."] * width
        if axis is not None:
            cells[axis] = "+" if b == 0 else "|"
        if line is not None:
            i = column(line - b)
            if i is not None:
                cells[i] = "/"
        for i, mark in dots.get(b, ()):
            if mark == "*" or cells[i] != "*":
                cells[i] = mark
        out.append("%5d " % b + " ".join(cells))
    footer = "      " + " ".join("%-2d" % a if a % 4 == 0 else "  " for a in range(start, a1 + 1, 2))
    out.append(footer)
    return "\n".join(out) + "\n"


def _svg(pres, rows, window):
    (a0, a1), (b0, b1) = window
    scale = 14
    pad = 20

    def X(a):
        return pad + (a - a0) * scale // 2

    def Y(b):
        return pad + (b1 - b) * scale // 2

    width = X(a1) + pad
    height = Y(b0) + pad
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height)
    ]
    for a in range(a0 - (a0 % 2), a1 + 1, 2):
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>'
            % (X(a), Y(b1), X(a), Y(b0))
        )
    for b in range(b0 - (b0 % 2), b1 + 1, 2):
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>'
            % (X(a0), Y(b), X(a1), Y(b))
        )
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#000"/>'
        % (X(a0), Y(0), X(a1), Y(0))
    )
    parts.append(
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#000"/>'
        % (X(0), Y(b0), X(0), Y(b1))
    )
    line = _line_const(pres)
    if line is not None:
        parts.append(
            '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#555" '
            'stroke-dasharray="4 3"/>' % (X(line - b1), Y(b1), X(line - b0), Y(b0))
        )
    for g, label in sorted(rows, key=lambda r: (r[0].a, r[0].b, r[1])):
        if label == "C2/C2":
            parts.append('<circle cx="%d" cy="%d" r="4" fill="#000"/>' % (X(g.a), Y(g.b)))
        else:
            parts.append(
                '<circle cx="%d" cy="%d" r="4" fill="#fff" stroke="#000"/>'
                % (X(g.a), Y(g.b))
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
