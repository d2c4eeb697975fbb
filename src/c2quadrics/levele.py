"""Level-C2/e parts of the graded rings.

A level-e element is a sparse integer combination of monomials

    iota^a * zeta^b * c^d * y^eps

stored as {(a, b, d, eps): coeff}.  Here iota (grading sigma - 1) and
zeta (grading OMEGA1) are invertible, c = zeta^{-1} rho(cw) has grading 2,
and c, y satisfy the nonequivariant relations of the underlying space.
eps is 0 or 1; the binate model additionally uses eps = 2 for t(y),
because there y and t(y) are independent and both c*y = 0 and y^2 = 0.

Models:
    ("free",)      polynomial in c, no y            (BU(1))
    ("proj", N)    c^N = 0, no y                    (finite proj space)
    ("B", P)       c^P = 2y,  y^2 = 0,  t(y) = y
    ("D", P)       c^P = 2cy, y^2 = eps_P c^{P-1}y, t(y) = c^{P-1} - y
                   (P = 1 is the two-point space: c = 0, y^2 = y)
    ("binate", N)  c^d (d < N), y, ty; c^N = y + ty, c y = 0, y-part
                   products vanish
    ("zero",)      the zero ring (empty space)
"""

from __future__ import annotations

from .grading import Grading, IOTA_DEG, OMEGA1


class LevelEModel:
    def __init__(self, kind, size=0, t_fixes_y=False):
        self.kind = kind
        self.size = size  # P or N above
        # the underlying C2-action fixes the ruling classes when the
        # negated coordinate count is even (and on trivial-action spaces)
        self.t_fixes_y = t_fixes_y

    def y_degree(self):
        if self.kind == "B":
            return 2 * self.size
        if self.kind == "D":
            return 2 * (self.size - 1)
        if self.kind == "binate":
            return 2 * self.size
        return 0

    def key_grading(self, key):
        a, b, d, eps = key
        g = a * IOTA_DEG + b * OMEGA1 + Grading(2 * d)
        if eps:
            g = g + Grading(self.y_degree())
        return g

    def reduce(self, elt):
        out = {}
        stack = list(elt.items())
        while stack:
            (a, b, d, eps), v = stack.pop()
            if v == 0 or self.kind == "zero":
                continue
            kind, P = self.kind, self.size
            if kind in ("free",):
                if eps:
                    raise ValueError("no y classes in this model")
                out[(a, b, d, 0)] = out.get((a, b, d, 0), 0) + v
                continue
            if kind == "proj":
                if eps:
                    raise ValueError("no y classes in this model")
                if d >= P:
                    continue
                out[(a, b, d, 0)] = out.get((a, b, d, 0), 0) + v
                continue
            if kind == "binate":
                if eps >= 1 and d >= 1:
                    continue  # c * y = c * ty = 0
                if eps >= 3 or eps < 0:
                    raise ValueError("bad y exponent")
                if eps == 0 and d >= P:
                    if d == P:
                        stack.append(((a, b, 0, 1), v))
                        stack.append(((a, b, 0, 2), v))
                    continue  # c^{N+k} = c^k(y + ty) = 0 for k >= 1
                out[(a, b, d, eps)] = out.get((a, b, d, eps), 0) + v
                continue
            # quadric models B / D
            if eps >= 2:
                if kind == "B":
                    continue  # y^2 = 0
                if P == 1:
                    stack.append(((a, b, d, eps - 1), v))  # y^2 = y
                    continue
                if P % 2 == 1:
                    stack.append(((a, b, d + P - 1, eps - 1), v))
                continue
            if kind == "D" and P == 1:
                if d > 0:
                    continue  # c = 0 on two points
                out[(a, b, d, eps)] = out.get((a, b, d, eps), 0) + v
                continue
            if d >= P:
                if eps == 1:
                    continue  # c^P y = 0 in both B and D
                if kind == "B":
                    stack.append(((a, b, d - P, 1), 2 * v))
                else:
                    stack.append(((a, b, d - P + 1, 1), 2 * v))
                continue
            out[(a, b, d, eps)] = out.get((a, b, d, eps), 0) + v
        return {k: v for k, v in out.items() if v}

    def mul(self, x, y):
        out = {}
        for (a1, b1, d1, e1), v1 in x.items():
            for (a2, b2, d2, e2), v2 in y.items():
                if self.kind == "binate" and e1 >= 1 and e2 >= 1:
                    continue  # all products of y-type classes vanish
                k = (a1 + a2, b1 + b2, d1 + d2, e1 + e2)
                out[k] = out.get(k, 0) + v1 * v2
        return self.reduce(out)

    def t_act(self, x):
        out = {}

        def add(key, v):
            out[key] = out.get(key, 0) + v

        for (a, b, d, eps), v in x.items():
            sign = -1 if a % 2 else 1
            if eps == 0:
                add((a, b, d, 0), sign * v)
            elif self.kind == "B" or self.t_fixes_y:
                add((a, b, d, eps), sign * v)
            elif self.kind == "binate":
                add((a, b, d, 3 - eps), sign * v)  # swap y <-> ty
            else:  # D with swapped rulings: t(y) = c^{P-1} - y
                add((a, b, d + self.size - 1, 0), sign * v)
                add((a, b, d, 1), -sign * v)
        return self.reduce(out)

    def one_plus_t(self, x):
        return add_elts(x, self.t_act(x))


def add_elts(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def levele_str(elt):
    if not elt:
        return "0"
    parts = []
    for (a, b, d, eps), v in sorted(elt.items()):
        name = []
        if a:
            name.append("iota^%d" % a)
        if b:
            name.append("zeta^%d" % b)
        if d:
            name.append("c^%d" % d if d > 1 else "c")
        if eps == 1:
            name.append("y")
        elif eps == 2:
            name.append("ty")
        mono = "*".join(name) if name else "1"
        parts.append(("%d*%s" % (v, mono)) if v != 1 else mono)
    return " + ".join(parts)
