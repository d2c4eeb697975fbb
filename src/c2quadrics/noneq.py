"""Nonequivariant cohomology rings of complex quadrics (oracle rings).

For an odd quadric (type B, 2p+1 coordinates):

    H = Z[c, y] / (c^p - 2y, y^2),     deg c = 2, deg y = 2p,

with basis 1, c, ..., c^{p-1}, y, cy, ..., c^{p-1}y -- one basis element
in each even degree from 0 to 2(2p-1).  For p = 0 the relations force the
zero ring (the space is empty).

For an even quadric (type D, 2p coordinates, p > 1):

    H = Z[c, y] / (c^p - 2cy, y^2 - eps*c^{p-1}y),   eps = p mod 2,

deg y = 2(p-1); the middle degree 2(p-1) has the two basis elements
c^{p-1} and y.  The case 2p = 2 is the two-point space Z[y]/(y^2 - y)
with c = 0.

Elements are sparse dicts {(d, eps): coeff} with eps in {0, 1}.
"""

from __future__ import annotations


class InvalidSizeError(ValueError):
    pass


class NoneqQuadricRing:
    """Z[c,y]-quotient for a quadric of type B (odd n) or D (even n)."""

    def __init__(self, n, kind=None):
        if n < 0:
            raise InvalidSizeError("need n >= 0 coordinates, got %d" % n)
        if kind is None:
            kind = "B" if n % 2 == 1 else "D"
        if kind not in ("B", "D"):
            raise InvalidSizeError("kind must be B or D")
        if kind == "B" and n % 2 == 0 or kind == "D" and n % 2 == 1:
            raise InvalidSizeError("kind %s needs %s n" % (kind, "odd" if kind == "B" else "even"))
        self.n = n
        self.kind = kind
        self.p = n // 2
        self.zero_ring = n <= 1  # empty quadric
        self.eps = self.p % 2 if kind == "D" else 0

    # -- element constructors ------------------------------------------

    def zero(self):
        return {}

    def one(self):
        return self.reduce({(0, 0): 1})

    def c(self, power=1):
        return self.reduce({(power, 0): 1})

    def y(self):
        return self.reduce({(0, 1): 1})

    def monomial(self, d, eps, coeff=1):
        return self.reduce({(d, eps): coeff})

    # -- structure -------------------------------------------------------

    def y_degree(self):
        if self.kind == "B":
            return 2 * self.p
        return 2 * (self.p - 1)

    def degree(self, key):
        return 2 * key[0] + key[1] * self.y_degree()

    def reduce(self, elt):
        out = {}
        stack = [(k, v) for k, v in elt.items()]
        while stack:
            (d, eps), v = stack.pop()
            if v == 0:
                continue
            if self.zero_ring:
                continue
            if eps >= 2:
                # y^2 relation
                if self.kind == "B":
                    continue
                if self.p == 1:  # two points: y^2 = y
                    stack.append(((d, eps - 1), v))
                    continue
                if self.eps:
                    stack.append(((d + self.p - 1, eps - 1), v))
                continue
            if self.p == 1 and self.kind == "D":
                if d > 0:
                    continue  # c = 0 on two points
                out[(d, eps)] = out.get((d, eps), 0) + v
                continue
            if d >= self.p:
                if self.kind == "B":
                    if eps == 1:
                        continue  # c^p y = 2y^2 = 0
                    stack.append(((d - self.p, 1), 2 * v))
                else:
                    if eps == 1:
                        continue  # c^p y = 2c y^2 = 2eps c^p y => 0
                    stack.append(((d - self.p + 1, 1), 2 * v))
                continue
            out[(d, eps)] = out.get((d, eps), 0) + v
        return {k: v for k, v in out.items() if v}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def scale(self, x, n):
        return {k: n * v for k, v in x.items() if n * v}

    def mul(self, x, y):
        out = {}
        for (d1, e1), v1 in x.items():
            for (d2, e2), v2 in y.items():
                k = (d1 + d2, e1 + e2)
                out[k] = out.get(k, 0) + v1 * v2
        return self.reduce(out)

    def t_act(self, x):
        """The C2-action on the underlying cohomology (swaps rulings)."""
        out = {}
        for (d, eps), v in x.items():
            if eps == 0 or self.kind == "B":
                out[(d, eps)] = out.get((d, eps), 0) + v
            else:
                # type D: t(y) = c^{p-1} - y
                out[(d + self.p - 1, 0)] = out.get((d + self.p - 1, 0), 0) + v
                out[(d, 1)] = out.get((d, 1), 0) - v
        return self.reduce(out)

    def basis(self):
        """Canonical basis keys with degrees, sorted by degree."""
        if self.zero_ring:
            return []
        if self.kind == "D" and self.p == 1:
            return [((0, 0), 0), ((0, 1), 0)]
        keys = [(d, 0) for d in range(self.p)] + [(d, 1) for d in range(self.p)]
        return sorted(((k, self.degree(k)) for k in keys), key=lambda t: (t[1], t[0]))

    def __repr__(self):
        return "NoneqQuadricRing(n=%d, kind=%s)" % (self.n, self.kind)
