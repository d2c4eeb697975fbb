"""Nonequivariant cohomology rings of complex quadrics (the neq: spaces).

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

Elements are sparse dicts {(d, eps): coeff} with eps in {0, 1}.  The
relations are not repeated here: ``reduce`` and ``mul`` are those of the
level-e model (levele.py) of kind B or D (the zero model for n <= 1), on
keys with an empty head, and ``t_act`` is the model's ``t_act`` at
iota^0 zeta^0.
"""

from __future__ import annotations

from .levele import LevelEModel, add_elts


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
        self.model = LevelEModel("zero") if self.zero_ring else LevelEModel(kind, self.p)

    # -- element constructors ------------------------------------------

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
        return self.model.reduce(elt)

    def add(self, x, y):
        return add_elts(x, y)

    def scale(self, x, n):
        return {k: n * v for k, v in x.items() if n * v}

    def mul(self, x, y):
        return self.model.mul(x, y)

    def t_act(self, x):
        """The C2-action on the underlying cohomology (swaps rulings): the
        model's ``t_act`` at iota^0 zeta^0, which fixes y in type B and
        sends y to c^{p-1} - y in type D."""
        w = self.model.t_act({(0, 0, d, eps): v for (d, eps), v in x.items()})
        return {(d, eps): v for (_, _, d, eps), v in w.items()}

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
