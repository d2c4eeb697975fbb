"""Cohomology of one fixed-set component, the target of the restriction
map eta to fixed points.

Each fixed-set component of the spaces here has trivial C2-action and
free nonequivariant cohomology H*, so its equivariant cohomology is

    M[zc^{+-1}] (x) H*

where zc is whichever of the two Euler-type classes is invertible over
that component (zeta1 over component 0, zeta0 over component 1) and H*
is one of: Z[c] (free), Z[c]/c^P (projective space), or a quadric ring
of type B or D.  Elements are {(u, d, eps): PointElt} with u the
zc-exponent.

Because the action is trivial, restriction and transfer factor through
the point ring coefficientwise, which makes the divisibility check
("is this element a transfer?") elementwise as well.
"""

from __future__ import annotations

from .coefficients import LevelECoeff, PointElt, point_phi, point_rho, point_tau, transfer_witness
from .grading import Grading, OMEGA0, OMEGA1
from .levele import LevelEModel


class ComponentRing:
    def __init__(self, model_kind, model_size, zeta_name):
        """model_kind in {'B','D','proj','free','zero'}; zeta_name 'z1' for
        component 0, 'z0' for component 1."""
        self.model = LevelEModel(model_kind, model_size, t_fixes_y=True)
        self.kind = model_kind
        self.P = model_size
        self.zeta_name = zeta_name
        self.empty = model_kind == "zero"
        self.zeta_grading = OMEGA1 if zeta_name == "z1" else OMEGA0

    def y_degree(self):
        return self.model.y_degree()

    def key_grading(self, key):
        u, d, eps = key
        g = u * self.zeta_grading + Grading(2 * d)
        if eps:
            g = g + Grading(self.y_degree())
        return g

    # -- elements: {(u, d, eps): PointElt} -------------------------------

    def zero(self):
        return {}

    def one(self):
        return self.monomial(0, 0, 0)

    def monomial(self, u, d, eps, coeff=None):
        if coeff is None:
            coeff = PointElt.from_int(1)
        elif isinstance(coeff, int):
            coeff = PointElt.from_int(coeff)
        return self.reduce({(u, d, eps): coeff})

    def reduce(self, elt):
        if self.empty:
            return {}
        out = {}
        for (u, d, eps), v in elt.items():
            if isinstance(v, int):
                v = PointElt.from_int(v)
            if v.is_zero():
                continue
            for (_, _, d2, e2), n in self.model.reduce({(0, 0, d, eps): 1}).items():
                key = (u, d2, e2)
                out[key] = out.get(key, PointElt()) + v * n
        return {k: v for k, v in out.items() if not v.is_zero()}

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = out.get(k, PointElt()) + v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def scale(self, x, coeff):
        if isinstance(coeff, int):
            coeff = PointElt.from_int(coeff)
        return self.reduce({k: v * coeff for k, v in x.items()})

    def mul(self, x, y):
        out = {}
        for (u1, d1, e1), v1 in x.items():
            for (u2, d2, e2), v2 in y.items():
                if self.kind == "binate" and e1 and e2:
                    continue
                k = (u1 + u2, d1 + d2, e1 + e2)
                out[k] = out.get(k, PointElt()) + v1 * v2
        return self.reduce(out)

    def power(self, x, n):
        out = self.one()
        for _ in range(n):
            out = self.mul(out, x)
        return out

    def eq(self, x, y):
        return self.add(x, self.scale(y, -1)) == {}

    # -- Mackey structure -------------------------------------------------

    def rho(self, x):
        """Level-e image: {(a, b, d, eps): int} with b the zc-exponent."""
        out = {}
        for (u, d, eps), v in x.items():
            for a, n in point_rho(v).c.items():
                k = (a, u, d, eps)
                out[k] = out.get(k, 0) + n
        return self.model.reduce(out)

    def tau(self, w):
        """Transfer of a level-e element; everything here is liftable."""
        out = {}
        for (a, b, d, eps), n in self.model.reduce(dict(w)).items():
            coeff = point_tau(LevelECoeff.iota(a)) * n
            if coeff.is_zero():
                continue
            k = (b, d, eps)
            out[k] = out.get(k, PointElt()) + coeff
        return self.reduce(out)

    def phi(self, x):
        """Collapse to the nonequivariant ring of the component:
        {(d, eps): int}, with transfers and kappa-torsion killed."""
        if self.empty:
            return {}
        out = {}
        for (u, d, eps), v in x.items():
            n = point_phi(v)
            if n:
                out[(0, 0, d, eps)] = out.get((0, 0, d, eps), 0) + n
        red = self.model.reduce(out)
        return {(d, eps): n for (_, _, d, eps), n in red.items()}

    def transfer_witness(self, x):
        """If x = tau(w), return the level-e element w, else None."""
        if self.empty:
            return {}
        w = {}
        for (u, d, eps), v in x.items():
            wit = transfer_witness(v)
            if wit is None:
                return None
            for a, n in wit.c.items():
                key = (a, u, d, eps)
                w[key] = w.get(key, 0) + n
        return self.model.reduce(w)

    def shift_noninvertible(self, w, k):
        """Divide a level-e element by the k-th power of the other Euler
        class, which restricts to iota^2 zeta^{-1} here."""
        return {(a - 2 * k, b + k, d, eps): n for (a, b, d, eps), n in w.items()}

    def str_elt(self, x):
        if not x:
            return "0"
        parts = []
        for (u, d, eps), v in sorted(x.items(), key=lambda t: t[0]):
            name = []
            if u:
                name.append("%s^%d" % (self.zeta_name, u))
            if d:
                name.append("c^%d" % d if d > 1 else "c")
            if eps:
                name.append("y")
            mono = "*".join(name) if name else "1"
            parts.append("(%s)*%s" % (v, mono))
        return " + ".join(parts)
