"""Cohomology of one fixed-set component, the target of the restriction
map eta to fixed points.

Each fixed-set component of the spaces here has trivial C2-action and
free nonequivariant cohomology H*, so its equivariant cohomology is

    M[zc^{+-1}] (x) H*

where zc is whichever of the two Euler-type classes is invertible over
that component (zeta1 over component 0, zeta0 over component 1) and H*
is one of: Z[c] (free), Z[c]/c^P (projective space), or a quadric ring
of type B or D (the zero ring for an empty component).  Elements are
{(u, d, eps): PointElt} with u the zc-exponent.  H* is the quotient of
the component's level-e model (levele.py): ``reduce`` and ``mul`` are
the model's, which keep u as the head of each key, and ``phi`` ends in the
model's ``reduce``.  The ring keeps no table and no loop of its own.

Every value that an operation here returns is reduced, as every value of
a ``LevelEModel`` operation is.  Only ``reduce`` and the operations whose
terms can leave the basis of H* (``monomial``, ``scale``, ``mul``) reduce;
``rho``, ``tau`` and ``transfer_witness`` map reduced input to reduced
output term by term, and ``tau`` takes the output of ``LevelEModel.mul``.

Because the action is trivial, restriction and transfer factor through
the point ring coefficientwise, which makes the divisibility check
("is this element a transfer?") elementwise as well.
"""

from __future__ import annotations

from .coefficients import PointElt, _add_term, point_phi, point_rho, point_tau, transfer_witness
from .levele import LevelEModel


class ComponentRing:
    def __init__(self, model_kind, model_size, zeta_name):
        """model_kind in {'B','D','proj','free','zero'}; zeta_name 'z1' for
        component 0, 'z0' for component 1."""
        self.model = LevelEModel(model_kind, model_size, t_fixes_y=True)
        self.kind = model_kind
        self.zeta_name = zeta_name
        self.empty = model_kind == "zero"

    # -- elements: {(u, d, eps): PointElt} -------------------------------

    def one(self):
        return self.monomial(0, 0, 0)

    def monomial(self, u, d, eps, coeff=None):
        if coeff is None:
            coeff = PointElt.from_int(1)
        return self.reduce({(u, d, eps): coeff})

    def reduce(self, elt):
        return self.model.reduce(elt)

    def scale(self, x, coeff):
        return self.reduce({k: v * coeff for k, v in x.items()})

    def mul(self, x, y):
        return self.model.mul(x, y)

    def power(self, x, n):
        """x^n (n >= 0) by square-and-multiply, starting from the first
        factor, so that nothing is multiplied by one.

        x must be reduced.  Neither x nor any dict it holds is changed, but
        x^1 is x itself: the result may share x, so a caller must not
        change it in place (no ring operation here does)."""
        if not n:
            return self.one()
        out = None
        while True:
            if n & 1:
                out = x if out is None else self.mul(out, x)
            n >>= 1
            if not n:
                return out
            x = self.mul(x, x)

    # -- Mackey structure -------------------------------------------------

    def rho(self, x):
        """Level-e image: {(a, b, d, eps): int} with b the zc-exponent."""
        return {(k[0], u, d, eps): n for (u, d, eps), v in x.items() for k, n in point_rho(v).items()}

    def tau(self, w):
        """Transfer of a reduced level-e element; everything here is
        liftable."""
        out = {}
        for (a, b, d, eps), n in w.items():
            _add_term(out, (b, d, eps), point_tau(a) * n)
        return out

    def phi(self, x):
        """Collapse to the nonequivariant ring of the component:
        {(d, eps): int}, with transfers and kappa-torsion killed."""
        out = {}
        for (u, d, eps), v in x.items():
            n = point_phi(v)
            if n:
                out[(d, eps)] = out.get((d, eps), 0) + n
        return self.model.reduce(out)

    def transfer_witness(self, x):
        """If x = tau(w), return the level-e element w, else None."""
        w = {}
        for (u, d, eps), v in x.items():
            wit = transfer_witness(v)
            if wit is None:
                return None
            for k, n in wit.items():
                w[(k[0], u, d, eps)] = n
        return w

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
