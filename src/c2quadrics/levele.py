"""Level-C2/e parts of the graded rings, and the one implementation of the
nonequivariant rings Z[c, y]/(relations) behind them.

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

A stack interpreter (``LevelEModel.monomial_quotient``) writes these
relations once, for one monomial c^d y^eps.  Each model keeps its results in one
table, ``quotients``: {(d, eps): ((d', eps', n), ...)}, filled on first
use, one per model instance and so one per presentation.  ``reduce`` and
``mul`` are the one reduction and the one product of every ring over
Z[c, y]: they take any element whose keys end in (d, eps) and whose values
are ints or ``PointElt``s, so they serve level e ({(a, b, d, eps): int}),
the component rings of eta ({(u, d, eps): PointElt}, ``component.py``),
the phi images and the ``neq:`` rings ({(d, eps): int}, ``noneq.py``).
A monomial outside the model (y in free/proj, a y exponent of 3 or more
in binate) raises ``NotAClassError`` and is never stored.

Every value that a model operation returns is reduced: a combination of
basis monomials with no zero coefficient.  ``mul`` and ``t_act`` reduce
because their terms can leave the basis; ``one_plus_t`` adds two reduced
values.  Callers build on this: a sum of reduced values is reduced once
its zero terms are gone, so ``Presentation.rho``, ``mul`` and ``t_act``
mark such values as normal forms without a second pass, and the
component rings map them term by term.  Only the entry points that take
raw input reduce again: ``reduce`` here, and
``Presentation.levele_elt``, ``tau_of_levele`` and the level-e branch of
``Presentation.normal_form``.
"""

from __future__ import annotations

from operator import add

from .grading import Grading, IOTA_DEG, OMEGA1


class NotAClassError(ValueError):
    """Well-formed input outside the ring: a non-canonical monomial that no
    rule rewrites and no transfer witness absorbs, a sum of a level-top and
    a level-e element, or a level-e monomial outside the model (a y class
    where the model has none, a y exponent the model does not allow)."""


class LevelEModel:
    def __init__(self, kind, size=0, t_fixes_y=False):
        self.kind = kind
        self.size = size  # P or N above
        # the underlying C2-action fixes the ruling classes when the
        # negated coordinate count is even (and on trivial-action spaces)
        self.t_fixes_y = t_fixes_y
        # {(d, eps): ((d', eps', n), ...)}: c^d y^eps = sum n c^d' y^eps'
        self.quotients = {}

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

    def monomial_quotient(self, d, eps):
        """The quotient of c^d y^eps as ((d', eps', n), ...), by a stack
        interpreter of the nonequivariant relations of this model (the one
        place they are written), stored in ``quotients``.  A monomial
        outside the model raises ``NotAClassError`` and is not stored."""
        key = (d, eps)
        kind, P = self.kind, self.size
        out = {}
        stack = [] if kind == "zero" else [(key, 1)]
        while stack:
            (d, eps), v = stack.pop()
            if kind in ("free", "proj"):
                if eps:
                    raise NotAClassError("no y classes in this model")
                if kind == "proj" and d >= P:
                    continue
            elif kind == "binate":
                if eps >= 1 and d >= 1:
                    continue  # c * y = c * ty = 0
                if eps >= 3 or eps < 0:
                    raise NotAClassError("bad y exponent")
                if eps == 0 and d >= P:
                    if d == P:
                        stack.append(((0, 1), v))
                        stack.append(((0, 2), v))
                    continue  # c^{N+k} = c^k(y + ty) = 0 for k >= 1
            # quadric models B / D
            elif eps >= 2:
                if kind == "B":
                    continue  # y^2 = 0
                if P == 1:
                    stack.append(((d, eps - 1), v))  # y^2 = y
                elif P % 2 == 1:
                    stack.append(((d + P - 1, eps - 1), v))
                continue
            elif kind == "D" and P == 1:
                if d > 0:
                    continue  # c = 0 on two points
            elif d >= P:
                if eps == 1:
                    continue  # c^P y = 0 in both B and D
                if kind == "B":
                    stack.append(((d - P, 1), 2 * v))
                else:
                    stack.append(((d - P + 1, 1), 2 * v))
                continue
            # c^d y^eps is a basis monomial
            out[(d, eps)] = out.get((d, eps), 0) + v
        # the relations only copy or double a coefficient, so none sums to 0
        terms = tuple((d2, e2, n) for (d2, e2), n in out.items())
        self.quotients[key] = terms
        return terms

    def reduce(self, elt):
        """Reduce an element whose keys end in (d, eps) and whose values are
        ints or ``PointElt``s: each term's c^d y^eps is replaced by its
        quotient from ``quotients``, under the same head ``k[:-2]`` (empty
        for {(d, eps): v}, the zc-exponent in a component ring, (a, b) at
        level e)."""
        table = self.quotients
        out = {}
        for k, v in elt.items():
            if not v:
                continue
            q = k[-2:]
            terms = table.get(q)
            if terms is None:
                terms = self.monomial_quotient(*q)
            head = k[:-2]
            for d2, e2, n in terms:
                k2 = head + (d2, e2)
                t = v if n == 1 else v * n
                w = out.get(k2)
                out[k2] = t if w is None else w + t
        # many reduced elements are empty (phi kills transfers and torsion),
        # and the filter costs a call
        return {k: v for k, v in out.items() if v} if out else out

    def mul(self, x, y):
        """Product of two elements of the form ``reduce`` takes: keys add
        slot by slot; in binate all products of y-type classes vanish."""
        binate = self.kind == "binate"
        out = {}
        for k1, v1 in x.items():
            for k2, v2 in y.items():
                if binate and k1[-1] >= 1 and k2[-1] >= 1:
                    continue
                k = tuple(map(add, k1, k2))
                t = v1 * v2
                w = out.get(k)
                out[k] = t if w is None else w + t
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
    """Sum of two elements with int or ``PointElt`` values."""
    out = dict(x)
    for k, v in y.items():
        w = out.get(k)
        out[k] = v if w is None else w + v
    return {k: v for k, v in out.items() if v}


def iota_zeta_names(a, b):
    """The printed factors of iota^a zeta^b: none when a = b = 0."""
    return (["iota^%d" % a] if a else []) + (["zeta^%d" % b] if b else [])


def levele_str(elt):
    if not elt:
        return "0"
    parts = []
    for (a, b, d, eps), v in sorted(elt.items()):
        name = iota_zeta_names(a, b)
        if d:
            name.append("c^%d" % d if d > 1 else "c")
        if eps == 1:
            name.append("y")
        elif eps == 2:
            name.append("ty")
        mono = "*".join(name) if name else "1"
        parts.append(("%d*%s" % (v, mono)) if v != 1 else mono)
    return " + ".join(parts)
