"""Exact arithmetic in the coefficient rings.

Two rings live here.

* ``BurnsideElt`` -- the Burnside ring A(C2) = Z{1, g} with g*g = 2g.
  We write k (kappa) for 2 - g; then k*k = 2k and (1-k)^2 = 1.

* ``PointElt`` -- the subring of the cohomology of a point (level C2/C2)
  generated by the classes the quadric computations use:

      Pos(i, j)   = e^i xi^j          grading  i*sigma + j*(2*sigma - 2)
      NegKappa(n) = e^{-n} k          grading  -n*sigma   (n = 0 is k)
      Trans(n)    = t(iota^{2n})      grading  2n*(sigma - 1)

  Canonical monomials are Pos(i, j) with i, j >= 0, NegKappa(n) with
  n >= 0, and Trans(n) with n <= -1.  The transfers in nonnegative
  degrees are rewritten:

      Trans(0) = g = 2 - k,        Trans(n) = 2 xi^n   (n >= 1),

  and mixed monomials e^i xi^j with i, j >= 1 are 2-torsion, so their
  coefficients are stored mod 2.  (Both facts are forced by
  associativity: k*(e*xi) = 0 while (k*e)*xi = 2*e*xi, and
  t(iota^{-2})*xi^2 = Trans(1) while (t(iota^{-2})*xi)*xi = 2*xi.)

Monomials are encoded as small tuples: ("p", i, j), ("k", n), ("t", n).

The level-C2/e part of a point, Z[iota^{+-1}] with t(iota^n) =
(-1)^n iota^n, is a level-e element of ``levele.py`` with b = d = eps = 0:
sum v iota^n is {(n, 0, 0, 0): v}, multiplied and acted on by
``LevelEModel("free")``.  ``point_rho`` and ``transfer_witness`` return
that form, and ``point_tau`` takes one iota exponent.
"""

from __future__ import annotations

from .grading import Grading


class InhomogeneousError(ValueError):
    """An operation received a sum of monomials of unequal gradings."""


# ---------------------------------------------------------------------------
# Burnside ring


def _burnside_operand(op):
    """A binary operation of ``BurnsideElt`` that takes an int operand as a
    ``BurnsideElt`` and gives NotImplemented for an operand of another type."""

    def wrapped(self, other):
        if isinstance(other, int):
            other = BurnsideElt(other)
        elif not isinstance(other, BurnsideElt):
            return NotImplemented
        return op(self, other)

    return wrapped


class BurnsideElt:
    """u + v*g in A(C2), exact integer arithmetic."""

    __slots__ = ("u", "v")

    def __init__(self, u=0, v=0):
        self.u = u
        self.v = v

    @_burnside_operand
    def __eq__(self, other):
        return (self.u, self.v) == (other.u, other.v)

    def __hash__(self):
        return hash((self.u, self.v))

    @_burnside_operand
    def __add__(self, other):
        return BurnsideElt(self.u + other.u, self.v + other.v)

    __radd__ = __add__

    def __neg__(self):
        return BurnsideElt(-self.u, -self.v)

    @_burnside_operand
    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    @_burnside_operand
    def __mul__(self, other):
        # g*g = 2g
        return BurnsideElt(
            self.u * other.u,
            self.u * other.v + self.v * other.u + 2 * self.v * other.v,
        )

    __rmul__ = __mul__

    def cardinality(self):
        """epsilon(u + v g) = u + 2v, the mark at the free orbit."""
        return self.u + 2 * self.v

    def fixed_mark(self):
        """The mark at the fixed point: g has no fixed points."""
        return self.u

    def __repr__(self):
        return "BurnsideElt(%d, %d)" % (self.u, self.v)


G = BurnsideElt(0, 1)
KAPPA_A = BurnsideElt(2, -1)   # kappa = 2 - g inside A(C2)


# ---------------------------------------------------------------------------
# Point ring monomials


def pos(i, j):
    return ("p", i, j)


def negkappa(n):
    return ("k", n)


def trans(n):
    return ("t", n)


ONE_MONO = pos(0, 0)
E = pos(1, 0)
XI = pos(0, 1)
KAPPA = negkappa(0)
ONE_PAIRS = ((ONE_MONO, 1),)   # 1 as the pairs of a raw coefficient


def monomial_grading(mono):
    tag = mono[0]
    if tag == "p":
        i, j = mono[1], mono[2]
        return Grading(-2 * j, i + 2 * j, 0)
    if tag == "k":
        return Grading(0, -mono[1], 0)
    # transfer t(iota^{2n})
    n = mono[1]
    return Grading(-2 * n, 2 * n, 0)


def _mixed(m):
    """e^i xi^j with i, j >= 1: its coefficients are stored mod 2."""
    return m[0] == "p" and m[1] >= 1 and m[2] >= 1


def _mul_into(out, a, b):
    """out += a*b in place: the one multiplication of the point ring.

    ``a`` and ``b`` are point-ring coefficients as iterables of
    (monomial, int) pairs, ``out`` a raw {monomial: int} dict.  The kernel
    covers every pair of tags (orders "k" < "p" < "t"), reduces the mixed
    e^i xi^j sums mod 2 and removes a key whose sum is zero; neither ``a``
    nor ``b`` may be ``out``.  With ``b`` = ``ONE_PAIRS`` it adds ``a``
    into ``out``.
    """
    for m1, v1 in a:
        t1 = m1[0]
        for m2, v2 in b:
            v = v1 * v2
            t2 = m2[0]
            if t1 == "p" and t2 == "p":
                m = ("p", m1[1] + m2[1], m1[2] + m2[2])
            else:
                x, y = (m2, m1) if t1 > t2 else (m1, m2)
                tx, ty = x[0], y[0]
                if tx == "k":
                    if ty == "p":
                        n, i = x[1], y[1]
                        if y[2]:
                            continue                # e^{-n} k * xi = 0
                        if i <= n:
                            m = ("k", n - i)
                        else:
                            m = ("p", i - n, 0)     # k e^m = 2 e^m for m > 0
                            v *= 2
                    elif ty == "k":
                        m = ("k", x[1] + y[1])
                        v *= 2
                    else:
                        continue                    # k * transfer = 0
                else:
                    if tx == "p":
                        if x[1]:
                            continue                # e * t(...) = t(rho(e) ...) = 0
                        n = x[2] + y[1]
                    else:                           # transfer * transfer
                        n = x[1] + y[1]
                        v *= 2
                    # t(iota^{2n}) in canonical form
                    if n <= -1:
                        m = ("t", n)
                    elif n:
                        m = ("p", 0, n)             # t(iota^{2n}) = 2 xi^n
                        v *= 2
                    else:
                        # g = t(1) = 2 - k: add the 2, leave the -k below
                        w = out.get(ONE_MONO, 0) + 2 * v
                        if w:
                            out[ONE_MONO] = w
                        elif ONE_MONO in out:
                            del out[ONE_MONO]
                        m, v = KAPPA, -v
            v += out.get(m, 0)
            if m[0] == "p" and m[1] and m[2]:
                v %= 2                              # mixed e^i xi^j: 2-torsion
            if v:
                out[m] = v
            elif m in out:
                del out[m]


class PointElt:
    """Homogeneous element of the point subring: {monomial: int}.

    A value: sums and products may share their ``c`` with an operand, so
    ``c`` is never changed in place.  Products go through ``_mul_into``.
    The rewrite engine works on raw ``{monomial: int}`` dicts that it owns
    and wraps one in a ``PointElt`` only where a coefficient leaves it (a
    normal form's terms, a transfer witness, rho); it copies a ``PointElt``
    operand's ``c`` before changing anything.
    """

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {}
        if c:
            for m, v in c.items():
                if _mixed(m):
                    v %= 2
                if v:
                    self.c[m] = v

    @staticmethod
    def from_int(n):
        return PointElt({ONE_MONO: n})

    @staticmethod
    def from_burnside(x):
        # u + v g  =  (u + 2v) - v*kappa
        return PointElt({ONE_MONO: x.u + 2 * x.v, KAPPA: -x.v})

    @staticmethod
    def monomial(mono, coeff=1):
        return PointElt({mono: coeff})

    def is_zero(self):
        return not self.c

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        if isinstance(other, int):
            other = PointElt.from_int(other)
        if not isinstance(other, PointElt):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if not isinstance(other, PointElt):
            if isinstance(other, int):
                other = PointElt.from_int(other)
            elif isinstance(other, BurnsideElt):
                other = PointElt.from_burnside(other)
            else:
                return NotImplemented
        if not other.c:
            return self
        if not self.c:
            return other
        out = dict(self.c)
        for m, v in other.c.items():
            v += out.get(m, 0)
            if _mixed(m):
                v %= 2
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return _point(out)

    __radd__ = __add__

    def __neg__(self):
        # a mixed e^i xi^j coefficient is 1 mod 2, its own negative
        return _point({m: v if _mixed(m) else -v for m, v in self.c.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = PointElt.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, PointElt):
            b = other.c.items()
        elif isinstance(other, int):
            b = ((ONE_MONO, other),)
        elif isinstance(other, BurnsideElt):
            b = PointElt.from_burnside(other).c.items()
        else:
            return NotImplemented
        out = {}
        _mul_into(out, self.c.items(), b)
        return _point(out)

    __rmul__ = __mul__

    def grading(self):
        """Common grading of all monomials; raises if mixed."""
        g = None
        for m in self.c:
            gm = monomial_grading(m)
            if g is None:
                g = gm
            elif g != gm:
                raise InhomogeneousError(
                    "mixed gradings %s and %s in point element" % (g, gm)
                )
        return g

    def check_homogeneous(self):
        self.grading()
        return self

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for m, v in sorted(self.c.items()):
            name = _mono_str(m)
            if name == "1":
                parts.append("%d" % v)
            elif v == 1:
                parts.append(name)
            elif v == -1:
                parts.append("-%s" % name)
            else:
                parts.append("%d*%s" % (v, name))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        out = []
        for m, v in sorted(self.c.items()):
            out.append({"tag": m[0], "args": list(m[1:]), "coeff": v})
        return out

    @staticmethod
    def from_json(doc):
        return PointElt({tuple([d["tag"]] + d["args"]): d["coeff"] for d in doc})


def _point(c):
    """A PointElt over ``c`` as it is: no zero coefficient, mixed e^i xi^j
    coefficients already reduced mod 2."""
    out = object.__new__(PointElt)
    out.c = c
    return out


def _add_term(c, m, v):
    """c[m] += v for a PointElt v; a zero sum removes m.  The in-place
    accumulator of every {key: PointElt} dict (rewrite, component)."""
    w = c.get(m)
    if w is not None:
        v = w + v
    if v.c:
        c[m] = v
    elif w is not None:
        del c[m]


def _mono_str(m):
    tag = m[0]
    if tag == "p":
        i, j = m[1], m[2]
        parts = []
        if i:
            parts.append("e^%d" % i if i != 1 else "e")
        if j:
            parts.append("xi^%d" % j if j != 1 else "xi")
        return "*".join(parts) if parts else "1"
    if tag == "k":
        n = m[1]
        return "e^-%d*k" % n if n else "k"
    return "t(iota^%d)" % (2 * m[1])


ONE = PointElt.from_int(1)
E_PT = PointElt.monomial(E)
XI_PT = PointElt.monomial(XI)
KAPPA_PT = PointElt.monomial(KAPPA)
G_PT = PointElt.from_burnside(G)
UNIT_1MK = ONE - KAPPA_PT   # 1 - kappa, a square root of 1


def point_mul(x, y):
    x.check_homogeneous()
    y.check_homogeneous()
    return x * y


def point_rho(x):
    """Restriction to level C2/e, a ring homomorphism onto Z[iota^{+-1}]:
    the level-e element {(n, 0, 0, 0): int}.  xi^j restricts to iota^{2j}
    and Trans(n) to 2 iota^{2n}; e and e^{-n} kappa restrict to 0.  The
    exponents 2j (j >= 0) and 2n (n <= -1) of canonical monomials differ,
    so no two terms meet."""
    out = {}
    for m, v in x.c.items():
        tag = m[0]
        if tag == "p":
            if m[1] == 0:
                out[(2 * m[2], 0, 0, 0)] = v
        elif tag == "t":
            out[(2 * m[1], 0, 0, 0)] = 2 * v
    return out


def point_phi(x):
    """Fixed-point map to Z: e -> 1, xi -> 0, kappa -> 2, transfers -> 0."""
    out = 0
    for m, v in x.c.items():
        tag = m[0]
        if tag == "p":
            if m[2] == 0:
                out += v
        elif tag == "k":
            out += 2 * v
    return out


def point_tau(n):
    """t(iota^n) in canonical form; it vanishes for odd n."""
    out = {}
    if n % 2 == 0:
        _mul_into(out, ONE_PAIRS, ((trans(n // 2), 1),))
    return _point(out)


def transfer_witness(x):
    """If x = t(w) for a level-e w, return w as {(n, 0, 0, 0): int} ({} for
    x = 0); otherwise None.

    The transfer image is spanned by Trans(n) = t(iota^{2n}) (n < 0),
    g = 2 - kappa = t(1) and 2 xi^n = t(iota^{2n}) (n > 0).  So u + v kappa
    is a transfer iff u = -2v (it is -v g), and everything with an e or an
    e^{-n} kappa component, or an odd xi^n, is not.
    """
    c = x.c
    if c.get(ONE_MONO, 0) != -2 * c.get(KAPPA, 0):
        return None
    w = {}
    for m, v in c.items():
        tag = m[0]
        if tag == "t":
            w[(2 * m[1], 0, 0, 0)] = v
        elif m == KAPPA:
            w[(0, 0, 0, 0)] = -v
        elif m == ONE_MONO:
            continue
        elif tag == "p" and m[1] == 0 and v % 2 == 0:
            w[(2 * m[2], 0, 0, 0)] = v // 2
        else:
            return None
    return w
