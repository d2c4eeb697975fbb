"""Exact arithmetic in the grading lattice RO(Pi BU(1)).

A grading is an integer combination  a*1 + b*sigma + m*w + n*xw  where
sigma is the sign representation and w, xw are the two equivariant line
classes.  The lattice relation

    w + xw = 2 + 2*sigma

lets us eliminate xw, so the canonical form of a grading is the triple
(a, b, m) with xw-coefficient zero:

    (a, b, m, n)  ==  (a + 2n, b + 2n, m - n, 0).

Derived symbols (canonical forms):

    OMEGA0 = 2*sigma - w          -> (0,  2, -1)
    OMEGA1 = 2*sigma - xw         -> (-2, 0,  1)
    XI_DEG = OMEGA0 + OMEGA1      -> (-2, 2,  0)   (degree of xi)
    IOTA_DEG = sigma - 1          -> (-1, 1,  0)   (degree of iota)

Three degree homomorphisms are used throughout:

* ``underlying_degree``  -- dimension of the underlying nonequivariant
  grading: sigma counts 1, w and xw count 2.
* ``fixed_degrees``      -- the pair of dimensions of the fixed parts over
  the two fixed-set components: sigma counts 0, w counts 2 over component
  0 only, xw counts 2 over component 1 only.
* ``coset_index``        -- image in the rank-one quotient by RO(C2),
  normalized so OMEGA1 maps to +1.
"""

from __future__ import annotations


class Grading:
    """Element of RO(Pi BU(1)) stored in canonical form (n = 0)."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a=0, b=0, m=0, n=0):
        # canonicalize: (a, b, m, n) == (a + 2n, b + 2n, m - n, 0)
        self.a = a + 2 * n
        self.b = b + 2 * n
        self.m = m - n

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return (self.a, self.b, self.m) == (other.a, other.b, other.m)

    def __hash__(self):
        return hash((self.a, self.b, self.m))

    def __add__(self, other):
        return Grading(self.a + other.a, self.b + other.b, self.m + other.m)

    def __sub__(self, other):
        return Grading(self.a - other.a, self.b - other.b, self.m - other.m)

    def __neg__(self):
        return Grading(-self.a, -self.b, -self.m)

    def __rmul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Grading(k * self.a, k * self.b, k * self.m)

    def __repr__(self):
        return "Grading(%d, %d, %d)" % (self.a, self.b, self.m)

    def __str__(self):
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            parts.append({1: "s", -1: "-s"}.get(self.b, "%ds" % self.b))
        if self.m:
            parts.append({1: "w", -1: "-w"}.get(self.m, "%dw" % self.m))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def to_json(self):
        return {"a": self.a, "b": self.b, "m": self.m, "n": 0}

    @staticmethod
    def from_json(doc):
        return Grading(doc["a"], doc["b"], doc["m"], doc.get("n", 0))


def grading(a=0, b=0, m=0, n=0):
    """Convenience constructor; accepts the raw 4-tuple form."""
    return Grading(a, b, m, n)


SIGMA = Grading(0, 1, 0)
W = Grading(0, 0, 1)          # omega
XW = Grading(0, 0, 0, 1)      # chi-omega, canonicalized to (2, 2, -1)
OMEGA0 = 2 * SIGMA - W
OMEGA1 = 2 * SIGMA - XW
XI_DEG = OMEGA0 + OMEGA1      # degree of xi, = 2*sigma - 2
IOTA_DEG = SIGMA - Grading(1)  # degree of iota, = sigma - 1


def underlying_degree(g):
    """Dimension of the underlying nonequivariant grading."""
    return g.a + g.b + 2 * g.m


def fixed_degrees(g):
    """Pair (d0, d1) of fixed-part dimensions over the two components."""
    return (g.a + 2 * g.m, g.a)


def coset_index(g):
    """Image in RO(Pi BU(1)) / RO(C2), normalized so OMEGA1 -> 1."""
    return g.m
