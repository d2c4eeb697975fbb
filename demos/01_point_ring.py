"""Arithmetic in the coefficient rings.

The Burnside ring A(C2) = Z{1, g} with g^2 = 2g acts everywhere; we write
k = 2 - g, so k^2 = 2k and (1 - k)^2 = 1.  The cohomology of a point
contributes the Euler class e of the sign representation, the class xi
with restriction iota^2, the infinitely divisible classes e^{-n} k, and
the transfers t(iota^{2n}) of the invertible level-e classes.  A level-e
coefficient sum v iota^n is the level-e element {(n, 0, 0, 0): v}.
"""

from c2quadrics import BurnsideElt, PointElt, point_phi, point_rho, point_tau
from c2quadrics.coefficients import negkappa, pos, trans


def iota_str(w):
    """A level-e coefficient {(n, 0, 0, 0): v} as a sum of v*iota^n."""
    return " + ".join("%d*iota^%d" % (v, k[0]) for k, v in sorted(w.items())) or "0"


g = BurnsideElt(0, 1)
print("g * g      =", g * g)
print("kappa^2    =", (BurnsideElt(2) - g) * (BurnsideElt(2) - g), " (= 2*kappa)")

e = PointElt.monomial(pos(1, 0))
xi = PointElt.monomial(pos(0, 1))
kappa = PointElt.monomial(negkappa(0))
one = PointElt.from_int(1)

print("\nThe square root of 1 used throughout the multiplicative structure:")
print("(1 - k)^2  =", (one - kappa) * (one - kappa))

print("\nThe rules that drive the divisible classes:")
print("e^-2 k * xi       =", PointElt.monomial(negkappa(2)) * xi)
print("e^-4 k * e^2      =", PointElt.monomial(negkappa(4)) * e * e)
print("t(iota^-2) * e^2  =", PointElt.monomial(trans(-1)) * e * e)

print("\nTransfers in nonnegative degrees collapse:")
print("t(1)       =", point_tau(0), " (= g)")
print("t(iota^2)  =", point_tau(2), " (= 2 xi)")
print("t(iota^3)  =", point_tau(3))

print("\nRestriction and fixed points are ring maps:")
x = kappa * 3 + one * 2
print("x = 2 + 3k:   rho(x) =", iota_str(point_rho(x)), "  phi(x) =", point_phi(x))
print("phi(1 - k) =", point_phi(one - kappa))

print("\nMixed classes e^i xi^j (i, j >= 1) are 2-torsion:")
exi = e * xi
print("e*xi       =", exi, "   2*e*xi =", exi * 2)
