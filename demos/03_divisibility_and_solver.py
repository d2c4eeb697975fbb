"""Divisibility witnesses and undetermined-coefficient solving.

A class is infinitely divisible by z0 exactly when its restriction to
fixed-set component 0 is a transfer; the witness is the level-e class
being transferred.  The corrected powers divw, divx pass the test while
the raw powers cw^p, cx^q fail it, which is the whole point of the
correction terms.

The solver pins down a product in a fixed grading from its images under
the restriction rho and the fixed-point map, the way the product
relations are pinned down.
"""

import warnings

from c2quadrics import RestrictedGradingWarning, divisibility_witness, make_quadric, solve_undetermined
from c2quadrics.coefficients import PointElt, negkappa, trans
from c2quadrics.grading import W, XW

warnings.simplefilter("ignore", RestrictedGradingWarning)

Q = make_quadric(5, 3)  # odd-odd with p = 2, q = 1
divw, divx = Q.gen("divw"), Q.gen("divx")

print("witness for divw / z0:", divisibility_witness(Q, divw, "z0"))
print("witness for divx / z1:", divisibility_witness(Q, divx, "z1"))
print("cw^2 / z0 refused:    ", divisibility_witness(Q, Q.gen("cw") ** 2, "z0"))

print("\nblanket divisibility over an empty fixed component (Q^{1,7}):")
B = make_quadric(1, 7)
print("cw / z0:", divisibility_witness(B, B.gen("cw"), "z0")["divisible"])

print("\nsolving divw*divx = a*t(...) + b*e^-2 k x + c*e^-4 k z0 cw x:")
p, q = 2, 1
candidates = [
    Q.tau_atom(2 * q, p - q),
    Q.monomial_elt((0, 0, 0, 0, 1, 0, 0), PointElt.monomial(negkappa(2))),
    Q.monomial_elt((1, 0, 1, 0, 1, 0, 0), PointElt.monomial(negkappa(4))),
]
prod = Q.mul(divw, divx)
res = solve_undetermined(
    Q, p * W + q * XW, candidates, {"rho": Q.rho(prod), "phi": Q.phi(prod)}
)
print("coefficients (u + v*g):", [(c.u, c.v) for c in res["solution"]])
print("unique up to the reported kernel:", res["unique"], len(res["kernel"]), "kernel vectors")
