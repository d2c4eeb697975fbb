"""The multiplicative structure of the quadric rings.

Every symmetric quadric Q^{m,n} gets a finitely presented algebra over
the point ring, dispatched by the parities of m and n.  The generators
are the Euler-type classes z0, z1, cw, cx together with the dual class x
of the embedded projective space, and (for odd-odd quadrics) the
free-orbit class y seen through its transfers t(iota^a zeta^b y).
"""

import warnings

from c2quadrics import RestrictedGradingWarning, make_quadric, parse_expression

warnings.simplefilter("ignore", RestrictedGradingWarning)

print("== odd-odd: Q^{5,3} ==")
Q = make_quadric(5, 3)
print("x * x                =", parse_expression(Q, "x*x"))
print("cw^2 * cx            =", parse_expression(Q, "cw^2*cx"))
divw, divx = Q.gen("divw"), Q.gen("divx")
print("divw                 =", divw)
print("divx                 =", divx)
print("divw * divx          =", Q.mul(divw, divx))
print("rho(x)               =", Q.rho(Q.gen("x")))

print("\n== even-odd: Q^{4,3} ==")
D = make_quadric(4, 3)
print("x * x                =", parse_expression(D, "x*x"), "  (p = 2 even)")
print("cw^2 * cx            =", parse_expression(D, "cw^2*cx"))

E = make_quadric(6, 3)
print("x * x in Q^{6,3}     =", parse_expression(E, "x*x"), "  (p = 3 odd)")

print("\n== even-even: Q^{4,4} and the unit in Q^{2,2} ==")
F = make_quadric(4, 4)
print("x * x in Q^{4,4}     =", parse_expression(F, "x*x"))
G2 = make_quadric(4, 6)
print("x * x in Q^{4,6}     =", parse_expression(G2, "x*x"), "  (p even, q odd)")

U = make_quadric(2, 2)
print("(1 - e^-2*k*x)^2     =", parse_expression(U, "(1 - e^-2*k*x)^2"))

print("\n== the free orbit Q^{1,1} ==")
O = make_quadric(1, 1)
print("1 (as a transfer)    =", O.scalar(1))
print("x                    =", O.gen("x"))

print("\n== the relation shared by every deck ==")
for m, n in [(5, 3), (4, 3), (3, 4), (4, 4)]:
    P = make_quadric(m, n)
    v = parse_expression(P, "t(iota^-2)*z0*cw - t(iota^-2)*z1*cx")
    print("Q^{%d,%d}: t(iota^-2) z0 cw - t(iota^-2) z1 cx =" % (m, n), v)
