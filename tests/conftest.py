"""Helpers shared by the tests.

A rule's right-hand side is data, ``(pairs, atoms)``, or a function of the
monomial that returns it (see ``c2quadrics.rewrite``); ``rhs_at`` and
``negated_rhs`` serve the tests that replace a rule in place.
``point_transfer`` is the transfer of a point's level-e coefficient.
``loop_power`` is the reference for the closed forms of
``RingElement.__pow__``.
"""

from c2quadrics.coefficients import PointElt, point_tau


def point_transfer(w):
    """t(w) for a level-e coefficient w = {(n, 0, 0, 0): v}, term by term."""
    out = PointElt()
    for k, v in w.items():
        out = out + point_tau(k[0]) * v
    return out


def rhs_at(rhs, m):
    """The data of the right-hand side ``rhs`` at the monomial ``m``."""
    return rhs(m) if callable(rhs) else rhs


def negated_rhs(rhs):
    """The right-hand side -rhs: the data of a fixed rhs with every
    coefficient negated, or a function that negates the result of a
    function rhs."""
    if callable(rhs):
        return lambda m: negated_rhs(rhs(m))
    pairs, atoms = rhs
    return (
        tuple((tuple((-PointElt(dict(c))).c.items()), delta) for c, delta in pairs),
        tuple((ab, -n, delta) for ab, n, delta in atoms),
    )


def loop_power(x, n):
    """x^n as n products from the top-level 1, stopping once x*out == out:
    the plain loop of ``RingElement.__pow__``, without its closed forms."""
    out = x.pres.scalar(1)
    for _ in range(n):
        nxt = x.pres.mul(out, x)
        if nxt == out:
            break
        out = nxt
    return out
