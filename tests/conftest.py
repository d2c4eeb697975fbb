"""Helpers shared by the tests.

A rule's right-hand side is data, ``(pairs, atoms)``, or a function of the
monomial that returns it (see ``c2quadrics.rewrite``); ``rhs_at`` and
``negated_rhs`` serve the tests that replace a rule in place.
``point_transfer`` is the transfer of a point's level-e coefficient.
``loop_power`` is the reference for the closed forms of
``RingElement.__pow__``, and ``one_step`` for the closed-form e^2-chains.
"""

from c2quadrics.catalog import _CX_TAIL, _T2, _W0_CW, _W1_CX, _rhs
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


def one_step(pres):
    """pres with every e^2-chain back at one step a firing: the one-step
    right-hand sides in w0_cw, w1_cx, ihigh, t2 and jhigh (whose top_tail
    branch stays), and no dropped mixed terms (``mixed_dies``)."""
    p = pres.p
    one = {"w0_cw": _rhs(_W0_CW), "w1_cx": _rhs(_W1_CX), "ihigh": _rhs(_W0_CW), "t2": _rhs(_T2)}

    def one_jhigh(jump):
        def rhs(m):
            if m[2] + 1 < p:
                return _rhs(_T2)
            return _rhs([_CX_TAIL]) if m[4] >= 1 else jump(m)

        return rhs

    pres.rules = [
        (name, guard, one_jhigh(rhs) if name == "jhigh" else one.get(name, rhs))
        for name, guard, rhs in pres.rules
    ]
    pres.mixed_dies = None
    return pres
