import pytest

from c2quadrics.levele import LevelEModel
from c2quadrics.noneq import InvalidSizeError, NoneqQuadricRing
from c2quadrics.solver import InconsistentError, solve_integer_system


def test_odd_quadric_basis_counts():
    # one basis element in each even degree from 0 to 2(2p-1)
    for n in range(3, 13, 2):
        p = n // 2
        ring = NoneqQuadricRing(n, "B")
        degs = [d for _, d in ring.basis()]
        assert degs == list(range(0, 2 * (2 * p - 1) + 1, 2))


def test_even_quadric_basis_counts():
    # doubled middle degree 2(p-1), one element in every other even degree
    for n in range(4, 13, 2):
        p = n // 2
        ring = NoneqQuadricRing(n, "D")
        degs = [d for _, d in ring.basis()]
        assert len(degs) == 2 * p
        assert degs.count(2 * (p - 1)) == 2
        for d in range(0, 2 * (2 * p - 2) + 1, 2):
            assert degs.count(d) >= 1


def test_q5_basis():
    ring = NoneqQuadricRing(5)
    assert [(k, d) for k, d in ring.basis()] == [
        ((0, 0), 0), ((1, 0), 2), ((0, 1), 4), ((1, 1), 6)
    ]


def test_q4_y_squared_vanishes():
    ring = NoneqQuadricRing(4)
    assert ring.mul(ring.y(), ring.y()) == {}
    # but c^2 = 2cy
    assert ring.c(2) == {(1, 1): 2}


def test_q6_y_squared():
    ring = NoneqQuadricRing(6)  # p = 3 odd: y^2 = c^2 y
    assert ring.mul(ring.y(), ring.y()) == {(2, 1): 1}


def test_two_points_idempotents():
    ring = NoneqQuadricRing(2)
    y = ring.y()
    one_minus_y = ring.add(ring.one(), ring.scale(y, -1))
    assert ring.mul(y, y) == y
    assert ring.mul(one_minus_y, one_minus_y) == one_minus_y
    assert ring.mul(y, one_minus_y) == {}
    assert ring.c() == {}


def test_q3_hyperplane_is_twice_point():
    ring = NoneqQuadricRing(3)  # p = 1: c = 2y
    assert ring.c() == {(0, 1): 2}
    assert ring.mul(ring.c(), ring.c()) == {}


def test_empty_quadric_is_zero_ring():
    ring = NoneqQuadricRing(1)
    assert ring.one() == {}
    assert ring.basis() == []


def test_t_action():
    ring = NoneqQuadricRing(6)  # type D: t swaps the rulings
    y = ring.y()
    ty = ring.t_act(y)
    assert ty == {(2, 0): 1, (0, 1): -1}  # c^{p-1} - y
    assert ring.t_act(ty) == y
    # cy is t-invariant
    cy = ring.mul(ring.c(), y)
    assert ring.t_act(cy) == cy
    # type B: t fixes y
    ringb = NoneqQuadricRing(5)
    assert ringb.t_act(ringb.y()) == ringb.y()


def test_invalid_sizes():
    with pytest.raises(InvalidSizeError):
        NoneqQuadricRing(4, "B")
    with pytest.raises(InvalidSizeError):
        NoneqQuadricRing(5, "D")
    with pytest.raises(InvalidSizeError):
        NoneqQuadricRing(-1)


# -- an independent reference: ideal membership by integer linear algebra ---
#
# Polynomials in Z[c, y] are {(i, j): int} for c^i y^j.  f - reduce(f) lies
# in the ideal I of the defining relations g iff it is a Z-combination of the
# multiples c^a y^b * g of its degree; the search bounds the y-exponent,
# because y has degree 0 on the two-point space D, 1.


def _relations(kind, P):
    if kind == "proj":
        return [{(P, 0): 1}]
    if kind == "B":
        return [{(P, 0): 1, (0, 1): -2}, {(0, 2): 1}]
    rel = {(0, 2): 1}  # D: y^2 - eps c^{P-1} y, eps = P mod 2
    if P % 2:
        rel[(P - 1, 1)] = -1
    return [{(P, 0): 1, (1, 1): -2}, rel]


def _in_ideal(kind, P, f, ydeg, max_y=4):
    if not f:
        return True
    degree = {2 * i + ydeg * j for i, j in f}
    assert len(degree) == 1, f  # the relations are homogeneous
    (deg,) = degree
    cols = []
    for g in _relations(kind, P):
        for b in range(max_y + 1 if kind != "proj" else 1):
            for a in range(deg // 2 + 1):
                col = {(i + a, j + b): v for (i, j), v in g.items()}
                if all(2 * i + ydeg * j == deg and j <= max_y for i, j in col):
                    cols.append(col)
    keys = sorted(set(f).union(*cols))
    rows = [[col.get(k, 0) for col in cols] for k in keys]
    try:
        solve_integer_system(rows, [f.get(k, 0) for k in keys])
    except InconsistentError:
        return False
    return True


def _quotient_cases():
    for P in range(1, 6):
        for kind in ("B", "D", "proj"):
            for d in range(2 * P + 2):
                for eps in range(3 if kind != "proj" else 1):
                    yield kind, P, d, eps


def test_quotient_matches_ideal_membership():
    for kind, P, d, eps in _quotient_cases():
        model = LevelEModel(kind, P)
        ydeg = {"B": 2 * P, "D": 2 * P - 2, "proj": 0}[kind]
        if kind == "proj":
            basis = {(k, 0) for k in range(P)}
            red = model.reduce({(d, eps): 1})
        else:
            ring = NoneqQuadricRing(2 * P + (kind == "B"), kind)
            basis = {k for k, _ in ring.basis()}
            red = ring.monomial(d, eps)
        assert set(red) <= basis, (kind, P, d, eps, red)
        diff = {(d, eps): 1}
        for k, v in red.items():
            diff[k] = diff.get(k, 0) - v
        diff = {k: v for k, v in diff.items() if v}
        assert _in_ideal(kind, P, diff, ydeg), (kind, P, d, eps, red)
        # the level-e reduction lifts the same quotient
        lifted = {(3, -2) + k: v for k, v in red.items()}
        assert model.reduce({(3, -2, d, eps): 1}) == lifted
