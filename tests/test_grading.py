import pytest

from c2quadrics.grading import (
    Grading,
    IOTA_DEG,
    OMEGA0,
    OMEGA1,
    SIGMA,
    W,
    XI_DEG,
    XW,
    coset_index,
    fixed_degrees,
    grading,
    underlying_degree,
)


def x_grading(p, q):
    # dual class of the embedded projective space in an odd/odd quadric
    return (p + 1) * W + (q + 1) * XW - grading(2)


def test_lattice_relation():
    assert W + XW == grading(2) + 2 * SIGMA
    assert grading(0, 0, 1, 1) == grading(2, 2, 0, 0)


def test_figure_dot_grading():
    # 2*OMEGA0 + grading of x_{5,3}: the dot at (3, 6) in figure units,
    # i.e. 6 + 12 sigma
    g = 2 * OMEGA0 + x_grading(5, 3)
    assert g == grading(6, 12, 0, 0)


def test_underlying_degree():
    assert underlying_degree(W) == 2
    assert underlying_degree(XW) == 2
    assert underlying_degree(IOTA_DEG) == 0
    # a + b + 2m + 2n on the raw tuple
    assert underlying_degree(grading(-2, 0, 6, 4)) == -2 + 0 + 12 + 8
    assert underlying_degree(x_grading(5, 3)) == 2 * (5 + 3 + 1)


def test_underlying_degree_additive():
    g1 = grading(3, -1, 2, 5)
    g2 = grading(0, 7, -4, 1)
    assert underlying_degree(g1 + g2) == underlying_degree(g1) + underlying_degree(g2)


def test_fixed_degrees():
    assert fixed_degrees(x_grading(5, 3)) == (10, 6)
    assert fixed_degrees(x_grading(2, 7)) == (4, 14)
    assert fixed_degrees(SIGMA) == (0, 0)
    assert fixed_degrees(OMEGA0) == (-2, 0)
    assert fixed_degrees(OMEGA1) == (0, -2)


def test_coset_index():
    assert coset_index(W) == 1
    assert coset_index(XW) == -1
    assert coset_index(OMEGA1) == 1
    assert coset_index(OMEGA0) == -1
    assert coset_index(grading(5, -3)) == 0
    # zeta0^{p-q} x_{p,q} lies in the RO(C2)-graded part
    p, q = 5, 3
    assert coset_index((p - q) * OMEGA0 + x_grading(p, q)) == 0


def test_degree_maps_factor_through_canonicalize():
    # the 4-argument constructor canonicalizes: (a, b, m, n) is
    # (a + 2n, b + 2n, m - n, 0)
    g_raw = Grading(1, 1, 2, 3)
    g_can = Grading(7, 7, -1)
    assert g_raw == g_can and (g_raw.a, g_raw.b, g_raw.m) == (7, 7, -1)
    assert underlying_degree(g_raw) == underlying_degree(g_can)
    assert fixed_degrees(g_raw) == fixed_degrees(g_can)
    assert coset_index(g_raw) == coset_index(g_can)


def test_xi_degree():
    assert XI_DEG == OMEGA0 + OMEGA1
    assert XI_DEG == 2 * SIGMA - grading(2)


def test_json_round_trip():
    g = grading(3, -2, 5, 1)
    assert Grading.from_json(g.to_json()) == g
    assert g.to_json()["n"] == 0


@pytest.mark.parametrize(
    "g, text",
    [
        (Grading(2, -1, 5), "2 - s + 5w"),
        (Grading(0, -1, 0), "-s"),
        (Grading(0, 0, -1), "-w"),
        (Grading(0, 1, 1), "s + w"),
        (Grading(-3, -2, -1), "-3 - 2s - w"),
        (Grading(), "0"),
    ],
)
def test_str_prints_unit_coefficients_bare(g, text):
    assert str(g) == text
