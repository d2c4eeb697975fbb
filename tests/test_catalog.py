"""Deck-level tests: the shipped relation decks, degenerate cases, swap,
and the slice enumeration against the two dot figures."""

import warnings

import pytest

from c2quadrics.catalog import (
    RestrictedGradingWarning,
    _div_elements,
    basis_slice,
    make_binate,
    make_quadric,
    make_space,
    parse_space,
    swap_element,
    swap_grading,
    swap_involution,
)
from c2quadrics.coefficients import PointElt, negkappa, pos, trans
from c2quadrics.grading import Grading, OMEGA0, OMEGA1, W, XW
from c2quadrics.noneq import InvalidSizeError


def nk(n):
    return PointElt.monomial(negkappa(n))


def quads(bound):
    for m in range(1, 2 * bound + 2):
        for n in range(1, 2 * bound + 2):
            pm = (m - 1) // 2 if m % 2 else m // 2
            pn = (n - 1) // 2 if n % 2 else n // 2
            if pm > bound or pn > bound or m + n < 2:
                continue
            yield m, n


@pytest.mark.parametrize("m,n", list(quads(2)))
def test_deck_identities(m, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(m, n)
    for name, lhs, rhs in Q.identities():
        assert (lhs - rhs).is_zero(), (m, n, name)


def test_space_id_grammar():
    assert parse_space("quadric:5,3") == ("quadric", 5, 3)
    assert parse_space("proj:1,2") == ("proj", 1, 2)
    assert parse_space("neq:4,D") == ("neq", 4, "D")
    with pytest.raises(InvalidSizeError):
        parse_space("quadric:5")
    with pytest.raises(InvalidSizeError):
        parse_space("nonsense")


def test_restricted_grading_warning():
    with pytest.warns(RestrictedGradingWarning):
        make_quadric(2, 5)
    with pytest.warns(RestrictedGradingWarning):
        make_quadric(2, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_quadric(3, 5)  # no warning for m, n != 2


def test_invalid_sizes():
    with pytest.raises(InvalidSizeError):
        make_quadric(1, 0)
    with pytest.raises(InvalidSizeError):
        make_quadric(-1, 4)


def test_bb_x_squared_and_div_product():
    Q = make_quadric(5, 3)  # BB(2,1)
    x = Q.gen("x")
    assert (x * x).is_zero()
    divw, divx = _div_elements(Q)
    assert Q.mul(divw, divx) == Q.tau_atom(2, 1)


def test_bb_cwp_cxq_expansion():
    Q = make_quadric(5, 3)
    lhs = (Q.gen("cw") ** 2) * Q.gen("cx")
    rhs = Q.tau_atom(2, 1) + Q.monomial_elt((0, 0, 0, 0, 1, 0, 0), nk(2))
    assert lhs == rhs


def test_db_x_squared_parity():
    for p, q in [(1, 1), (2, 1), (3, 2), (4, 1), (2, 3)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            Q = make_quadric(2 * p, 2 * q + 1)
        x = Q.gen("x")
        if p % 2 == 0:
            assert (x * x).is_zero(), (p, q)
        else:
            rhs = Q.monomial_elt(
                (0, 0, p - 1, q, 1, 0, 0), PointElt.monomial(pos(2, 0))
            )
            assert x * x == rhs, (p, q)


def test_dd_x_squared_four_cases():
    cases = {
        (2, 2): None,
        (1, 1): ("e2", (0, 0, 0, 0, 1, 0, 0)),
        (2, 1): ("z0", (1, 0, 2, 0, 1, 0, 0)),
        (1, 2): ("z1", (0, 1, 0, 2, 1, 0, 0)),
        (3, 3): ("e2", (0, 0, 2, 2, 1, 0, 0)),
        (4, 3): ("z0", (1, 0, 4, 2, 1, 0, 0)),
        (3, 4): ("z1", (0, 1, 2, 4, 1, 0, 0)),
        (4, 4): None,
    }
    for (p, q), expected in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            Q = make_quadric(2 * p, 2 * q)
        x = Q.gen("x")
        if expected is None:
            assert (x * x).is_zero(), (p, q)
        else:
            kind, mono = expected
            coeff = PointElt.monomial(pos(2, 0)) if kind == "e2" else PointElt.from_int(1)
            assert x * x == Q.monomial_elt(mono, coeff), (p, q)


def test_dd_unit():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(2, 2)
    u = Q.scalar(1) - Q.gen("x") * nk(2)
    assert u * u == Q.scalar(1)
    # divw and divx differ from cw, cx by that unit
    assert Q.gen("cw") * u * u == Q.gen("cw")
    assert Q.gen("cx") * u * u == Q.gen("cx")


def test_db_divdiv():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 3)  # DB(2,1)
    divw, divx = _div_elements(Q)
    rhs = Q.monomial_elt((0, 1, 0, 0, 1, 0, 0), PointElt.monomial(trans(-1)))
    assert Q.mul(divw, divx) == rhs


def test_dd_divdiv_and_final_relation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 4)  # DD(2,2)
    divw, divx = _div_elements(Q)
    t_m1 = PointElt.monomial(trans(-1))
    rhs = Q.monomial_elt((1, 0, 1, 0, 1, 0, 0), t_m1)
    assert Q.mul(divw, divx) == rhs
    # tau(iota^-2) z0 cw = tau(iota^-2) z1 cx holds in every quadric deck
    lhs = (Q.gen("z0") * Q.gen("cw")) * t_m1
    other = (Q.gen("z1") * Q.gen("cx")) * t_m1
    assert (lhs - other).is_zero()


def test_free_orbit_quadric():
    Q = make_quadric(1, 1)
    assert Q.free_orbit
    assert Q.gen("x").is_zero()
    assert Q.scalar(1) == Q.tau_atom(0, 0)
    sl = basis_slice(Q, 0, ((-8, 8), (-8, 8)))
    assert [label for _, label in sl] == ["C2/e"]


def test_trivial_action_quadric():
    # Q^{0,5}: everything is divisible by z0 (empty component 0)
    Q = make_quadric(0, 5)
    assert Q.z0_inv
    from c2quadrics.solver import divisibility_witness

    for elt in [Q.gen("cx"), Q.gen("x"), Q.scalar(1)]:
        assert divisibility_witness(Q, elt, "z0")["divisible"]


def test_swap_involution():
    Q = make_quadric(4, 3)
    S = swap_involution(Q)
    assert S.space == ("quadric", 3, 4)
    SS = swap_involution(S)
    assert SS.space == Q.space
    assert swap_grading(swap_grading(Grading(3, 5, -2))) == Grading(3, 5, -2)
    assert swap_grading(OMEGA0) == OMEGA1
    assert swap_grading(W) == XW


def test_swap_element_respects_relations():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 3)
        S = swap_involution(Q)
    x2 = Q.mul(Q.gen("x"), Q.gen("x"))
    m1 = swap_element(Q, S, x2)
    m2 = S.mul(S.gen("x"), S.gen("x"))
    assert (m1 - m2).is_zero()
    # round trip
    z = Q.monomial_elt((0, 1, 1, 0, 1, 0, 0))
    back = swap_element(S, Q, swap_element(Q, S, z))
    assert back == z


def test_figure_one_slice():
    Q = make_quadric(11, 7)
    rows = basis_slice(Q, 0, ((-2, 40), (-2, 40)))
    c2 = sorted((g.a, g.b) for g, label in rows if label == "C2/C2")
    assert c2 == [
        (0, 0), (0, 2), (2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 12),
        (8, 6), (8, 12), (10, 12), (10, 14), (12, 14), (14, 14), (16, 14),
        (18, 14),
    ]
    ce = [(g.a, g.b) for g, label in rows if label == "C2/e"]
    assert len(ce) == 1 and ce[0][0] + ce[0][1] == 16


def test_figure_two_slice():
    Q = make_quadric(15, 7)
    rows = basis_slice(Q, 0, ((-2, 40), (-2, 40)))
    c2 = sorted((g.a, g.b) for g, label in rows if label == "C2/C2")
    assert len(c2) == 20
    x_cluster = [
        (6, 16), (8, 16), (10, 16),
        (14, 14), (16, 14), (18, 14), (20, 14), (22, 14), (24, 14), (26, 14),
    ]
    staircase = [
        (0, 0), (0, 2), (2, 2), (2, 4), (4, 4), (4, 6), (6, 6),
        (8, 6), (10, 6), (12, 6),
    ]
    assert c2 == sorted(staircase + x_cluster)
    ce = [(g.a, g.b) for g, label in rows if label == "C2/e"]
    assert len(ce) == 1 and ce[0][0] + ce[0][1] == 20


def test_binate_relation_range():
    for p, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        S = make_binate(p, q)
        lhs = (S.gen("cw") ** p) * (S.gen("cx") ** q)
        assert lhs == S.tau_atom(2 * q, p - q), (p, q)


def test_per_coset_counts_projective():
    from c2quadrics.catalog import _enumerate_coset_monomials, make_projective

    for p, q in [(1, 1), (2, 2), (5, 3), (1, 4)]:
        P = make_projective(p, q)
        for coset in (-3, -1, 0, 2, 4):
            monos = _enumerate_coset_monomials(P, coset, ((-60, 60), (-60, 60)))
            assert len(monos) == p + q, (p, q, coset)


def test_quadric_per_coset_counts():
    from c2quadrics.catalog import _enumerate_coset_monomials

    for (m, n) in [(5, 3), (4, 3), (3, 4), (4, 4)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            Q = make_quadric(m, n)
        expect = 2 * (Q.p + Q.q)
        for coset in (-2, 0, 1, 3):
            monos = _enumerate_coset_monomials(Q, coset, ((-60, 60), (-60, 60)))
            assert len(monos) == expect, (m, n, coset)


ENUM_SPACES = [
    "point", "bu1", "proj:0,2", "proj:2,0", "proj:2,3", "binate:0,2",
    "binate:2,1", "binate:3,3", "quadric:1,1", "quadric:1,5", "quadric:0,4",
    "quadric:4,0", "quadric:3,5", "quadric:2,3", "quadric:3,2", "quadric:2,2",
    "quadric:4,4",
]


def test_canonical_monomials_never_mix_zeta_signs():
    # _enumerate_coset_monomials tries only s == 0 and t == 0 per cell
    for sid in ENUM_SPACES:
        pres = make_space(sid)
        p = pres.p if pres.p is not None else 4
        q = pres.q if pres.q is not None else 4
        for s in range(-5, 6):
            for t in range(-5, 6):
                if s == 0 or t == 0:
                    continue
                for i in range(p + 3):
                    for j in range(q + 3):
                        for d in range(2):
                            for w0 in range(2):
                                for w1 in range(2):
                                    m = (s, t, i, j, d, w0, w1)
                                    assert not pres.canonical(m), (sid, m)


def _scan_coset_monomials(pres, coset, window):
    """Reference: scan every zeta exponent s in [-bound, bound] per cell."""
    from c2quadrics.grading import coset_index

    (a0, a1), (b0, b1) = window
    span = max(abs(a0), abs(a1), abs(b0), abs(b1)) + abs(coset)
    p = pres.p if pres.p is not None else span + 2
    q = pres.q if pres.q is not None else span + 2
    bound = span + 2 * (p + q) + 8
    xg = pres.x_grading
    out = []
    dmax = 2 if pres.has_x else 1
    for d in range(dmax):
        flags = [(0, 0)]
        if pres.has_x and d == 0:
            flags += [(1, 0), (0, 1)]
        for w0, w1 in flags:
            for i in range(0, p + 2):
                for j in range(0, q + 2):
                    for s in range(-bound, bound + 1):
                        t = (
                            coset + s - i + j
                            - (d * coset_index(xg) if d else 0)
                            - w0 * p + w1 * q
                        )
                        if abs(t) > bound:
                            continue
                        m = (s, t, i, j, d, w0, w1)
                        if pres.canonical(m):
                            out.append(m)
    return out


def test_enumeration_matches_scan():
    from c2quadrics.catalog import _enumerate_coset_monomials

    small = [((-3, 6), (-2, 5)), ((0, 1), (-1, 0))]
    wide = [((-12, 0), (0, 12)), ((-30, 4), (-30, 30)), ((0, 36), (-36, 0))]
    for sid in ENUM_SPACES:
        pres = make_space(sid)
        windows = small if pres.p is None else small + wide
        for coset in range(-4, 5):
            for window in windows:
                got = _enumerate_coset_monomials(pres, coset, window)
                want = _scan_coset_monomials(pres, coset, window)
                assert sorted(got) == sorted(want), (sid, coset, window)
