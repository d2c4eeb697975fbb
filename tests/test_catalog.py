"""Deck-level tests: the shipped relation decks, degenerate cases, swap,
and the slice enumeration against the two dot figures."""

import itertools
import random
import warnings

import pytest

from c2quadrics.catalog import (
    E2,
    RestrictedGradingWarning,
    _DIV_S,
    _powers,
    _rhs,
    _swap_key,
    _swap_mono,
    basis_slice,
    make_binate,
    make_nonequiv_quadric,
    make_quadric,
    make_space,
    parse_space,
    swap_element,
    swap_grading,
    swap_involution,
)
from c2quadrics.coefficients import ONE, XI_PT, PointElt, negkappa, pos, trans
from c2quadrics.component import _divided_image
from c2quadrics.expressions import parse_expression
from c2quadrics.grading import Grading, OMEGA0, OMEGA1, W, XW
from c2quadrics.levele import add_elts
from c2quadrics.noneq import InvalidSizeError
from c2quadrics.rewrite import (
    GENERATORS,
    NonTerminatingError,
    NotAClassError,
    RingElement,
    _terms_elt,
    mono_mul,
)
from c2quadrics.solver import POINT_COEFFS, _grading_counts

from conftest import one_step


def nk(n):
    return PointElt.monomial(negkappa(n))


def quads(bound):
    """Every quadric:m,n with m, n >= 1 and m // 2, n // 2 <= bound."""
    for m in range(1, 2 * bound + 2):
        for n in range(1, 2 * bound + 2):
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


def _model(model):
    return model.kind, model.size


def test_shared_fields_follow_from_m_and_n():
    for m in range(16):
        for n in range(16):
            if m + n < 2 or (m, n) == (1, 1):
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                Q = make_quadric(m, n)
            # level e: the quadric in C^{m+n}; the fixed components: those in C^m and C^n
            assert _model(Q.levele) == _model(make_nonequiv_quadric(m + n).model)
            for S, k in zip(Q.eta_sides, (m, n)):
                assert _model(S.model) == (_model(make_nonequiv_quadric(k).model) if k >= 2 else ("zero", 0))
            assert Q.levele.key_grading(Q.rho_x + (1,)) == Q.x_grading
            assert Q.has_atoms == (m % 2 == 1 and n % 2 == 1)
            assert (Q.z0_inv, Q.z1_inv) == (m <= 1, n <= 1)
            restricted = m == 2 or n == 2
            assert [w.category for w in caught] == [RestrictedGradingWarning] * restricted
            assert len(Q.warnings) == restricted


def test_invalid_sizes():
    with pytest.raises(InvalidSizeError):
        make_quadric(1, 0)
    with pytest.raises(InvalidSizeError):
        make_quadric(-1, 4)


def test_bb_x_squared_and_div_product():
    Q = make_quadric(5, 3)  # BB(2,1)
    x = Q.gen("x")
    assert (x * x).is_zero()
    divw, divx = Q.gen("divw"), Q.gen("divx")
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
    divw, divx = Q.gen("divw"), Q.gen("divx")
    rhs = Q.monomial_elt((0, 1, 0, 0, 1, 0, 0), PointElt.monomial(trans(-1)))
    assert Q.mul(divw, divx) == rhs


def test_dd_divdiv_and_final_relation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 4)  # DD(2,2)
    divw, divx = Q.gen("divw"), Q.gen("divx")
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


@pytest.mark.parametrize("sid", ["quadric:1,1", "binate:0,0"])
def test_free_orbit_is_finished_like_every_deck(sid):
    # p = q = 0: both zetas are invertible, as on every side of size 0, and
    # _make_canonical accepts no monomial; the deck states its two rules
    P = make_space(sid)
    assert (P.z0_inv, P.z1_inv) == (True, True)
    assert not any(P.canonical(m) for m in itertools.product(range(-3, 4), repeat=7))
    assert [name for name, _, _ in P.rules] == ["x_zero", "unit"]


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


SIZES = [(p, q) for p in range(9) for q in range(9)]

TRANS_M1 = PointElt.monomial(trans(-1))
FIELDS = ("corrw", "corrx", "xsq_terms", "divdiv_terms", "top_terms")


# reference for _quadric, which derives corrw, corrx and cw^p*cx^q from
# (m, n) and takes x^2 and divw*divx by type: the type decks as they were
# stated by hand, by (m % 2, n % 2)
def _bb(p, q):
    return {
        "corrw": [(nk(2 * (q + 1)), (0, q, 0, 0, 1, 0, 0))],
        "corrx": [(nk(2 * (p + 1)), (p, 0, 0, 0, 1, 0, 0))],
        "xsq_terms": [],
        "divdiv_terms": [("atom", 1, (2 * q, p - q))],
        "top_terms": [("atom", 1, (2 * q, p - q)), ("mono", nk(2), (0, 0, 0, 0, 1, 0, 0))],
    }


def _db(p, q):
    return {
        "corrw": [] if p <= 1 else [(nk(2 * (q + 1)), (0, q, 1, 0, 1, 0, 0))],
        "corrx": [(nk(2 * p), (p - 1, 0, 0, 0, 1, 0, 0))],
        "xsq_terms": [] if p % 2 == 0 else [(E2, (0, 0, p - 1, q, 1, 0, 0))],
        "divdiv_terms": [("mono", TRANS_M1, (0, 1, 0, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (0, 1, 0, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 1, 0, 1, 0, 0)),
        ],
    }


def _bd(p, q):
    # the odd-even deck as the paper writes it
    return {
        "corrw": [(nk(2 * q), (0, q - 1, 0, 0, 1, 0, 0))],
        "corrx": [] if q <= 1 else [(nk(2 * (p + 1)), (p, 0, 0, 1, 1, 0, 0))],
        "xsq_terms": [] if q % 2 == 0 else [(E2, (0, 0, p, q - 1, 1, 0, 0))],
        "divdiv_terms": [("mono", TRANS_M1, (1, 0, 0, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (1, 0, 0, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 0, 1, 1, 0, 0)),
        ],
    }


def _dd(p, q):
    if p % 2 == 0 and q % 2 == 0:
        xsq = []
    elif p % 2 == 1 and q % 2 == 1:
        xsq = [(E2, (0, 0, p - 1, q - 1, 1, 0, 0))]
    elif p % 2 == 0:
        xsq = [(ONE, (1, 0, p, q - 1, 1, 0, 0))]
    else:
        xsq = [(ONE, (0, 1, p - 1, q, 1, 0, 0))]
    return {
        "corrw": [] if p <= 1 else [(nk(2 * q), (0, q - 1, 1, 0, 1, 0, 0))],
        "corrx": [] if q <= 1 else [(nk(2 * p), (p - 1, 0, 0, 1, 1, 0, 0))],
        "xsq_terms": xsq,
        "divdiv_terms": [("mono", TRANS_M1, (1, 0, 1, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (1, 0, 1, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 1, 1, 1, 0, 0)),
        ],
    }


_TYPE_DECKS = {(1, 1): _bb, (0, 1): _db, (1, 0): _bd, (0, 0): _dd}


def _quadric_or_none(m, n):
    """Q^{m,n}, or None when m + n < 2 or Q^{m,n} is the free orbit."""
    if m + n < 2 or (m, n) == (1, 1):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_quadric(m, n)


def _fields(Q):
    return {key: getattr(Q, key) for key in FIELDS}


def _swapped(Q):
    """The deck fields of Q^{m,n} under the swap Q^{m,n} -> Q^{n,m}: corrw
    and corrx trade places, and every monomial and level-e key is swapped."""

    def pairs(key):
        return [(c, _swap_mono(delta)) for c, delta in getattr(Q, key)]

    def terms(key):
        return [(k, c, _swap_mono(x) if k == "mono" else _swap_key(*x)) for k, c, x in getattr(Q, key)]

    return {
        "corrw": pairs("corrx"),
        "corrx": pairs("corrw"),
        "xsq_terms": pairs("xsq_terms"),
        "divdiv_terms": terms("divdiv_terms"),
        "top_terms": terms("top_terms"),
    }


def test_decks_match_the_hand_tables():
    checked = 0
    for m in range(40):
        for n in range(40):
            Q = _quadric_or_none(m, n)
            if Q is None:
                continue
            deck = _TYPE_DECKS[m % 2, n % 2](m // 2, n // 2)
            for key in FIELDS:
                # list order too: the rules and the digests read the terms in order
                assert repr(getattr(Q, key)) == repr(deck[key]), (m, n, key)
                assert getattr(Q, key) == deck[key], (m, n, key)
            checked += 1
    assert checked == 1596


def test_swap_exchanges_the_corrections_and_x_squared():
    for m in range(14):
        for n in range(14):
            Q, S = _quadric_or_none(m, n), _quadric_or_none(n, m)
            if Q is None:
                continue
            swapped = _swapped(Q)
            for key in ("corrw", "corrx", "xsq_terms"):
                assert getattr(S, key) == swapped[key], (m, n, key)


def test_bd_is_the_swap_of_db():
    for p, q in SIZES:
        BD, DB = _quadric_or_none(2 * p + 1, 2 * q), _quadric_or_none(2 * q, 2 * p + 1)
        if BD is not None:
            assert _fields(BD) == _swapped(DB), (p, q)


def test_deck_terms_have_the_gradings_of_their_relations():
    def term_grading(Q, kind, c, x):
        if kind == "atom":
            return Q.atom_grading(*x)
        return Q.mono_grading(x) + c.grading()

    for m in range(14):
        for n in range(14):
            Q = _quadric_or_none(m, n)
            if Q is None:
                continue
            p, q = Q.p, Q.q
            expected = {
                "corrw": p * W,
                "corrx": q * XW,
                "xsq_terms": 2 * Q.x_grading,
                "divdiv_terms": p * W + q * XW,
                "top_terms": p * W + q * XW,
            }
            for key, g in expected.items():
                for term in getattr(Q, key):
                    term = term if len(term) == 3 else ("mono",) + term
                    assert term_grading(Q, *term) == g, (m, n, key, term)


# reference for _quadric, which derives rho(x) = iota^A zeta^B c^C y from the
# grading of x: the per-type tables (A, B, C) by (m % 2, n % 2), as the type
# decks stated them
_RHO_X_TABLES = {
    (1, 1): lambda p, q: (2 * (q + 1), p - q, 1),
    (0, 1): lambda p, q: (2 * (q + 1), p - q - 1, 0),
    (1, 0): lambda p, q: (2 * q, p + 1 - q, 0),
    (0, 0): lambda p, q: (2 * q, p - q, 0),
}


def test_rho_x_matches_the_type_tables():
    checked = 0
    for m in range(30):
        for n in range(30):
            if m + n < 2 or (m, n) == (1, 1):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RestrictedGradingWarning)
                Q = make_quadric(m, n)
            assert Q.rho_x == _RHO_X_TABLES[m % 2, n % 2](m // 2, n // 2), (m, n)
            checked += 1
    assert checked == 896


# reference for _build_eta, which derives eta(x) and eta(y) from rho(x) and
# the models: the per-type tables written out, ((a, u) per side, d per side)
# by (m % 2, n % 2), for x -> (e^2 + xi c)^a zc^u y and y -> c^d y
_ETA_TABLES = {
    (1, 1): lambda p, q: (((q + 1, p - q), (p + 1, q - p)), (q, p)),
    (0, 1): lambda p, q: (((q + 1, p - q - 1), (p, q + 1 - p)), (q + 1, p)),
    (1, 0): lambda p, q: (((q, p + 1 - q), (p + 1, q - p - 1)), (q, p + 1)),
    (0, 0): lambda p, q: (((q, p - q), (p, q - p)), (q, p)),
}


def test_eta_of_x_and_y_match_the_hand_tables():
    checked = 0
    for m in range(14):
        for n in range(14):
            if m + n < 2 or (m, n) == (1, 1):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RestrictedGradingWarning)
                Q = make_quadric(m, n)
            eta_x, eta_y = _ETA_TABLES[m % 2, n % 2](m // 2, n // 2)
            for S, (a, u), d in zip(Q.eta_sides, eta_x, eta_y):
                if S.empty:
                    continue  # the zero ring: every image is 0
                E = add_elts(S.monomial(0, 0, 0, E2), S.monomial(0, 1, 0, XI_PT))
                assert S.x == S.mul(S.power(E, a), S.monomial(u, 0, 1)), (m, n, S.side)
                assert S.y == {(0, 0, d, 1): 1}, (m, n, S.side)
                checked += 1
    assert checked == 2 * 192 - 48  # 192 decks; m or n <= 1 leaves one side empty


def test_bb_is_its_own_swap():
    for p, q in SIZES:
        Q = _quadric_or_none(2 * p + 1, 2 * q + 1)
        if Q is not None:
            assert _fields(Q) == _swapped(_quadric_or_none(2 * q + 1, 2 * p + 1)), (p, q)


def test_dd_is_its_own_swap_up_to_normal_form():
    # the DD deck writes trans(-1)*z0*cw*x in divdiv_terms and top_terms,
    # where the swap gives trans(-1)*z1*cx*x: different monomials, equal classes
    for p, q in SIZES[1:]:
        Q = _quadric_or_none(2 * p, 2 * q)
        d, s = _fields(Q), _swapped(_quadric_or_none(2 * q, 2 * p))
        for key in ("corrw", "corrx", "xsq_terms"):
            assert d[key] == s[key], (p, q, key)
        for key in ("divdiv_terms", "top_terms"):
            assert d[key] != s[key]
            lhs, rhs = Q.normal_form(_terms_elt(Q, d[key])), Q.normal_form(_terms_elt(Q, s[key]))
            assert (lhs - rhs).is_zero(), (p, q, key)


def test_swapped_quadrics_have_swapped_ranks():
    # the rules favour one side (e2, div_s, t2, jhigh, ihigh), so Q^{m,n}
    # and Q^{n,m} reach their bases by different rewrite systems; the swap
    # must still carry the class counts of coset c onto those of coset -c.
    # It moves (a, b) by (2c, 2c), so Q is counted on a window wider by 6
    # and cut to the box after the swap
    window, wide = ((-10, 10), (-10, 10)), ((-16, 16), (-16, 16))
    classes = 0
    for m in range(12):
        for n in range(m, 12):
            if m + n < 2 or (m, n) == (1, 1):
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RestrictedGradingWarning)
                Q, S = make_quadric(m, n), make_quadric(n, m)
            for coset in range(-3, 4):
                swapped = {}
                for (a, b, k), v in _grading_counts(Q, coset, wide).items():
                    g = swap_grading(Grading(a, b, k))
                    if abs(g.a) <= 10 and abs(g.b) <= 10:
                        swapped[g.a, g.b, g.m] = swapped.get((g.a, g.b, g.m), 0) + v
                assert swapped == _grading_counts(S, -coset, window), (m, n, coset)
                classes += sum(swapped.values())
    # the classes of S in the box, as _scan_coset_monomials finds them
    assert classes == 3932


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


def _lattice_grading(pres, m):
    """The grading of m summed in the lattice, one term per exponent."""
    s, t, i, j, d, w0, w1 = m
    g = s * OMEGA0 + t * OMEGA1 + i * W + j * XW
    if d:
        g = g + d * pres.x_grading
    if w0:
        g = g + (w0 * pres.p) * W
    if w1:
        g = g + (w1 * pres.q) * XW
    return g


@pytest.mark.parametrize("sid", [
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "quadric:1,1", "quadric:0,3",
    "quadric:100000000000,3", "proj:2,3", "binate:2,1", "bu1", "point",
])
def test_mono_grading_is_the_lattice_sum(sid):
    """The closed form of mono_grading on random monomials with negative and
    large exponents; x only on decks with an x grading, and no divided
    flags on bu1 (no finite p, q) and point."""
    pres = make_space(sid)
    rng = random.Random(sid)
    divided = sid not in ("bu1", "point")

    def exponent():
        return rng.choice([rng.randint(-6, 6), rng.randint(-10**12, 10**12)])

    for _ in range(300):
        s, t, i, j = (exponent() for _ in range(4))
        d = rng.randint(-3, 3) if pres.x_grading is not None else 0
        w0, w1 = (rng.randint(-3, 3), rng.randint(-3, 3)) if divided else (0, 0)
        m = (s, t, i, j, d, w0, w1)
        assert pres.mono_grading(m) == _lattice_grading(pres, m), (sid, m)


def _slice_reference(pres, coset, window):
    """basis_slice by its definition: each scanned monomial's grading less
    coset * OMEGA1, kept in the window and sorted by (a, b); the C2/e entry
    is (line, 0) when visible, else the first visible point (line - b, b).
    On bu1 the stand-ins for p and q and the scan's s range all follow the
    window's reach, so the scan costs its cube; there the cell walk takes
    its place."""
    (a0, a1), (b0, b1) = window
    found = []
    reference = _scan_coset_monomials if pres.p is not None else _walk_coset_monomials
    for mono in reference(pres, coset, window):
        off = _lattice_grading(pres, mono) - coset * OMEGA1
        if a0 <= off.a <= a1 and b0 <= off.b <= b1:
            found.append((off, "C2/C2"))
    out = sorted(found, key=lambda r: (r[0].a, r[0].b))
    if pres.has_atoms:
        line = pres.levele.y_degree()
        candidates = [Grading(line - b, b) for b in range(b0, b1 + 1)]
        vis = [g for g in candidates if a0 <= g.a <= a1 and b0 <= g.b <= b1]
        if vis:
            out.append((Grading(line) if (a0 <= line <= a1 and b0 <= 0 <= b1) else vis[0], "C2/e"))
    return out


@pytest.mark.parametrize("sid", [
    "quadric:3,3", "quadric:5,7", "quadric:1,1", "binate:2,1", "bu1", "quadric:10,11", "proj:3,2",
])
def test_basis_slice_matches_its_definition(sid):
    """Random windows: one-point windows, windows that miss the free-orbit
    line, windows wholly in a negative quadrant, and wide ones, cosets -3..3."""
    pres = make_space(sid)
    rng = random.Random(sid)
    line = pres.levele.y_degree() if pres.has_atoms else 0

    def one_point():
        a, b = rng.randint(-20, 30), rng.randint(-20, 30)
        if rng.random() < 0.5 and pres.has_atoms:
            b = line - a    # on the line
        return (a, a), (b, b)

    def off_line():
        a0, b0 = rng.randint(-20, 20), rng.randint(-20, 20)
        a1, b1 = a0 + rng.randint(0, 12), b0 + rng.randint(0, 12)
        if rng.random() < 0.5:
            shift = line - a1 - b1 - rng.randint(1, 6)    # below the line
        else:
            shift = line - a0 - b0 + rng.randint(1, 6)    # above it
        return (a0 + shift, a1 + shift), (b0, b1)

    def negative():
        a1, b1 = -rng.randint(1, 10), -rng.randint(1, 10)
        return (a1 - rng.randint(0, 15), a1), (b1 - rng.randint(0, 15), b1)

    def wide():
        a0, b0 = rng.randint(-25, 10), rng.randint(-25, 10)
        return (a0, a0 + rng.randint(0, 35)), (b0, b0 + rng.randint(0, 35))

    for make in (one_point, off_line, negative, wide):
        for _ in range(6):
            window = make()
            for coset in range(-3, 4):
                assert basis_slice(pres, coset, window) == _slice_reference(pres, coset, window), (
                    sid, coset, window)


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
            window = ((-60, 60), (-60, 60))
            monos = _run_monomials(_enumerate_coset_monomials(P, coset, window))
            assert len(monos) == p + q, (p, q, coset)
            assert set(monos) == _window_cut(P, coset, window, _scan_coset_monomials(P, coset, window))


def test_quadric_per_coset_counts():
    from c2quadrics.catalog import _enumerate_coset_monomials

    for (m, n) in [(5, 3), (4, 3), (3, 4), (4, 4)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            Q = make_quadric(m, n)
        expect = 2 * (Q.p + Q.q)
        for coset in (-2, 0, 1, 3):
            window = ((-60, 60), (-60, 60))
            monos = _run_monomials(_enumerate_coset_monomials(Q, coset, window))
            assert len(monos) == expect, (m, n, coset)
            assert set(monos) == _window_cut(Q, coset, window, _scan_coset_monomials(Q, coset, window))


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


AGREEMENT_SPACES = [
    "quadric:%d,%d" % (m, n) for m in range(12) for n in range(12) if m + n >= 2
] + ["point", "bu1", "proj:0,2", "proj:2,0", "proj:2,1", "proj:2,3", "proj:3,3",
     "binate:0,0", "binate:0,2", "binate:2,1", "binate:3,3"]


@pytest.mark.parametrize("chunk", range(4))
def test_canonical_agrees_with_the_enumerated_cells(chunk):
    # every monomial that canonical accepts has s == 0 or t == 0, in a cell
    # (d, w0, w1) that _enumerate_coset_monomials visits; one representative
    # per threshold class: s, t, d, w0, w1 at -1..2, i and j at -1, 0, 1, 2
    # and p-1, p, p+1.  _sample_monomials skips the other cells unscanned
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        decks = [make_space(sid) for sid in AGREEMENT_SPACES[chunk::4]]
    small = range(-1, 3)
    for pres in decks:
        cells = {(0, 0, 0)}
        if pres.has_x:
            cells |= {(0, 1, 0), (0, 0, 1), (1, 0, 0)}
        ipl, jpl = ({-1, 0, 1, 2} | ({n - 1, n, n + 1} if n is not None else set())
                    for n in (pres.p, pres.q))
        canonical = pres.canonical
        accepted = 0
        for s, t, i, j, d, w0, w1 in itertools.product(small, small, ipl, jpl, small, small, small):
            if canonical((s, t, i, j, d, w0, w1)):
                assert (s == 0 or t == 0) and (d, w0, w1) in cells, (pres.name, (s, t, i, j, d, w0, w1))
                accepted += 1
        assert accepted or pres.free_orbit, pres.name


def _run_monomials(runs):
    """The monomials of runs (mono, n, a, b): mono * (cw*cx)^k, k < n."""
    return [(s, t, i + k, j + k, d, w0, w1) for (s, t, i, j, d, w0, w1), n, _, _ in runs for k in range(n)]


def _window_cut(pres, coset, window, monos):
    """The set of monos whose offset grading (basis_slice's) lies in the window."""
    (a0, a1), (b0, b1) = window
    out = set()
    for m in monos:
        g = pres.mono_grading(m)
        if a0 <= g.a + 2 * coset <= a1 and b0 <= g.b <= b1:
            out.add(m)
    return out


def _assert_runs_are(pres, coset, window, runs, reference):
    """runs hold each monomial of the reference cut to the window once."""
    monos = _run_monomials(runs)
    assert len(set(monos)) == len(monos) and all(n > 0 for _, n, _, _ in runs), (pres.name, coset, window)
    assert set(monos) == _window_cut(pres, coset, window, reference), (pres.name, coset, window)


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
                _assert_runs_are(pres, coset, window, got, _scan_coset_monomials(pres, coset, window))


def _walk_coset_monomials(pres, coset, window):
    """Reference: test both candidates (0, t0) and (-t0, 0) in every (i, j)
    cell, i in 0..p+1 and j in 0..q+1, one canonical test each."""
    from c2quadrics.grading import coset_index

    (a0, a1), (b0, b1) = window
    span = max(abs(a0), abs(a1), abs(b0), abs(b1)) + abs(coset)
    p = pres.p if pres.p is not None else span + 2
    q = pres.q if pres.q is not None else span + 2
    cells = [(0, 0, 0)]
    if pres.has_x:
        cells += [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
    out = []
    for d, w0, w1 in cells:
        shift = coset - (coset_index(pres.x_grading) if d else 0) - w0 * p + w1 * q
        for i in range(0, p + 2):
            for j in range(0, q + 2):
                t0 = shift - i + j
                for s in sorted({0, -t0}):
                    m = (s, t0 + s, i, j, d, w0, w1)
                    if pres.canonical(m):
                        out.append(m)
    return out


WALK_SPACES = (
    ["point", "bu1", "quadric:200,7", "quadric:7,200"]
    + ["proj:%d,%d" % (a, b) for a in range(9) for b in range(9) if a + b]
    + ["binate:%d,%d" % (a, b) for a in range(9) for b in range(9)]
)


@pytest.mark.parametrize("m", range(1, 16))
def test_enumeration_matches_the_cell_walk(m):
    """The threshold-class boxes give every monomial of the cell walk that
    lies in the window, once:
    quadric:m,n for n in 1..15 covers the four parity kinds and every
    merge of the places 0, 1, p-1, p; m == 1 adds the other decks."""
    from c2quadrics.catalog import _enumerate_coset_monomials

    windows = [((-3, 6), (-2, 5)), ((-40, 40), (-40, 40))]
    sids = ["quadric:%d,%d" % (m, n) for n in range(1, 16)]
    for sid in sids + (WALK_SPACES if m == 1 else []):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            pres = make_space(sid)
        for coset in range(-5, 6):
            for window in windows:
                got = _enumerate_coset_monomials(pres, coset, window)
                _assert_runs_are(pres, coset, window, got, _walk_coset_monomials(pres, coset, window))


def test_enumeration_is_exact_for_any_class_function():
    """The boxes rely only on canonical being a function of the class key
    that accepts s == 0 or t == 0: with an arbitrary such function in its
    place they still give the cell walk.  The decks' own test happens not
    to tell s = 1 from s >= 2, so only this one pins every band edge."""
    import random

    from c2quadrics.catalog import _enumerate_coset_monomials
    from c2quadrics.rewrite import _class_key

    window = ((-8, 8), (-8, 8))
    for sid in ["bu1", "proj:6,5", "quadric:9,9", "quadric:8,9", "quadric:9,8", "quadric:8,8", "quadric:5,4"]:
        pres = make_space(sid)
        for salt in range(6):
            picks = {}

            def canonical(m, pres=pres, picks=picks, salt=salt):
                key = _class_key(m, pres.p, pres.q)
                if key not in picks:
                    picks[key] = random.Random(repr((salt, key))).random() < 0.5
                return (m[0] == 0 or m[1] == 0) and picks[key]

            pres.canonical_fn = canonical
            for coset in range(-3, 4):
                got = _enumerate_coset_monomials(pres, coset, window)
                _assert_runs_are(pres, coset, window, got, _walk_coset_monomials(pres, coset, window))


@pytest.mark.parametrize("n", [None, *range(9), 50])
def test_pieces_are_the_class_key_runs(n):
    """_class_key places an exponent the same way on each piece, and
    differently on adjacent pieces, for i against p = n and j against q = n."""
    from c2quadrics.catalog import _pieces
    from c2quadrics.rewrite import _class_key

    for top in ((5, 40) if n is None else (n + 1, n + 4)):
        pieces = _pieces(n, top)
        assert pieces[0][0] == 0 and pieces[-1][1] == top
        assert all(hi + 1 == lo for (_, hi), (lo, _) in zip(pieces, pieces[1:]))
        for slot, key in ((2, lambda e: _class_key((0, 0, e, 0, 0, 0, 0), n, None)),
                          (3, lambda e: _class_key((0, 0, 0, e, 0, 0, 0), None, n))):
            places = [{key(e)[slot] for e in range(lo, hi + 1)} for lo, hi in pieces]
            assert all(len(p) == 1 for p in places), (n, top, slot, pieces)
            assert all(a != b for a, b in zip(places, places[1:])), (n, top, slot, pieces)


def test_enumeration_tests_do_not_grow_with_p(monkeypatch):
    """The canonical tests of one enumeration are a fixed number per coset:
    the same count at p, q = 20 as at 2000, for each parity kind."""
    from c2quadrics.catalog import _enumerate_coset_monomials
    from c2quadrics.rewrite import Presentation

    calls = []
    canonical = Presentation.canonical
    monkeypatch.setattr(Presentation, "canonical", lambda pres, mono: calls.append(mono) or canonical(pres, mono))

    def count(m, n):
        pres = make_space("quadric:%d,%d" % (m, n))
        calls.clear()
        _enumerate_coset_monomials(pres, 1, ((-30, 30), (-30, 30)))
        return len(calls)

    for m, n in [(41, 41), (40, 41), (41, 40), (40, 40)]:
        assert 0 < count(m, n) == count(m + 3960, n + 3960) <= 400, (m, n)


def test_enumeration_runs_do_not_grow_with_p():
    """The runs of one enumeration are cut to the window: for a fixed window
    and coset, quadric:40000,40001 gives no more runs than quadric:40,41,
    and as many runs and monomials as quadric:80000,80001; so on for proj,
    binate and each parity kind."""
    from c2quadrics.catalog import _enumerate_coset_monomials

    def size(pres, coset, window):
        runs = _enumerate_coset_monomials(pres, coset, window)
        return len(runs), sum(n for _, n, _, _ in runs)

    windows = [((-30, 30), (-30, 30)), ((-3, 17), (-11, 9)), ((0, 60), (0, 60))]
    for kind in ("proj", "binate", "quadric"):
        for m, n in ([(40, 41)] if kind != "quadric" else [(40, 41), (41, 40), (41, 41), (40, 40)]):
            small, big, bigger = (make_space("%s:%d,%d" % (kind, m + k, n + k)) for k in (0, 39960, 79960))
            for coset in (-3, -1, 0, 1, 2, 5):
                for window in windows:
                    runs, monos = size(big, coset, window)
                    assert runs <= size(small, coset, window)[0], (kind, m, n, coset, window)
                    assert (runs, monos) == size(bigger, coset, window), (kind, m, n, coset, window)


def test_a_small_window_of_a_huge_deck_keeps_its_rows():
    """basis_slice on quadric:64000,3 at the window 0:4,0:4, whose coset
    bases hold about 64,000 classes each: the rows, as before the cut."""
    pres = make_space("quadric:64000,3")
    rows = {c: [(g.a, g.b, g.m, label) for g, label in basis_slice(pres, c, ((0, 4), (0, 4)))] for c in (-1, 0, 1)}
    assert rows == {
        -1: [(0, 2, 0, "C2/C2"), (2, 2, 0, "C2/C2"), (4, 2, 0, "C2/C2")],
        0: [(0, 0, 0, "C2/C2"), (0, 2, 0, "C2/C2"), (2, 2, 0, "C2/C2"), (4, 2, 0, "C2/C2")],
        1: [(0, 0, 0, "C2/C2"), (2, 0, 0, "C2/C2"), (2, 2, 0, "C2/C2"), (4, 2, 0, "C2/C2")],
    }


@pytest.mark.parametrize("sid", ["bu1", "proj:3,2", "binate:2,1", "quadric:5,3", "quadric:4,4", "quadric:3,4",
                                 "quadric:4,3", "quadric:1,4", "quadric:0,5", "quadric:31,30"])
def test_run_gradings_are_mono_gradings(sid):
    """Each run (mono, n, a, b) holds n monomials mono * (cw*cx)^k whose
    gradings, by ``mono_grading``, are (a + 2k, b + 2k, coset), each inside
    the window."""
    from c2quadrics.catalog import _enumerate_coset_monomials

    pres = make_space(sid)
    rng = random.Random(sid)
    for _ in range(20):
        a0, b0 = rng.randint(-40, 30), rng.randint(-40, 30)
        window = (a0, a0 + rng.randint(0, 40)), (b0, b0 + rng.randint(0, 40))
        (a0, a1), (b0, b1) = window
        for coset in range(-4, 5):
            for (s, t, i, j, d, w0, w1), n, a, b in _enumerate_coset_monomials(pres, coset, window):
                for k in range(n):
                    g = pres.mono_grading((s, t, i + k, j + k, d, w0, w1))
                    assert (g.a, g.b, g.m) == (a + 2 * k, b + 2 * k, coset), (sid, coset, window)
                    assert a0 <= g.a + 2 * coset <= a1 and b0 <= g.b <= b1, (sid, coset, window)


def test_enumeration_tests_go_through_canonical(monkeypatch):
    """Every canonical test of the enumeration is a call of
    Presentation.canonical (the benchmark's tracer counts them there), and
    their number per coset is the same at p, q = 15 as at 500."""
    from c2quadrics.catalog import _enumerate_coset_monomials
    from c2quadrics.rewrite import Presentation

    calls = []
    canonical = Presentation.canonical
    monkeypatch.setattr(Presentation, "canonical", lambda pres, mono: calls.append(mono) or canonical(pres, mono))

    def counts(sid):
        pres = make_space(sid)
        out = []
        for coset in (-1, 0, 1):
            calls.clear()
            _enumerate_coset_monomials(pres, coset, ((-50, 50), (-50, 50)))
            out.append(len(calls))
        return out

    assert counts("quadric:31,30") == counts("quadric:1001,1000") == [330, 312, 316]
    assert counts("quadric:40,41") == counts("quadric:1000,1001") == [316, 312, 330]


@pytest.mark.parametrize("sid", [
    "quadric:11,11", "quadric:10,11", "quadric:11,10", "quadric:10,10",
    "quadric:3,3", "quadric:2,5", "quadric:1001,1000", "point", "bu1", "proj:3,2", "binate:2,1",
])
def test_stored_strips_give_the_fresh_enumeration(sid):
    """One presentation serves a seeded run of (coset, window) requests with
    repeats, from its stored strips after the first of each coset; every
    answer is the list, order included, that a fresh presentation gives,
    and holds the cell walk cut to the window.  On bu1 the stand-ins for p
    and q follow the reach, so a coset is asked at two reaches.  The walk
    of quadric:1001,1000 costs a second per coset, so there the fresh
    answer alone is compared (quadric:200,7 in the walk test has a large p)."""
    from c2quadrics.catalog import _enumerate_coset_monomials

    windows = [((-40, 40), (-40, 40)), ((-6, 30), (-3, 12)), ((0, 1), (-1, 0)), ((-12, 0), (0, 12))]
    rng = random.Random(sid)
    requests = [(rng.randint(-3, 3), rng.choice(windows)) for _ in range(24)]
    requests += requests[:6] + [(1, ((-9, 9), (-9, 9))), (1, ((-30, 3), (-2, 5))), (1, ((-9, 9), (-9, 9)))]
    pres = make_space(sid)
    walk = sid != "quadric:1001,1000"
    for coset, window in requests:
        got = _enumerate_coset_monomials(pres, coset, window)
        assert got == _enumerate_coset_monomials(make_space(sid), coset, window), (sid, coset, window)
        if walk:
            _assert_runs_are(pres, coset, window, got, _walk_coset_monomials(pres, coset, window))
        got.append(None)    # a caller's change to its list reaches no later answer


def _counting_canonical(monkeypatch):
    from c2quadrics.rewrite import Presentation

    calls = []
    canonical = Presentation.canonical
    monkeypatch.setattr(Presentation, "canonical", lambda pres, mono: calls.append(mono) or canonical(pres, mono))
    return calls


def test_a_stored_coset_makes_no_canonical_test(monkeypatch):
    """Once a finite deck has served a coset, enumerating that coset again
    makes no canonical test, whatever the window."""
    from c2quadrics.catalog import _enumerate_coset_monomials

    calls = _counting_canonical(monkeypatch)
    windows = [((-50, 50), (-50, 50)), ((0, 0), (0, 0)), ((-3, 6), (-2, 5)), ((-90, -80), (60, 70))]
    for sid in ["quadric:11,11", "quadric:10,11", "quadric:11,10", "quadric:10,10", "quadric:2,5",
                "proj:3,2", "binate:2,1", "point"]:
        pres = make_space(sid)
        for coset in (-1, 0, 1):
            calls.clear()
            _enumerate_coset_monomials(pres, coset, windows[0])
            assert calls or pres.free_orbit, (sid, coset)
            for window in windows:
                calls.clear()
                _enumerate_coset_monomials(pres, coset, window)
                assert not calls, (sid, coset, window)


def test_a_new_class_function_empties_the_stored_strips(monkeypatch):
    """Replacing canonical_fn by one that flips a single class (canonical
    on quadric:9,9, rejected after) makes the next enumeration test again,
    as many times as the first, and follow the new function."""
    from c2quadrics.catalog import _enumerate_coset_monomials
    from c2quadrics.rewrite import _class_key

    calls = _counting_canonical(monkeypatch)
    window = ((-20, 20), (-20, 20))
    pres = make_space("quadric:9,9")
    first = []
    for coset in (0, 1):
        calls.clear()
        before = _enumerate_coset_monomials(pres, coset, window)
        first.append(len(calls))
    # a run lies in one strip, so all its monomials share one class key
    flipped = _class_key(before[len(before) // 2][0], pres.p, pres.q)
    old = pres.canonical_fn
    pres.canonical_fn = lambda m: old(m) != (_class_key(m, pres.p, pres.q) == flipped)
    calls.clear()
    after = _enumerate_coset_monomials(pres, 1, window)
    assert len(calls) == first[1]
    _assert_runs_are(pres, 1, window, after, _walk_coset_monomials(pres, 1, window))
    assert after == [r for r in before if _class_key(r[0], pres.p, pres.q) != flipped] != before
    calls.clear()
    assert _enumerate_coset_monomials(pres, 1, window) == after and not calls
    calls.clear()
    _enumerate_coset_monomials(pres, 0, window)
    assert len(calls) == first[0]


@pytest.mark.parametrize("m", range(9))
def test_generators_and_divided_classes(m):
    """For every quadric:m,n with m, n <= 8: the generators divw and divx
    are their defining expressions, their eta images are the divided images
    the components are built from, and every generator name parses to the
    generator."""
    for n in range(9):
        if m + n < 2:
            continue
        P = make_space("quadric:%d,%d" % (m, n))
        # divw = cw^p - corrw and divx = cx^q - corrx
        divided = [
            P.gen(c) ** size - sum((P.monomial_elt(delta, coeff) for coeff, delta in corr), P.zero())
            for c, size, corr in (("cw", P.p, P.corrw), ("cx", P.q, P.corrx))
        ]
        for side, name in enumerate(("divw", "divx")):
            g = P.gen(name)
            assert g == divided[side]
            for S, img in zip(P.eta_sides, P.eta(g)):
                assert img == _divided_image(P, S, P.eta_sides[side]), (P.name, name, S.side)
        for name in GENERATORS:
            assert parse_expression(P, name) == P.gen(name)


# every deck kind: the quadrics with m, n <= 9 (empty components, the free
# orbit and the z0/z1-invertible decks among them), proj, binate, bu1, point
DIVIDED_SPACES = (
    ["quadric:%d,%d" % (m, n) for m in range(10) for n in range(10) if m + n >= 2]
    + ["proj:2,3", "proj:3,2", "proj:0,3", "proj:2,0", "proj:1,1"]
    + ["binate:2,1", "binate:2,2", "binate:0,2", "binate:0,0", "bu1", "point"]
)


def _divided_spaces():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return [make_space(sid) for sid in DIVIDED_SPACES]


def test_divided_class_data_filled_on_every_deck(monkeypatch):
    """make_space leaves each side's divided-class data unset; one fill sets
    both sides'.  On every deck with finite p, q the fill asserts that the
    own divided class and the x-core restrict to transfers (two witnesses
    per side), and each witness's transfer is that image; on bu1 and the
    point, which have no divided classes, the data are zero."""
    from c2quadrics import component

    seen, real = [], component._witness

    def witness(pres, S, img, what):
        seen.append(what)
        return real(pres, S, img, what)

    monkeypatch.setattr(component, "_witness", witness)
    for P in _divided_spaces():
        sides = P.eta_sides
        assert all(S.div_other is S.w_div is S.w_xcore is None for S in sides), P.name
        seen.clear()
        component._fill_divided(P)
        if P.name in ("bu1", "point"):
            assert not seen
            assert all(S.div_other == S.w_div == S.w_xcore == {} for S in sides)
            continue
        assert seen == ["divided class", "x-core"] * 2, P.name
        for S in sides:
            other = sides[1 - S.side]
            assert S.div_other == _divided_image(P, S, other), (P.name, S.side)
            assert S.tau(S.w_div) == _divided_image(P, S, S), (P.name, S.side)
            core = [0] * 7
            core[S.c], core[4] = S.size, int(P.has_x)
            xcore = component._eta_direct_mono(P, S, tuple(core), ONE)
            assert S.tau(S.w_xcore) == xcore, (P.name, S.side)


def test_make_space_and_an_undivided_atlas_restrict_no_divided_class(monkeypatch):
    """make_space builds no divided image, and neither does an atlas of
    decks whose generators have no divided normal form: its eta table
    restricts z0, z1, cw, cx and x only."""
    from c2quadrics import component
    from c2quadrics.atlas import atlas_document

    def divided_image(pres, S, T):
        raise AssertionError("divided image built on %s" % pres.name)

    monkeypatch.setattr(component, "_divided_image", divided_image)
    _divided_spaces()
    spaces = ["quadric:3,3", "quadric:4,3", "quadric:5,4", "quadric:6,6", "proj:2,3",
              "binate:2,2", "bu1", "point"]
    doc = atlas_document(spaces)
    tables = {s["space"]: s["presentation"]["hom_tables"] for s in doc["spaces"]}
    assert all("eta0" in tables[sid] for sid in spaces if sid != "point")


def test_unknown_generator_raises():
    with pytest.raises(ValueError):
        make_space("quadric:3,3").gen("cz")


# every deck kind with a cw chain: the four quadric parities, p or q <= 2,
# proj:p,q with p or q in {0, 1}, binate, and the z0/z1-invertible decks
JUMP_SPACES = [
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "quadric:2,2",
    "quadric:3,2", "quadric:6,5", "quadric:9,7", "quadric:2,1", "quadric:1,3",
    "proj:1,3", "proj:3,1", "proj:0,2", "binate:2,1", "binate:1,2",
]


def _outcome(pres, x):
    """The exact normal form of x, or the error it raises."""
    try:
        nf = pres.normal_form(x)
    except (NotAClassError, NonTerminatingError) as exc:
        return type(exc).__name__, str(exc)
    return {m: v.c for m, v in nf.c2.items()}, nf.atoms


@pytest.mark.parametrize("sid", JUMP_SPACES)
def test_chain_jumps_match_single_steps(sid):
    """w0_cw, w1_cx, ihigh, t2 and jhigh fire their chains in closed form,
    and normal_form drops the mixed terms that vanish; with every chain
    back at one step a firing (``one_step``), every normal form is the
    same.  t reaches 8, so that t2 jumps by K = 2 and 4."""
    jump = make_space(sid)
    step = one_step(make_space(sid))
    chains = ("w0_cw", "w1_cx", "ihigh", "t2", "jhigh")
    assert [name for name, _, _ in step.rules if name in chains] == [
        name for name, _, _ in jump.rules if name in chains
    ]
    p, q = jump.p, jump.q
    w = (0, 1) if jump.has_x else (0,)
    box = [
        (s, t, i, j, d, w0, w1)
        for s in (-2, -1, 0, 1) for t in range(-1, 9)
        for i in range(4 * p + 9) for j in range(4 * q + 9)
        for d in (0, 1) if jump.has_x or d == 0
        for w0 in w for w1 in w
    ]
    rng = random.Random(sid)
    for _ in range(1000):
        c2 = {m: rng.choice(POINT_COEFFS) for m in rng.sample(box, rng.choice((1, 2)))}
        x = RingElement(jump, "top", c2=c2)
        assert _outcome(jump, x) == _outcome(step, RingElement(step, "top", c2=c2)), (sid, c2)


def _one_term_steps(pres):
    """pres with its one-term powers back at one step a firing: xi_mix,
    z0_pos and z1_pos fire ``_DIV_S``, and x_power the deck's x^2."""
    one = {name: _rhs(_DIV_S) for name in ("xi_mix", "z0_pos", "z1_pos")}
    if pres.has_x:
        one["x_power"] = _rhs([(c, mono_mul(delta, (0, 0, 0, 0, -2, 0, 0))) for c, delta in pres.xsq_terms])
    pres.rules = [(name, guard, one.get(name, rhs)) for name, guard, rhs in pres.rules]
    return pres


@pytest.mark.parametrize("sid", JUMP_SPACES + [
    "bu1", "quadric:1,4", "quadric:4,1", "quadric:0,5", "quadric:6,3", "quadric:3,6",
    "quadric:6,6", "quadric:2,5",
])
def test_one_term_powers_match_single_steps(sid):
    """xi_mix, z0_pos, z1_pos and x_power fire their one-term chains whole
    (``catalog._powers``); with each of them back at one step a firing,
    every normal form and every error is the same."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        power, step = make_space(sid), _one_term_steps(make_space(sid))
    p, q = (4, 4) if power.p is None else (power.p, power.q)
    w = (0, 1) if power.has_x else (0,)
    box = [
        (s, t, i, j, d, w0, w1)
        for s in range(-2, 9) for t in range(-2, 9)
        for i in range(2 * p + 4) for j in range(2 * q + 4)
        for d in (range(13) if power.has_x else (0,))
        for w0 in w for w1 in w
    ]
    rng = random.Random(sid)
    for _ in range(250):
        c2 = {m: rng.choice(POINT_COEFFS) for m in rng.sample(box, rng.choice((1, 2)))}
        got = _outcome(power, RingElement(power, "top", c2=c2))
        want = _outcome(step, RingElement(step, "top", c2=c2))
        # an error names the first term met that is not a class, and of two
        # such terms a whole chain may meet the other first
        if got[0] == want[0] == "NotAClassError":
            continue
        assert got == want, (sid, c2)


def test_powers_refuse_a_step_they_cannot_raise():
    # a one-term step needs a coefficient e^a xi^b, a two-term one 2ab = 0
    mono = (0, 0, 0, 0, 1, 0, 0)
    for step in ([(ONE + ONE, mono)], [(nk(0), mono)], [(ONE, mono), (ONE, mono)], []):
        with pytest.raises(ValueError):
            _powers(step)
    assert _powers([(E2, mono)])(5) == (((((pos(10, 0), 1),), (0, 0, 0, 0, 5, 0, 0)),), ())


# the box of ROADMAP's chain survey: its decks, and on each the inputs g^N,
# h*g^N (h != g) and g^N*h^N (g before h) for N = 2^20 - 1 over the
# generators z0, z1, cw, cx and, where the deck has x, x, divw and divx
BOX_DECKS = ["bu1", "proj:2,3", "proj:3,2", "binate:2,1"] + ["quadric:" + s for s in (
    "5,3", "4,3", "3,4", "4,4", "3,3", "6,3", "3,6", "6,6", "1,4", "4,1", "0,5", "1,1", "13,3", "2,5")]

# the inputs of the box that run past a budget of 2,000 steps, by chain, as
# rows (decks, inputs) with N for 2^20 - 1; the list only shrinks
BOX_OPEN = {
    # w0_square lowers divw one step a firing; divx is the swap (w1_square)
    "divw": [
        ("quadric:5,3 quadric:3,3 quadric:13,3",
         "divw^N z0*divw^N z1*divw^N cw*divw^N cx*divw^N x*divw^N"
         " z0^N*divw^N z1^N*divw^N cw^N*divw^N cx^N*divw^N"),
        ("quadric:4,3 quadric:3,4 quadric:4,4 quadric:1,4 quadric:4,1 quadric:0,5",
         "divw^N z0*divw^N z1*divw^N cw*divw^N cx*divw^N x*divw^N divx*divw^N"
         " z0^N*divw^N z1^N*divw^N cw^N*divw^N cx^N*divw^N"),
        ("quadric:6,3 quadric:3,6 quadric:6,6 quadric:2,5",
         "divw^N z0*divw^N z1*divw^N cw*divw^N cx*divw^N x*divw^N divx*divw^N"
         " z0^N*divw^N z1^N*divw^N cw^N*divw^N cx^N*divw^N x^N*divw^N"),
    ],
    "divx": [
        ("quadric:5,3 quadric:3,3 quadric:13,3",
         "divx^N z0*divx^N z1*divx^N cw*divx^N cx*divx^N x*divx^N"
         " z0^N*divx^N z1^N*divx^N cw^N*divx^N cx^N*divx^N"),
        ("quadric:4,3 quadric:3,4 quadric:4,4 quadric:1,4 quadric:4,1 quadric:0,5",
         "divx^N z0*divx^N z1*divx^N cw*divx^N cx*divx^N x*divx^N divw*divx^N"
         " z0^N*divx^N z1^N*divx^N cw^N*divx^N cx^N*divx^N"),
        ("quadric:6,3 quadric:3,6 quadric:6,6 quadric:2,5",
         "divx^N z0*divx^N z1*divx^N cw*divx^N cx*divx^N x*divx^N divw*divx^N"
         " z0^N*divx^N z1^N*divx^N cw^N*divx^N cx^N*divx^N x^N*divx^N"),
    ],
    # jhigh's e^2 branch keeps i and lowers cx one step a firing
    "jhigh": [
        ("proj:2,3 proj:3,2 binate:2,1", "cx^N z0*cx^N z1*cx^N cw*cx^N z0^N*cx^N"),
        ("quadric:5,3 quadric:6,3 quadric:6,6 quadric:13,3", "x*cx^N"),
        ("quadric:4,3 quadric:4,4", "cw*cx^N x*cx^N"),
    ],
    # a zeta invertible: cw_elim with z1_pos and top (cx_elim and z0_pos
    # on the swap)
    "cw_elim": [
        ("quadric:1,4", "cw^N z0*cw^N z1*cw^N cx*cw^N x*cw^N divw*cw^N z0^N*cw^N z1^N*cw^N"),
        ("quadric:0,5", "cw^N z0*cw^N z1*cw^N cx*cw^N x*cw^N divw*cw^N divx*cw^N z0^N*cw^N z1^N*cw^N"),
        ("quadric:4,1", "cx^N z0*cx^N z1*cx^N cw*cx^N x*cx^N divx*cx^N z0^N*cx^N z1^N*cx^N"),
    ],
    # the e2/xi_mix cycle (ROADMAP item 23)
    "e2/xi_mix": [
        ("bu1 proj:2,3 proj:3,2 binate:2,1 quadric:5,3 quadric:4,3 quadric:3,4 quadric:4,4"
         " quadric:3,3 quadric:6,3 quadric:3,6 quadric:6,6 quadric:13,3 quadric:2,5", "z0^N*cw^N"),
    ],
}


def test_chain_box_answers_but_for_the_open_chains():
    """Every input of the box answers or is not a class, at a budget of
    2,000 steps, except the listed inputs of the open chains, which run
    past the budget; a listed input that answers fails too."""
    from c2quadrics.rewrite import Presentation

    assert Presentation.max_steps == 200000
    n = 2 ** 20 - 1
    listed = {
        (deck, text.replace("N", str(n)))
        for rows in BOX_OPEN.values() for decks, texts in rows
        for deck in decks.split() for text in texts.split()
    }
    assert sum(len(decks.split()) * len(texts.split()) for rows in BOX_OPEN.values() for decks, texts in rows) == len(listed)
    over, count = set(), 0
    for sid in BOX_DECKS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            pres = make_space(sid)
        pres.max_steps = 2000
        gens = GENERATORS if pres.has_x else GENERATORS[:4]
        texts = ["%s^%d" % (g, n) for g in gens]
        texts += ["%s*%s^%d" % (h, g, n) for g in gens for h in gens if h != g]
        texts += ["%s^%d*%s^%d" % (g, n, h, n) for k, g in enumerate(gens) for h in gens[k + 1:]]
        for text in texts:
            count += 1
            try:
                parse_expression(pres, text)
            except NotAClassError:
                pass
            except NonTerminatingError:
                over.add((sid, text))
    assert count == 1068
    assert sorted(over - listed) == []
    assert sorted(listed - over) == []


def _region_representatives(pres):
    """Members of every threshold class of the region of ``mixed_dies``:
    s, t in {-7, -1, 0, 1, 7}, i and j at the places of the class key and 3
    above them, d in 0..3, and one divided flag."""
    p, q = pres.p, pres.q
    ii = sorted({c + k for c in (0, 1, p - 1, p) for k in (0, 3) if c + k >= 0})
    jj = sorted({c + k for c in (0, 1, q - 1, q) for k in (0, 3) if c + k >= 0})
    st = (-7, -1, 0, 1, 7)
    return [
        m
        for s, t, i, j, d, w in itertools.product(st, st, ii, jj, range(4), ((1, 0), (0, 1)))
        for m in [(s, t, i, j, d) + w]
        if pres.mixed_dies(m)
    ]


def test_mixed_terms_die_where_the_rules_kill_them():
    """e^a xi^b * M reduces to 0 with the drop switched off, for every
    monomial M of the region of ``mixed_dies`` (a representative of each
    class) on every quadric with 2 <= m, n <= 9; the region is None on the
    decks where a zeta is invertible (m or n = 1) and on the other kinds."""
    mixed = [PointElt.monomial(pos(1, 1)), PointElt.monomial(pos(2, 3))]
    for m in range(2, 10):
        for n in range(2, 10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RestrictedGradingWarning)
                Q = make_quadric(m, n)
            monos = _region_representatives(Q)
            assert monos, Q.name
            Q.mixed_dies = None
            for k, mono in enumerate(monos):
                x = RingElement(Q, "top", c2={mono: mixed[k % 2]})
                assert Q.normal_form(x).is_zero(), (Q.name, mono)
    for sid in ["quadric:1,%d" % n for n in range(2, 8)] + [
        "quadric:%d,1" % m for m in range(2, 8)
    ] + ["quadric:1,1", "proj:2,3", "binate:2,1", "bu1", "point"]:
        assert make_space(sid).mixed_dies is None, sid
