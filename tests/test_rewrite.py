"""Engine-level tests: normal forms, divided classes, the probe."""

import hashlib
import itertools
import random
import time
import tracemalloc
import warnings

import pytest

from c2quadrics.catalog import (
    RestrictedGradingWarning,
    make_binate,
    make_bu1,
    make_point,
    make_projective,
    make_space,
)
from c2quadrics.coefficients import (
    E_PT,
    G,
    KAPPA_A,
    KAPPA_PT,
    ONE,
    XI_PT,
    BurnsideElt,
    PointElt,
    pos,
    trans,
)
from c2quadrics.expressions import parse_expression
from c2quadrics.grading import OMEGA0, OMEGA1, W, XW, Grading
from c2quadrics.rewrite import (
    GENERATORS,
    MONO_ONE,
    NonTerminatingError,
    NotAClassError,
    RingElement,
    _class_key,
    _mono_product,
    _places,
    _below,
    _sample_monomials,
    _shuffle_steps,
    _shuffled,
    confluence_probe,
    gen_mono,
    mono_mul,
)
from c2quadrics.solver import POINT_COEFFS
from conftest import loop_power, negated_rhs, one_step, rhs_at

E2 = PointElt.monomial(pos(2, 0))
TRANS_M1 = PointElt.monomial(trans(-1))


def test_bu1_zeta_relation():
    B = make_bu1()
    assert B.gen("z0") * B.gen("z1") == B.scalar(1) * XI_PT


def test_bu1_euler_relation():
    B = make_bu1()
    lhs = B.scalar(1) * E2
    rhs = B.gen("z0") * B.gen("cw") - (B.gen("z1") * B.gen("cx")) * (ONE - KAPPA_PT)
    assert lhs == rhs


def test_bu1_transfer_relation():
    B = make_bu1()
    lhs = (B.gen("z0") * B.gen("cw")) * TRANS_M1
    rhs = (B.gen("z1") * B.gen("cx")) * TRANS_M1
    assert (lhs - rhs).is_zero()


def test_trivial_normal_form():
    B = make_bu1()
    m = B.monomial_elt((0, 1, 2, 1, 0, 0, 0))
    assert B.mul(B.scalar(1), m) == m
    assert (m * 0).is_zero()


def test_proj_top_relation():
    for p, q in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        P = make_projective(p, q)
        assert ((P.gen("cw") ** p) * (P.gen("cx") ** q)).is_zero()


def test_proj_divided_contract():
    P = make_projective(2, 1)
    divided = P.monomial_elt((-1, 0, 2, 0, 0, 0, 0))  # z0^{-1} cw^2
    assert P.gen("z0") * divided == P.gen("cw") ** 2
    # z1^{-k} side
    divided = P.monomial_elt((0, -2, 0, 1, 0, 0, 0))
    assert P.gen("z1") * divided == P.monomial_elt((0, -1, 0, 1, 0, 0, 0))


def test_proj_divided_top_vanishes():
    P = make_projective(2, 2)
    assert P.monomial_elt((-1, 0, 2, 2, 0, 0, 0)).is_zero()


def test_mixed_zeta_normalization():
    P = make_projective(2, 1)
    # z1 * (z0-divided class) = xi * (one step more divided)
    lhs = P.gen("z1") * P.monomial_elt((-1, 0, 2, 0, 0, 0, 0))
    rhs = P.monomial_elt((-2, 0, 2, 0, 0, 0, 0)) * XI_PT
    assert lhs == rhs


def test_binate_top_is_transfer():
    S = make_binate(2, 1)
    lhs = (S.gen("cw") ** 2) * S.gen("cx")
    assert lhs == S.tau_atom(2, 1)


def test_binate_mackey_relations():
    S = make_binate(1, 1)
    y = RingElement(S, "e", e={(0, 0, 0, 1): 1})
    ty = S.t_act(y)
    # rho tau = 1 + t at level e
    assert S.rho(S.tau_of_levele(y.e)) == y + ty
    # tau(t y) = tau(y)
    assert S.tau_of_levele(ty.e) == S.tau_of_levele(y.e)


def test_gradings_of_normal_forms():
    P = make_projective(2, 1)
    x = P.monomial_elt((1, 0, 1, 0, 0, 0, 0))  # z0*cw, rewrites
    assert x.grading() == OMEGA0 + W
    assert P.mono_grading((0, 0, 1, 1, 0, 0, 0)) == W + XW


def test_point_coefficient_on_either_side():
    Q = make_space("quadric:3,3")
    mixed = Q.gen("cw") * KAPPA_PT + Q.gen("x") * 3 + Q.gen("divw")
    for x in (Q.gen("cw"), Q.gen("cx"), Q.gen("x"), Q.gen("z0"), mixed):
        assert E_PT * x == x * E_PT
        assert E_PT + x == x + E_PT
        assert E_PT - x == -(x - E_PT)
    assert Q.coeff_elt(E_PT) == E_PT and E_PT == Q.coeff_elt(E_PT)
    assert Q.gen("cw") != E_PT
    with pytest.raises(TypeError):
        E_PT + "cw"
    with pytest.raises(TypeError):
        E_PT * "cw"


def test_burnside_and_foreign_operands_on_either_side():
    # a Burnside element acts on a ring element as its image under
    # from_burnside, on either side; any other type is a TypeError
    Q = make_space("quadric:3,3")
    mixed = Q.gen("cw") * KAPPA_PT + Q.gen("x") * 3 + Q.gen("divw")
    for b in (G, KAPPA_A, BurnsideElt(-1, 2), BurnsideElt(0, 0)):
        bp = PointElt.from_burnside(b)
        for x in (Q.gen("cw"), Q.gen("x"), mixed):
            assert x * b == x * bp and b * x == bp * x
            assert x + b == x + bp and b + x == bp + x
            assert x - b == x - bp and b - x == bp - x
            assert x + b - b == x
    assert 1 - G == BurnsideElt(1, -1) and 3 - KAPPA_A == BurnsideElt(1, 1)
    x = Q.gen("cw")
    for op in (
        lambda: x * 1.5, lambda: 1.5 * x, lambda: x + "a", lambda: "a" + x,
        lambda: x - "a", lambda: "a" - x, lambda: x * [1], lambda: "a" - G,
    ):
        with pytest.raises(TypeError):
            op()


def test_step_budget():
    B = make_bu1()
    B.max_steps = 1
    with pytest.raises(NonTerminatingError):
        B.normal_form(RingElement(B, "top", c2={(1, 1, 1, 1, 0, 0, 0): ONE}))


def test_step_budget_message_past_the_digit_limit():
    # the message names the input even when its coefficients cannot be
    # printed under the int-to-str digit limit
    B = make_bu1()
    B.max_steps = 1
    huge = RingElement(B, "top", c2={(1, 1, 1, 1, 0, 0, 0): 7 ** 20000})
    with pytest.raises(NonTerminatingError, match="step budget exceeded in bu1"):
        B.normal_form(huge)


def test_not_a_class():
    import c2quadrics

    assert "NotAClassError" in c2quadrics.__all__
    assert issubclass(NotAClassError, ValueError)
    for pres, mono in [
        (make_bu1(), (-1, 0, 0, 0, 0, 0, 0)),
        (make_projective(2, 1), (-1, 0, 1, 0, 0, 0, 0)),
    ]:
        with pytest.raises(NotAClassError):
            pres.monomial_elt(mono)


# the public names of the package, submodules aside: a change to the API
# shows up here
PUBLIC_NAMES = [
    "BurnsideElt", "ExprError", "Grading", "InconsistentError", "InhomogeneousError",
    "InvalidSizeError", "NonTerminatingError", "NoneqQuadricRing", "NotAClassError", "PointElt",
    "Presentation", "RestrictedGradingWarning", "RingElement", "audit_full", "basis_slice",
    "confluence_probe", "coset_index", "divisibility_witness", "fixed_degrees", "grading",
    "make_binate", "make_bu1", "make_nonequiv_quadric", "make_point", "make_projective",
    "make_quadric", "make_space", "parse_expression", "parse_space", "point_mul", "point_phi",
    "point_rho", "point_tau", "rank_table", "solve_undetermined", "swap_element", "swap_grading",
    "swap_involution", "transfer_witness", "underlying_degree", "verify_relations",
]


def test_public_names():
    import c2quadrics

    # the whole list: ``from c2quadrics import *`` binds no submodule
    assert c2quadrics.__all__ == PUBLIC_NAMES


def test_transfer_fallback_reentry_is_not_a_class():
    # on the point ring the transfer-witness fallback of cx^2 leads to
    # z0^4*cw^2, whose own fallback leads back to itself
    pt = make_point()
    with pytest.raises(NotAClassError, match="no rule rewrites"):
        pt.normal_form(RingElement(pt, "top", c2={(0, 0, 0, 2, 0, 0, 0): TRANS_M1}))


def test_probe_records_unmatched_monomials():
    # with a rule disabled, some products match no rule: the probe reports
    # them as mismatches instead of raising
    P = make_projective(2, 1)
    P.rules = [r for r in P.rules if r[0] != "e2"]
    rep = confluence_probe(P, samples=50, seed=7)
    assert any("no rule rewrites" in m.get("error", "") for m in rep["mismatches"])


def test_probe_point_and_empty():
    pt = make_point()
    rep = confluence_probe(pt, samples=100, seed=1)
    assert rep["mismatches"] == []


def test_probe_decks():
    for mk, n in [(lambda: make_projective(2, 1), 200), (make_bu1, 200)]:
        rep = confluence_probe(mk(), samples=n, seed=7)
        assert rep["mismatches"] == [], rep["mismatches"][:2]


def test_atom_frobenius():
    S = make_binate(2, 1)
    # z0^q z1^p tau(y) equals tau(iota^{2q} zeta^{p-q} y)
    lhs = (S.gen("z0") ** 1) * (S.gen("z1") ** 2) * S.tau_atom(0, 0)
    assert lhs == S.tau_atom(2, 1)


def test_atom_products_vanish():
    S = make_binate(1, 1)
    # tau(y) tau(y) = tau(y (1+t) y) = 0 because all y-products vanish
    assert (S.tau_atom(0, 0) * S.tau_atom(0, 0)).is_zero()


def test_concurrent_reduction_deterministic():
    # presentations are immutable after construction and reduction is pure:
    # reducing the same expressions from many threads gives identical
    # normal forms, independent of schedule
    from concurrent.futures import ThreadPoolExecutor

    from c2quadrics.catalog import make_quadric

    Q = make_quadric(5, 3)
    exprs = [
        (0, 0, 2, 1, 0, 0, 0),
        (1, 0, 1, 1, 1, 0, 0),
        (0, 2, 1, 1, 0, 0, 0),
        (-1, 0, 0, 1, 0, 1, 0),
    ]
    expected = [str(Q.monomial_elt(m)) for m in exprs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        futs = [pool.submit(lambda m=m: str(Q.monomial_elt(m))) for m in exprs * 16]
    got = [f.result() for f in futs]
    assert got == expected * 16


# sha256 per space of the rule names and of exact normal forms (see
# _golden_digest); a rewrite of the rule set must leave every entry as is
GOLDEN = {
    "point": "11d7da38982e9bd44e7da216ba3825f0255f5a0ae531d844aba43461cd52f0b6",
    "bu1": "d90fce752d2a0a9c90af161faf54d8ecf189cecc43297b27372a3b4e863b13ca",
    "proj:2,1": "f562181a394f89d33fd6add859df19c8fcc788a2f6aed4e6c6f17e7d0e201571",
    "proj:0,3": "cf4c130513336a39dac8a15246848949b59449e3877284dceca55bcc816a0cac",
    "binate:2,1": "41c080d33f43a54bdbb9df6bebcbaad54ba0cf3a613ce0b715ed061ab0bc816e",
    "binate:0,2": "5db6fce442e10a812f3b6f9421dacc21f0b1bfb215364fa38490d2ccb808dc28",
    "quadric:1,1": "92e3b741e31a818ce053233946dc0097e0ec3c23cf42178273c059725ca44f31",
    "quadric:3,3": "20ef760f5ef40f6ef1798397dcddca910879670935d767813a1408fcdeadda75",
    "quadric:5,3": "9781035d6284939344a86fd88519d329a04773989153927fee28b260b96d75d4",
    "quadric:4,3": "d8cfceee0551df3d74c7253629c3238bf726b765762ab3be0ec457948a42b345",
    "quadric:3,4": "e1cf1712682f1fa0322fd903e19a9ff45ab39a14ae3ac0a02f3c605838014d2d",
    "quadric:4,4": "a9f6b2b1504d070f54963e5db2229343cdafa037132c9eb8bfb1deceea405618",
    "quadric:6,5": "ff75dca6580738d337190e94898fbb535848b92068c12271a58faec7a57754ef",
    "quadric:1,5": "21342328eb278585ff147d5fbdf7a48a65c086197a70b023d7cc90bf0d52ad58",
    "quadric:5,1": "8d4d8a99dd0ce04fbdc71edb800256f706a12b99d229dd122b6523f77ceeead8",
    "quadric:0,4": "d88584d544dd16870fcc286b1a154a098600eaff12175c51e5da36a6792663e5",
    "quadric:2,3": "5bcdaf7c18558267cd61beee74c839b6801e5f4840837dd53d843d340ab2e421",
    "quadric:3,2": "079db40a13d9698b2fe69b4e5f4e414ef5b2b1706d0b5478cb108a923c67781b",
    "quadric:2,2": "85253a99d4e3d1bfb00660d5235e87ab34c822061f29d0f0cf41c0aad236841a",
    "quadric:2,5": "6af0cc231950e68ba6d5ddd34dad2ddcf3a0b8ad3210cd6fb949145a19ee5d64",
    "quadric:6,6": "6fff2b70c0db6fac1e82bdeef370c87e3008f9a5ef01105522c1e465f4754c92",
    "quadric:7,4": "058f6b162cd420c6e0c1303ac9fab0e2f97176fe0d63e13f3231f593bd999bc2",
}


def _canonical_text(x):
    c2 = sorted((m, sorted(v.c.items(), key=repr)) for m, v in x.c2.items())
    return repr((x.level, c2, sorted(x.atoms.items()), sorted(x.e.items())))


def _golden_digest(space, products=60, prepare=None, out=None):
    """Hash the rule names and normal forms of seeded products: pairs from
    _sample_monomials with a POINT_COEFFS coefficient, every product of at
    most two generators, and (where there is an x) each sample times divw
    and times divx.  ``prepare`` is applied to the presentation first, and
    a list passed as ``out`` receives every normal form."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        pres = make_space(space)
    if prepare is not None:
        prepare(pres)
    rng = random.Random(space)
    h = hashlib.sha256(repr([name for name, _, _ in pres.rules]).encode())

    def add(x):
        h.update(_canonical_text(x).encode())
        if out is not None:
            out.append(x)

    def reduce_raw(mono):
        return pres.normal_form(RingElement(pres, "top", c2={mono: rng.choice(POINT_COEFFS)}))

    pool = _sample_monomials(pres)
    for _ in range(products if pool else 0):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        add(pres.mul(pres.monomial_elt(m1, rng.choice(POINT_COEFFS)), pres.monomial_elt(m2)))
    units = [MONO_ONE]
    if pres.name != "point":
        units += [tuple(int(k == n) for k in range(7)) for n in range(7 if pres.has_x else 4)]
    for a in units:
        for b in units:
            add(reduce_raw(mono_mul(a, b)))
    if pres.has_x:
        for m in pool:
            for div in ((0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 1)):
                add(reduce_raw(mono_mul(m, div)))
    return h.hexdigest()


@pytest.mark.parametrize("space", sorted(GOLDEN))
def test_golden_normal_forms(space):
    assert _golden_digest(space) == GOLDEN[space]


def _exact(x):
    """The terms of x in dict order, atoms included."""
    return (x.level, list(x.c2.items()), list(x.atoms.items()), list(x.e.items()))


@pytest.mark.parametrize("space", sorted(GOLDEN))
def test_callable_rules_match_linear_rules_as_data(space):
    # a rule given as a function that returns its own data reduces term for
    # term, in the same order, like the fixed rule: with every rule behind
    # such a function the golden normal forms come out the same
    data, called, fired, fixed = [], [], [], []

    def wrap(pres):
        fixed.extend(rhs for _, _, rhs in pres.rules if not callable(rhs))
        for k, (name, guard, rhs) in enumerate(pres.rules):
            pres.rules[k] = (name, guard, lambda m, _r=rhs: fired.append(m) or rhs_at(_r, m))

    assert _golden_digest(space, out=data) == GOLDEN[space]
    assert _golden_digest(space, prepare=wrap, out=called) == GOLDEN[space]
    # the point has no rules
    assert fired or not fixed
    assert [_exact(x) for x in called] == [_exact(x) for x in data]


# sha256 per space of the exact normal forms of every product of two
# elements of _atom_elements: c2 x atom, atom x c2, atom x atom and the
# mixed elements, pinned before the arithmetic under mul was rebuilt
ATOM_GOLDEN = {
    "binate:2,1": "51a0dbaeadaa634b36f6c257c87de3178c4593631dca633da95f4ed5b1fd9c98",
    "quadric:3,3": "9a871501fbd5ecbccb13345ebb5de03dbc06f1fdb3a0d9b0d5f6695c72599acf",
    "quadric:5,3": "f273ccc9fae566825875521db425b5bdaa95ee3cddeede03be91db8554b67361",
}


def _atom_elements(pres, rng):
    """Two elements with c2 terms only, two with transfer atoms only, and
    two that carry both.  The monomials are of low degree, so that few
    products vanish."""
    pool = [m for m in _sample_monomials(pres) if sum(map(abs, m)) <= 2]

    def c2_elt():
        x = pres.zero()
        for _ in range(3):
            x = x + pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS))
        return x

    def atom_elt():
        x = pres.zero()
        for _ in range(2):
            a, b = rng.choice((-2, 0, 1, 2)), rng.choice((-1, 0, 1, 2))
            x = x + pres.tau_atom(a, b, rng.choice((1, -1, 2, 3)))
        return x

    c2s = [c2_elt() for _ in range(2)]
    atoms = [atom_elt() for _ in range(2)]
    return c2s + atoms + [c2s[0] + atoms[1], c2_elt() + atom_elt()]


@pytest.mark.parametrize("space", sorted(ATOM_GOLDEN))
def test_golden_atom_products(space):
    pres = make_space(space)
    assert pres.has_atoms
    elts = _atom_elements(pres, random.Random("atoms " + space))
    assert all(x.atoms for x in elts[2:]) and not any(x.atoms for x in elts[:2])
    pairs = list(itertools.product(range(len(elts)), repeat=2))
    prod = {(i, j): pres.mul(elts[i], elts[j]) for i, j in pairs}
    h = hashlib.sha256()
    for ij in pairs:
        h.update(_canonical_text(prod[ij]).encode())
    assert h.hexdigest() == ATOM_GOLDEN[space]
    for i, j in pairs:
        assert prod[i, j] == prod[j, i]
    for x, y, z in itertools.product(elts, repeat=3):
        assert pres.mul(pres.mul(x, y), z) == pres.mul(x, pres.mul(y, z))


# sha256 per space of _exact_digest: a BB, a DB and a binate deck and the
# free orbit.  The digests above sort the terms; these pin their order (and
# the order of each coefficient's keys), which restrict's solver candidates
# follow
EXACT_GOLDEN = {
    "binate:2,1": "31eaad927df55f7c7c1aa2d55fe01f508d33b2daf3a88c1425e3c6dae1e8e670",
    "quadric:1,1": "458f0df6c25cd5ac048320d17fafa1a411ca9b855712819c710d9618013ca387",
    "quadric:4,3": "15734ea01f1922832a278b9b9d2bdde4ae06a54b5edecb9e2d7a71f7ba9cbc95",
    "quadric:5,3": "070329b0ec5a0af9dfc9032ec39136f66641c7fc600e09f9f80af6c0ef469e1a",
}

# the same terms hashed sorted, so that a change of their order moves
# EXACT_GOLDEN alone
VALUE_GOLDEN = {
    "binate:2,1": "54f0602e8ad0aa09da1e3945d4dc09d81bee5f39267ef8e9b38f3678d367c331",
    "quadric:1,1": "0239589f209b9f46ead1a62c1d5d14c2e9d180a8c458df083d67c0e67865887a",
    "quadric:4,3": "e8b79d15dc683d628ef7483e86e10f7033fd2145072dbd5d3dbda9d62cd44d4e",
    "quadric:5,3": "76340b7650cc601f6e3b3499d953fb0eaeef2fce405704f639eaf36c2ec596c7",
}

# EXACT_GOLDEN as pinned while w0_cw, w1_cx and ihigh lowered cw (cx) by one
# a firing.  With every e^2-chain put back at one step a firing (and no
# mixed term dropped) the order is the old one, so the closed-form chains
# alone moved the three digests.  In
# binate:2,1 it is ihigh's: the monomials z0^-s cw^4 (i - p = 2) fire it once
# with K = 2, and two of the 80 hashed results list two terms swapped
STEP_GOLDEN = {
    "binate:2,1": "c6905b474ee7fb823cf64cbb1aad1c6924a4d06b1cbdd2742e7ee3f9adf2d7b2",
    "quadric:1,1": "458f0df6c25cd5ac048320d17fafa1a411ca9b855712819c710d9618013ca387",
    "quadric:4,3": "96c4766c403374ae9c96a5099f208658e0b0a870b2e379f8f69016db204bd842",
    "quadric:5,3": "5ec71134a4feb0e884e0f0f7a61b7000c7964101e36f942630f8831dab582f36",
}


def _exact_digest(space, rounds=40, ordered=True, single=False):
    """Hash the exact terms of seeded products of three-term elements (one
    transfer atom added where the deck has them) and of reduced products of
    three monomials, in the order the engine leaves them, or sorted when
    ``ordered`` is false.  ``single`` puts every e^2-chain back at one step
    a firing (conftest's ``one_step``)."""
    pres = one_step(_space(space)) if single else _space(space)
    rng = random.Random("exact " + space)
    pool = _sample_monomials(pres) or tuple(gen_mono(g) for g in GENERATORS)
    h = hashlib.sha256()
    arrange = list if ordered else sorted

    def add(x):
        c2 = [(m, arrange(v.c.items())) for m, v in x.c2.items()]
        h.update(repr((x.level, arrange(c2), arrange(x.atoms.items()))).encode())

    for _ in range(rounds):
        x, y = pres.zero(), pres.zero()
        for _ in range(3):
            x = x + pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS))
            y = y + pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS))
        if pres.has_atoms:
            x = x + pres.tau_atom(rng.randrange(-2, 3), rng.randrange(-2, 3), rng.choice((1, -1, 2)))
        add(pres.mul(x, y))
        raw = RingElement(pres, "top", c2={_mono_product(rng.sample(pool, 3)): rng.choice(POINT_COEFFS)})
        try:
            add(pres.normal_form(raw))
        except NotAClassError as exc:
            h.update(str(exc).encode())
    return h.hexdigest()


@pytest.mark.parametrize("space", sorted(EXACT_GOLDEN))
def test_exact_term_order_of_products(space):
    assert _exact_digest(space) == EXACT_GOLDEN[space]


@pytest.mark.parametrize("space", sorted(VALUE_GOLDEN))
def test_exact_terms_of_products(space):
    assert _exact_digest(space, ordered=False) == VALUE_GOLDEN[space]


@pytest.mark.parametrize("space", sorted(STEP_GOLDEN))
def test_exact_term_order_of_single_steps(space):
    assert _exact_digest(space, single=True) == STEP_GOLDEN[space]


# -- the threshold-class table ---------------------------------------------------

# point, bu1, proj (p = 0 and q = 0 among them), binate, the free orbit, all
# four quadric parities, m or n = 2, and the z0/z1-invertible quadric decks
CLASS_SPACES = [
    "point", "bu1", "proj:2,1", "proj:0,2", "proj:3,0", "binate:2,1", "binate:0,2",
    "binate:0,0", "quadric:1,1", "quadric:3,1", "quadric:1,3", "quadric:2,1",
    "quadric:0,3", "quadric:5,3", "quadric:3,3", "quadric:4,3", "quadric:3,4",
    "quadric:4,4", "quadric:4,2", "quadric:2,5", "quadric:2,2", "quadric:7,6",
]


def _space(space):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_space(space)


def _direct_class(pres, m):
    """The ordered guard scan that the class table stands for."""
    if pres.canonical_fn(m):
        return True
    return tuple(k for k, (_, guard, _) in enumerate(pres.rules) if guard(m))


def _class_box(pres):
    """Every monomial whose exponents reach past the outermost thresholds:
    s, t to -2..3, d, w0, w1 to -1..3, i to -1..p+2, j to -1..q+2 (bu1 as
    p = q = 1)."""
    p = 1 if pres.p is None else pres.p
    q = 1 if pres.q is None else pres.q
    st, dw = range(-2, 4), range(-1, 4)
    return itertools.product(st, st, range(-1, p + 3), range(-1, q + 3), dw, dw, dw)


@pytest.mark.parametrize("space", CLASS_SPACES)
def test_class_table_matches_direct_scan(space):
    pres = _space(space)
    # warm the table from reductions first, so that entries come from
    # monomials other than the ones compared
    confluence_probe(pres, samples=20, seed=3)
    units = [tuple(int(k == n) for k in range(7)) for n in range(7)]
    for a, b in itertools.product(units, repeat=2):
        try:
            pres.monomial_elt(mono_mul(a, b))
        except NotAClassError:
            pass
    assert pres._derived().classes
    for m in _class_box(pres):
        assert pres.rule_class(m) == _direct_class(pres, m), (space, m)
    assert len(pres._derived().classes) <= 4 * 4 * 7 * 7 * 4 * 4 * 4


def test_class_key_places_exponents_against_their_thresholds():
    for n in (None,) + tuple(range(8)):
        # every exponent below 0 has one place: the guards compare with
        # n - 1 only as e <= n - 1, which for n = 0 is e < 0
        marks = tuple(c for c in _places(n) if c >= 0)

        def signs(e):
            return tuple((e > c) - (e < c) for c in marks)

        places = {}
        for e in range(-3, (1 if n is None else n) + 5):
            place = _class_key((0, 0, e, 0, 0, 0, 0), n, None)[2]
            # j is placed against q as i is against p
            assert _class_key((0, 0, 0, e, 0, 0, 0), None, n)[3] == place
            places.setdefault(place, set()).add(signs(e))
        # equal places compare alike with every threshold
        assert all(len(v) == 1 for v in places.values()), (n, places)
        # seven places at most: -1, 0, 1, between, n - 1, n, above n
        assert len(places) <= 7


# one pair of decks per parity kind, each with p, q >= 4
PARITY_PAIRS = [
    ("quadric:9,9", "quadric:11,13"), ("quadric:8,9", "quadric:10,13"),
    ("quadric:9,8", "quadric:13,10"), ("quadric:8,8", "quadric:10,12"),
]


@pytest.mark.parametrize("small, large", PARITY_PAIRS)
def test_class_table_does_not_depend_on_p_and_q(small, large):
    tables = []
    for space in (small, large):
        pres = make_space(space)
        st, dw = range(-1, 2), range(-1, 3)
        for m in itertools.product(st, st, range(-1, pres.p + 3), range(-1, pres.q + 3), dw, dw, dw):
            pres.rule_class(m)
        tables.append(([r[0] for r in pres.rules], pres._derived().classes))
    assert tables[0] == tables[1]


def test_huge_space_builds_and_reduces_at_once():
    tracemalloc.start()
    try:
        start = time.perf_counter()
        pres = make_space("quadric:100000000000,3")
        for text in ("z0*cw*x", "cw^5*cx^3", "divw*cw", "z1*divx*cx", "cx^4"):
            parse_expression(pres, text)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert took < 1.0
    assert peak < 1 << 20
    assert 0 < len(pres._derived().classes) <= 4 * 4 * 7 * 7 * 4 * 4 * 4


def _outcome(pres, x):
    try:
        return _canonical_text(pres.normal_form(x))
    except NotAClassError as exc:
        return "error: %s" % exc


def _fault(pres, flip, off):
    """Flip the sign of one rule and disable another, in place."""
    names = [r[0] for r in pres.rules]
    k = names.index(flip)
    name, guard, rhs = pres.rules[k]
    pres.rules[k] = (name, guard, negated_rhs(rhs))
    k = names.index(off)
    name, guard, rhs = pres.rules[k]
    pres.rules[k] = (name, lambda m: False, rhs)


def test_warm_table_follows_rules_replaced_in_place():
    from c2quadrics.solver import audit_full

    pres = make_space("quadric:3,3")
    rng = random.Random(12)
    pool = _sample_monomials(pres)
    raws = [
        RingElement(pres, "top", c2={_mono_product(rng.sample(pool, 3)): rng.choice(POINT_COEFFS)})
        for _ in range(150)
    ]
    before = [_outcome(pres, x) for x in raws]
    assert len(pres._derived().classes) > 20
    _fault(pres, "xi_mix", "t2")
    # the faulty rules on a cold table are the reference
    cold = make_space("quadric:3,3")
    _fault(cold, "xi_mix", "t2")
    after = [_outcome(pres, x) for x in raws]
    assert after == [_outcome(cold, RingElement(cold, "top", c2=x.c2)) for x in raws]
    assert sum(a != b for a, b in zip(before, after)) >= 10
    assert any(a.startswith("error") for a in after)
    for m in pool:
        assert pres.rule_class(m) == _direct_class(pres, m)
    assert not audit_full(pres, seed=4, samples=60, probe_samples=60)["ok"]


def test_linear_rule_replaced_in_place_is_the_one_applied():
    pres = make_space("quadric:3,3")
    rng = random.Random(21)
    pool = _sample_monomials(pres)
    raws = [
        RingElement(pres, "top", c2={_mono_product(rng.sample(pool, 3)): rng.choice(POINT_COEFFS)})
        for _ in range(150)
    ]
    before = [_outcome(pres, x) for x in raws]
    k = [r[0] for r in pres.rules].index("w0_expand")
    name, guard, rhs = pres.rules[k]
    # a fixed rhs is data: pairs of raw (point monomial, int) coefficient
    # pairs and a monomial shift, and no transfer terms here
    pairs, atoms = rhs
    assert pairs and not atoms
    assert all(isinstance(c, tuple) and len(delta) == 7 for c, delta in pairs)
    # a function that returns the same data is called, and changes nothing
    fired = []
    pres.rules[k] = (name, guard, lambda m: fired.append(m) or rhs)
    assert [_outcome(pres, x) for x in raws] == before
    assert fired
    # a negated rule, as data and as a function, against a cold presentation
    cold = make_space("quadric:3,3")
    cold.rules[k] = (name, guard, negated_rhs(cold.rules[k][2]))
    expect = [_outcome(cold, RingElement(cold, "top", c2=x.c2)) for x in raws]
    assert sum(a != b for a, b in zip(before, expect)) >= 5
    pres.rules[k] = (name, guard, negated_rhs(rhs))
    assert [_outcome(pres, x) for x in raws] == expect
    pres.rules[k] = (name, guard, lambda m: negated_rhs(rhs))
    assert [_outcome(pres, x) for x in raws] == expect


def test_rule_order_fires_first_matching_rule():
    # the default order fires the first rule whose guard holds, a shuffled
    # order the first one in its own order
    pres = make_space("quadric:5,3")
    fired = []
    for k, (name, guard, rhs) in enumerate(pres.rules):
        pres.rules[k] = (name, guard, lambda m, _k=k, _r=rhs: fired.append((_k, m)) or rhs_at(_r, m))
    rng = random.Random(8)
    pool = _sample_monomials(pres)
    raws = [
        RingElement(pres, "top", c2={_mono_product(rng.sample(pool, 3)): ONE}) for _ in range(40)
    ]
    order = list(range(len(pres.rules)))
    rng.shuffle(order)
    for rule_order, rank in ((None, list(range(len(order)))), (order, order)):
        del fired[:]
        for x in raws:
            pres.normal_form(x, rule_order=rule_order)
        assert len(fired) > 50
        for k, m in fired:
            scan = _direct_class(pres, m)
            assert k == min(scan, key=rank.index), (m, k, scan)


# -- the probe skips the orders that retrace the reference ----------------------


def _probe_every_order(pres, samples, seed):
    """confluence_probe reducing every shuffled order: the reference that the
    skipping probe must reproduce report for report."""
    rng = random.Random(seed)
    report = {"space": pres.name, "samples": samples, "mismatches": []}
    pool = _sample_monomials(pres)
    if not pool:
        return report
    for k in range(samples):
        n_factors = rng.choice([2, 2, 3])
        monos = [rng.choice(pool) for _ in range(n_factors)]
        coeff = rng.choice([1, 1, 1, -1, 2])
        raw = RingElement(pres, "top", c2={_mono_product(monos): coeff})
        try:
            ref = pres.normal_form(raw)
        except (NonTerminatingError, NotAClassError) as exc:
            report["mismatches"].append({"sample": k, "error": str(exc)})
            continue
        for _ in range(3):
            order = list(range(len(pres.rules)))
            rng.shuffle(order)
            try:
                alt = pres.normal_form(raw, rule_order=order)
            except (NonTerminatingError, NotAClassError) as exc:
                report["mismatches"].append({"sample": k, "error": str(exc)})
                continue
            if not (alt.c2 == ref.c2 and alt.atoms == ref.atoms):
                report["mismatches"].append(
                    {"sample": k, "input": str(raw), "expected": str(ref), "got": str(alt)}
                )
    return report


CRITERION_10_DECKS = (
    "point", "bu1", "proj:2,1", "binate:1,1",
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4",
)


def test_probe_reports_match_reducing_every_order():
    for sid in CRITERION_10_DECKS:
        pres = make_space(sid)
        assert confluence_probe(pres, samples=300, seed=11) == _probe_every_order(pres, 300, 11), sid
    # every single-rule fault of quadric:3,3, as criterion 10 seeds them
    n_rules = len(make_space("quadric:3,3").rules)
    mismatches = {"flip": 0, "disable": 0}
    for idx in range(n_rules):
        for fault in ("flip", "disable"):
            pres = make_space("quadric:3,3")
            name, guard, rhs = pres.rules[idx]
            if fault == "flip":
                pres.rules[idx] = (name, guard, negated_rhs(rhs))
            else:
                pres.rules[idx] = (name, lambda m: False, rhs)
            rep = confluence_probe(pres, samples=120, seed=5)
            assert rep == _probe_every_order(pres, 120, 5), (name, fault)
            mismatches[fault] += len(rep["mismatches"])
    # a flipped rule shows only where shuffled orders leave the reference
    # derivation, the case the skipping decides
    assert mismatches["flip"] >= 10 and mismatches["disable"] >= 100, mismatches


@pytest.mark.parametrize("space", [s for s in CLASS_SPACES if s not in ("quadric:1,1", "binate:0,0")])
def test_scalar_is_a_marked_normal_form(space):
    pres = _space(space)
    three = pres.scalar(3)
    assert three._nf and three.level == "top" and not three.atoms
    assert {m: v.c for m, v in three.c2.items()} == {MONO_ONE: PointElt.from_int(3).c}


def _rho_mono_by_products(pres, m):
    """rho of a monomial with rho(x) multiplied in d times: the reference
    for the one reduction of ``_rho_mono``."""
    s, t, i, j, d, w0, w1 = m
    out = {(2 * s + 2 * j + 2 * w1 * pres.q, -s + t + i - j + w0 * pres.p - w1 * pres.q,
            i + j + w0 * pres.p + w1 * pres.q, 0): 1}
    A, B, C = pres.rho_x
    for _ in range(d):
        out = pres.levele.mul(out, {(A, B, C, 1): 1})
    return out


@pytest.mark.parametrize("space", ["quadric:3,3", "quadric:4,3", "quadric:3,4", "quadric:4,4",
                                   "quadric:1,2", "quadric:2,1", "quadric:5,6", "quadric:0,3", "quadric:2,0"])
def test_rho_of_a_monomial_is_one_reduction(space):
    pres = _space(space)
    box = itertools.product(range(-2, 3), range(-1, 2), range(3), range(3), range(1, 4), (0, 1), (0, 1))
    for m in box:
        assert list(pres._rho_mono(m).items()) == list(_rho_mono_by_products(pres, m).items()), m


def test_probe_skips_some_orders_and_reduces_others():
    for sid in ("quadric:5,3", "quadric:4,4"):
        pres = make_space(sid)
        reduce = pres.normal_form
        shuffled = []

        def counting(x, rule_order=None, *args, **kwargs):
            if rule_order is not None:
                shuffled.append(rule_order)
            return reduce(x, rule_order, *args, **kwargs)

        pres.normal_form = counting
        confluence_probe(pres, samples=200, seed=3)
        assert 0 < len(shuffled) < 3 * 200, (sid, len(shuffled))


def _fresh_pool(pres):
    """The sample pool enumerated here by nested loops."""
    if pres.free_orbit:
        return []
    pool = []
    p = pres.p if pres.p is not None else 3
    q = pres.q if pres.q is not None else 3
    for s in range(-2, 3):
        for t in range(-2, 3):
            for i in range(0, p + 2):
                for j in range(0, q + 2):
                    for d in range(0, 2 if pres.has_x else 1):
                        for w0 in (0, 1):
                            for w1 in (0, 1):
                                m = (s, t, i, j, d, w0, w1)
                                if pres.canonical(m) and m != MONO_ONE:
                                    pool.append(m)
    return pool


def test_sample_pool_built_once():
    # the pool skips the cells that canonical never accepts (s and t both
    # nonzero, both divided flags) and keeps the order of the full box scan
    for sid in CLASS_SPACES + ["quadric:6,5"]:
        pres = _space(sid)
        pool = _sample_monomials(pres)
        assert isinstance(pool, tuple)
        assert _sample_monomials(pres) is pool
        assert list(pool) == _fresh_pool(pres), sid


def test_presentations_keep_to_29_instance_attributes():
    # on CPython 3.11 a 30th instance attribute gives each instance dict its
    # own keys, and every attribute load of the rewrite loop gets slower;
    # the caches (class table, sample pool, strip table) are filled in place
    from c2quadrics.catalog import basis_slice

    for sid in CLASS_SPACES + ["quadric:6,5", "bu1", "point"]:
        pres = _space(sid)
        basis_slice(pres, 1, ((-9, 9), (-9, 9)))
        _sample_monomials(pres)
        pres.mul(pres.scalar(3), pres.scalar(5))
        assert len(vars(pres)) <= 29, (sid, sorted(vars(pres)))


def test_a_new_class_function_empties_the_class_table():
    # rule_class and normal_form follow a replaced canonical_fn: cw, canonical
    # and kept before, is neither after (no rule rewrites it), and is both
    # again under the deck's own function
    pres = make_space("quadric:5,3")
    cw = pres.gen("cw")
    (mono,) = cw.c2
    own = pres.canonical_fn

    def reduce_cw():
        return pres.normal_form(RingElement(pres, "top", c2=dict(cw.c2)))

    assert pres.rule_class(mono) is True and reduce_cw() == cw
    pres.canonical_fn = lambda m: False
    assert pres.rule_class(mono) == _direct_class(pres, mono) == ()
    with pytest.raises(NotAClassError, match="no rule rewrites cw"):
        reduce_cw()
    pres.canonical_fn = own
    assert pres.rule_class(mono) is True and reduce_cw() == cw


def _flipped(own, pres, key):
    """The canonical test ``own`` with its answer negated on one threshold
    class (``_class_key``) of pres."""
    return lambda m: own(m) != (_class_key(m, pres.p, pres.q) == key)


def test_the_sample_pool_follows_a_new_class_function():
    pres = make_space("quadric:5,3")
    own = pres.canonical_fn
    pool = _sample_monomials(pres)
    key = _class_key(pool[len(pool) // 2], pres.p, pres.q)
    pres.canonical_fn = _flipped(own, pres, key)
    after = _sample_monomials(pres)
    assert list(after) == _fresh_pool(pres)
    assert list(after) == [m for m in pool if _class_key(m, pres.p, pres.q) != key] != list(pool)
    pres.canonical_fn = own
    assert _sample_monomials(pres) == pool


def test_a_warm_audit_follows_a_new_class_function():
    # the class table, the stored strips and the sample pool are emptied
    # together, so after a class flip of canonical_fn a warm presentation
    # audits as a fresh one flipped before first use
    from c2quadrics.solver import audit_full

    warm = make_space("quadric:5,3")
    own = warm.canonical_fn
    first = audit_full(warm, 0, 20, 30)
    keys = sorted({_class_key(m, warm.p, warm.q) for m in _sample_monomials(warm)})
    for key in random.Random("class flips").sample(keys, 5):
        warm.canonical_fn = _flipped(own, warm, key)
        fresh = make_space("quadric:5,3")
        fresh.canonical_fn = _flipped(fresh.canonical_fn, fresh, key)
        assert audit_full(warm, 0, 20, 30) == audit_full(fresh, 0, 20, 30), key
    warm.canonical_fn = own
    assert audit_full(warm, 0, 20, 30) == first


def test_inline_draws_match_shuffle_and_choice():
    # the probe's draws on getrandbits against random's own shuffle and
    # choice: the same permutations and indices, and the same state after
    for n in range(1, 41):
        steps = _shuffle_steps(n)
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            order = list(range(n))
            theirs.shuffle(order)
            assert _shuffled(ours.getrandbits, n, steps) == order, (n, seed)
            assert _below(ours.getrandbits, n) == theirs.choice(range(n)), (n, seed)
            assert ours.getstate() == theirs.getstate(), (n, seed)


def _subtraction_operands(pres, rng):
    """Mixed-coefficient elements of pres: raw and marked at the top level,
    with transfer atoms where the deck has them, and at level e."""
    pool = _sample_monomials(pres) or (MONO_ONE, (0, 0, 1, 0, 0, 0, 0))
    coeffs = _mixed_coeffs()
    out = []
    for _ in range(6):
        c2 = {rng.choice(pool): rng.choice(coeffs) for _ in range(rng.randrange(4))}
        atoms = {(rng.randrange(-2, 3), rng.randrange(-2, 3)): rng.choice((1, -2, 3))} if pres.has_atoms else None
        x = RingElement(pres, "top", c2=c2, atoms=atoms)
        out += [x, pres.normal_form(x)]
    keys = list(itertools.product((-1, 0, 2), (-1, 1), (0, 1), (0, 1)))
    for _ in range(4):
        x = RingElement(pres, "e", e={rng.choice(keys): rng.choice((1, -1, 2)) for _ in range(3)})
        out.append(x)
        try:
            out.append(pres.normal_form(x))
        except NotAClassError:  # y in a model without y classes
            pass
    # shared monomials, so that some differences cancel
    return out + [out[1], out[-1]]


@pytest.mark.parametrize("sid", ["quadric:3,3", "quadric:4,3", "quadric:5,6", "binate:2,1", "proj:2,1", "bu1"])
def test_subtraction_is_adding_the_negative(sid):
    pres = make_space(sid)
    elts = _subtraction_operands(pres, random.Random("sub " + sid))

    def state(z):
        return z.level, [(m, v.c) for m, v in z.c2.items()], z.atoms, z.e, z._nf

    for x, y in itertools.product(elts, repeat=2):
        if x.level != y.level:
            with pytest.raises(NotAClassError):
                x - y
            continue
        assert state(x - y) == state(x + (-y)), (x, y)
    assert any((x - x)._nf for x in elts) and all((x - x).is_zero() for x in elts)

    # a subtrahend whose coefficients are mixed e^i xi^j terms alone, on
    # monomials of the minuend and one more: 2-torsion, so x - y == x + y,
    # and a term that meets its own coefficient cancels
    rng = random.Random("mixed " + sid)
    mixed = [PointElt.monomial(pos(i, j)) for i, j in ((1, 1), (2, 1), (1, 2), (3, 2))]
    fresh = (0, 0, 0, 0, 0, 0, 0)
    for x in elts:
        if x.level != "top":
            continue
        c2 = {m: sum(rng.sample(mixed, rng.randint(1, 3)), PointElt()) for m in list(x.c2)[:3] + [fresh]}
        for y in (RingElement(pres, "top", c2=c2), pres.normal_form(RingElement(pres, "top", c2=c2))):
            assert state(x - y) == state(x + (-y)) == state(x + y), (x, y)
            assert (y - y).is_zero() and state(y - y) == state(y + y)


@pytest.mark.parametrize("sid", ["quadric:1,1", "binate:0,0"])
def test_free_orbit_rho_of_x_is_zero(sid):
    # x = 0 on the free orbit, so an unreduced x times t(y) is 0, not t(y)
    from c2quadrics.solver import verify_relations

    P = make_space(sid)
    x_raw = RingElement(P, "top", c2={(0, 0, 0, 0, 1, 0, 0): 1})
    assert P.mul(x_raw, P.tau_atom(0, 0)).is_zero()
    assert P.mul(P.tau_atom(1, 2), x_raw).is_zero()
    assert P._rho_mono((0, 0, 0, 0, 2, 0, 0)) == {}
    rows = {row["identity"]: row for row in verify_relations(P)["identities"]}
    assert rows["x = 0"]["rho_raw"] and rows["x = 0"]["status"] == "pass"


@pytest.mark.parametrize("sid", ["quadric:1,1", "binate:0,0"])
def test_free_orbit_unit_is_a_rule(sid):
    # 1 = t(y) is the rule unit: after reductions every class-table entry
    # holds one rule, x_zero (x >= 1) or unit (x = 0)
    P = make_space(sid)
    names = [name for name, _, _ in P.rules]
    assert names == ["x_zero", "unit"]
    confluence_probe(P, samples=20, seed=3)
    for m in itertools.product(range(-2, 3), range(-2, 3), range(3), range(3), range(3), (0, 1), (0, 1)):
        P.monomial_elt(m, 3)
    assert P._derived().classes
    for key, entry in P._derived().classes.items():
        assert entry == ((names.index("x_zero"),) if key[4] >= 1 else (names.index("unit"),)), key
    assert str(P.scalar(1)) == "t(y)" and str(P.scalar(-2)) == "-2*t(y)"


def _mixed_coeffs():
    """POINT_COEFFS with the 2-torsion e^i xi^j classes and a few sums."""
    mixed = [PointElt.monomial(pos(i, j)) for i, j in ((1, 1), (2, 1), (1, 2))]
    return list(POINT_COEFFS) + mixed + [ONE - KAPPA_PT + mixed[0], 3 * E_PT + mixed[1]]


@pytest.mark.parametrize("sid", ["quadric:3,3", "quadric:4,3", "binate:2,1", "proj:2,1", "quadric:1,1"])
def test_results_never_share_coefficient_dicts_with_operands(sid):
    # normal_form and mul change raw coefficient dicts in place; no result
    # coefficient may be an operand's dict, and the operands and the cached
    # normal forms stay as they were.  Every fixed rule rhs is hashable, so
    # nothing can change it in place
    pres = make_space(sid)
    rng = random.Random(13)
    pool = _sample_monomials(pres) or (MONO_ONE, (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0))
    coeffs = _mixed_coeffs()
    for _, _, rhs in pres.rules:
        assert callable(rhs) or hash(rhs) is not None

    def draw(raw):
        c2 = {}
        for _ in range(4):
            m = _mono_product(rng.sample(pool, 2)) if raw else rng.choice(pool)
            c2[m] = rng.choice(coeffs)
        atoms = {(rng.randrange(-2, 3), rng.randrange(-2, 3)): rng.choice((1, -2))} if pres.has_atoms else None
        return RingElement(pres, "top", c2=c2, atoms=atoms)

    checked = 0
    for _ in range(25):
        x, y, raw = draw(False), draw(False), draw(True)
        operands = (x, y, raw)
        snap = [(dict(e.atoms), [(m, dict(v.c)) for m, v in e.c2.items()]) for e in operands]
        dicts = {id(v.c) for e in operands for v in e.c2.values()}
        results = [pres.mul(x, y), pres.mul(x, x), pres.normal_form(x)]
        try:
            results.append(pres.normal_form(raw))
        except NotAClassError:
            pass
        for out in results:
            assert not {id(v.c) for v in out.c2.values()} & dicts
            checked += len(out.c2)
        assert [(dict(e.atoms), [(m, dict(v.c)) for m, v in e.c2.items()]) for e in operands] == snap
    # on the free orbit every result is a sum of transfer atoms
    assert checked or pres.free_orbit


def test_rho_of_level_e_element_is_its_normal_form():
    Q = make_space("quadric:3,3")
    raw = RingElement(Q, "e", e={(0, 0, 3, 0): 1})  # c^3 = 2*c*y
    r = Q.rho(raw)
    assert r.level == "e" and r._nf and r.e == {(0, 0, 1, 1): 2}
    assert r.e == Q.normal_form(raw).e
    assert Q.rho(r) is r


POWER_SPACES = [
    "quadric:%d,%d" % (m, n) for m in range(8) for n in range(8) if m + n >= 2
] + ["proj:2,1", "proj:0,2", "proj:3,3", "binate:2,1", "binate:0,0", "bu1", "point"]


def _one_term_bases(pres):
    """One-term bases of every kind: canonical monomials (1 among them) with
    coefficients 1, -2, 3, -k + 1 and the split point monomials -2*xi, e*xi
    (mixed) and 3*e^2; level-e keys with eps 0 and 1, built unreduced so that
    a y outside the model meets ``**``; binate's t(y); the free orbit's
    2*t(y); and the two zeros."""
    pool = (MONO_ONE,) + _sample_monomials(pres)
    split = (XI_PT * -2, E_PT * XI_PT, PointElt.monomial(pos(2, 0), 3))
    out = [pres.monomial_elt(m, c) for m in pool[::max(1, len(pool) // 6)]
           for c in (1, -2, 3, POINT_COEFFS[-1]) + split]
    keys = itertools.product((-1, 2), (-1, 1), (0, 1), (0, 1))
    out += [RingElement(pres, "e", e={k: c}) for k in keys for c in (1, -2)]
    if pres.levele.kind == "binate":
        out.append(pres.levele_elt({(0, 0, 0, 2): 1}))
    if pres.free_orbit:
        out.append(pres.scalar(2))
    return out + [pres.zero(), pres.zero("e")]


def _power_outcome(x, n, power):
    try:
        out = power(x, n)
    except (NotAClassError, NonTerminatingError) as exc:
        return type(exc).__name__, str(exc)
    return out.level, str(out)


@pytest.mark.parametrize("space", POWER_SPACES)
def test_power_closed_forms_match_the_loop(space):
    # x ** n against n products from the top-level 1 for n = 0..7, errors
    # included, on every kind of one-term base
    pres = _space(space)
    for x in _one_term_bases(pres):
        for n in range(8):
            assert _power_outcome(x, n, RingElement.__pow__) == _power_outcome(x, n, loop_power), (x, n)


@pytest.mark.parametrize("space, base, n, expect", [
    ("quadric:3,3", lambda P: P.gen("cw"), 300000, "e^599998*z0^-299999*divw"),
    # a point monomial coefficient splits off: xi^n * cw^n, not n products
    ("quadric:3,3", lambda P: P.gen("cw").scale(XI_PT), 300000, "e^599998*xi^300000*z0^-299999*divw"),
    ("quadric:3,3", lambda P: P.levele_elt({(0, 1, 0, 0): 1}), 100000000, "zeta^100000000"),
    ("quadric:1,1", lambda P: P.scalar(2), 10, "1024*t(y)"),
    # 1 + m with m*m = 0 is unipotent: (1 + m)^n = 1 + n*m
    ("quadric:3,3", lambda P: 1 + P.gen("x"), 100000000, "1 + 100000000*x"),
])
def test_library_powers_answer_at_once(space, base, n, expect):
    pres = _space(space)
    x = base(pres)
    start = time.perf_counter()
    out = x ** n
    assert time.perf_counter() - start < 2.0
    assert str(out) == expect
