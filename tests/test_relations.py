"""The relation decks as data: ``Presentation.identities`` builds every
deck's identities from its ``relations`` in one loop.  The hand-written
identity functions that it replaced are kept here, as they were, as the
reference."""

import warnings

import pytest

from c2quadrics.catalog import (
    E2,
    TRANS_M1,
    RestrictedGradingWarning,
    make_space,
)
from c2quadrics.coefficients import UNIT_1MK, XI_PT
from c2quadrics.component import _divided
from c2quadrics.rewrite import _terms_elt
from c2quadrics.solver import verify_relations
from conftest import negated_rhs


# -- the reference: the identity functions of the decks, as they were -------


def _bu1_identities(P):
    z0, z1, cw, cx = P.gen("z0"), P.gen("z1"), P.gen("cw"), P.gen("cx")
    return [
        ("zeta0*zeta1 = xi", z0 * z1, P.scalar(1) * XI_PT),
        ("e^2 = z0*cw - (1-k)*z1*cx", P.scalar(1) * E2, z0 * cw - (z1 * cx) * UNIT_1MK),
        # consequence: t(iota^-2) z0 cw = t(iota^-2) z1 cx
        ("t(iota^-2)*z0*cw = t(iota^-2)*z1*cx", (z0 * cw) * TRANS_M1, (z1 * cx) * TRANS_M1),
    ]


def _projective_identities(P):
    p, q = P.p, P.q
    return [("cw^p*cx^q = 0", (P.gen("cw") ** p) * (P.gen("cx") ** q), P.zero())]


def _binate_identities(P):
    p, q = P.p, P.q
    lhs = (P.gen("cw") ** p) * (P.gen("cx") ** q)
    return [("cw^p*cx^q = z0^q*z1^p*t(y)", lhs, P.tau_atom(2 * q, p - q))]


def _free_orbit_identities(P):
    return [
        ("x = 0", P.gen("x"), P.zero()),
        ("1 = t(y)", P.scalar(1), P.tau_atom(0, 0)),
    ]


def _div_elements(P):
    """divw and divx assembled from their defining expressions."""
    return tuple(
        P.normal_form(_terms_elt(P, [("mono", c, m) for c, m in _divided(P, side)])) for side in (0, 1)
    )


def _quad_identities(P):
    """The relation deck of a quadric."""
    out = []
    p, q = P.p, P.q
    x = P.gen("x")
    cw, cx = P.gen("cw"), P.gen("cx")
    divw, divx = _div_elements(P)
    xsq_rhs = P.zero()
    for coeff, delta in P.xsq_terms:
        xsq_rhs = xsq_rhs + P.monomial_elt(delta, coeff)
    out.append(("x^2", x * x, xsq_rhs))
    divdiv_rhs = _terms_elt(P, P.divdiv_terms)
    out.append(("divw*divx", P.mul(divw, divx), P.normal_form(divdiv_rhs)))
    top_rhs = _terms_elt(P, P.top_terms)
    out.append(("cw^p*cx^q", (cw ** p) * (cx ** q), P.normal_form(top_rhs)))
    A, B, C = P.rho_x
    out.append(("rho(x)", P.rho(x), P.levele_elt({(A, B, C, 1): 1})))
    # nonequivariant relations of the underlying quadric, level e
    model = P.levele
    if model.kind == "B":
        out.append((
            "c^%d = 2y" % model.size,
            P.levele_elt({(0, 0, model.size, 0): 1}),
            P.levele_elt({(0, 0, 0, 1): 2}),
        ))
    elif model.kind == "D" and model.size > 1:
        out.append((
            "c^%d = 2cy" % model.size,
            P.levele_elt({(0, 0, model.size, 0): 1}),
            P.levele_elt({(0, 0, 1, 1): 2}),
        ))
    return out


def _reference(P):
    if P.free_orbit:
        return _free_orbit_identities(P)
    return {
        "point": lambda P: [],
        "bu1": _bu1_identities,
        "proj": _projective_identities,
        "binate": _binate_identities,
        "quadric": _quad_identities,
    }[P.space[0]](P)


def _space(sid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_space(sid)


SPACES = (
    ["point", "bu1"]
    + ["proj:%d,%d" % (p, q) for p in range(5) for q in range(5) if p + q]
    + ["binate:%d,%d" % (p, q) for p in range(5) for q in range(5)]
    + ["quadric:%d,%d" % (m, n) for m in range(10) for n in range(10) if m + n >= 2]
)


def _exact(P, x):
    """A normal form with the order of its terms."""
    x = P.normal_form(x)
    return x.level, list(x.c2.items()), list(x.atoms.items()), list(x.e.items())


@pytest.mark.parametrize("sid", SPACES)
def test_identities_equal_the_hand_written_decks(sid):
    P = _space(sid)
    got, want = P.identities(), _reference(P)
    assert [name for name, _, _ in got] == [name for name, _, _ in want]
    for (name, lhs, rhs), (_, lhs0, rhs0) in zip(got, want):
        assert _exact(P, lhs) == _exact(P, lhs0), (sid, name)
        assert _exact(P, rhs) == _exact(P, rhs0), (sid, name)


KINDS = [
    "point", "bu1", "proj:2,1", "proj:0,3", "binate:2,1", "binate:0,0", "quadric:1,1",
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "quadric:2,2", "quadric:0,5",
]


@pytest.mark.parametrize("sid", KINDS)
def test_every_top_level_row_checks_raw_rho(sid):
    P = _space(sid)
    rows = verify_relations(P)["identities"]
    top = [row for row in rows if "rho" in row]
    assert [row["identity"] for row in top] == [name for name, _, _ in P.relations]
    assert list(P.raw_lhs) == [name for name, _, _ in P.relations]
    for row in top:
        assert row["rho_raw"] is True and row["status"] == "pass", (sid, row)
        assert row["nf_raw"] is True, (sid, row)


@pytest.mark.parametrize("sid", ["quadric:9,7", "quadric:6,3"])
def test_a_negated_divdiv_rule_fails_the_raw_left_side(sid):
    # identities() expands divw*divx through gen("divw") and gen("divx"), so
    # the rule divdiv, which states the relation, fires only on the raw term
    P = _space(sid)
    k = [name for name, _, _ in P.rules].index("divdiv")
    name, guard, rhs = P.rules[k]
    P.rules[k] = (name, guard, negated_rhs(rhs))
    report = verify_relations(P)
    rows = {row["identity"]: row for row in report["identities"]}
    row = rows["divw*divx"]
    assert row["nf_zero"] and row["rho"] and row["rho_raw"] and row["eta"] and row["phi"]
    assert not row["nf_raw"] and row["status"] == "fail"
    assert not report["ok"]


def _plant(P, name, change):
    """Replace the right-hand terms of one relation of P by change(terms)."""
    k = [n for n, _, _ in P.relations].index(name)
    _, raw, terms = P.relations[k]
    P.relations[k] = (name, raw, change(terms))


@pytest.mark.parametrize("sid, name, change", [
    # drop the e^-2*k*x term of cw^2*cx = t(iota^2*zeta*y) + e^-2*k*x
    ("quadric:5,3", "cw^p*cx^q", lambda terms: terms[:-1]),
    ("bu1", "e^2 = z0*cw - (1-k)*z1*cx", lambda terms: [(k, -c, x) for k, c, x in terms]),
])
def test_a_fault_in_the_relation_data_fails_its_row_alone(sid, name, change):
    P = _space(sid)
    assert verify_relations(P)["ok"]
    _plant(P, name, change)
    report = verify_relations(P)
    assert not report["ok"]
    failed = [row["identity"] for row in report["identities"] if row["status"] != "pass"]
    assert failed == [name]
