"""Solver and audit tests: undetermined coefficients, witnesses, faults."""

import random
import warnings

import pytest

from c2quadrics.catalog import (
    RestrictedGradingWarning,
    _div_elements,
    make_binate,
    make_bu1,
    make_projective,
    make_quadric,
    make_space,
)
from c2quadrics.coefficients import G, PointElt, negkappa, pos, trans
from c2quadrics.grading import W, XW
from c2quadrics.rewrite import Presentation, RingElement, _sample_monomials
from c2quadrics.solver import (
    POINT_COEFFS,
    InconsistentError,
    _g_coords,
    _image_coords,
    audit_full,
    divisibility_witness,
    rank_table,
    solve_integer_system,
    solve_undetermined,
    verify_relations,
)
from conftest import negated_rhs


def nk(n):
    return PointElt.monomial(negkappa(n))


def test_integer_solver_basic():
    x, kernel = solve_integer_system([[2, 0], [0, 3]], [4, 9])
    assert x == [2, 3] and kernel == []
    with pytest.raises(InconsistentError):
        solve_integer_system([[2]], [3])
    x, kernel = solve_integer_system([[1, 1]], [5])
    assert x[0] + x[1] == 5 and len(kernel) == 1
    # kernel vectors annihilate the system
    k = kernel[0]
    assert k[0] + k[1] == 0 and k != [0, 0]


def test_integer_solver_rectangular():
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    x, kernel = solve_integer_system(rows, [3, 2, 5])
    for r, b in zip(rows, [3, 2, 5]):
        assert sum(c * v for c, v in zip(r, x)) == b


def _divdiv_candidates(Q, kind, p, q):
    if kind == "BB":
        return [
            Q.tau_atom(2 * q, p - q),
            Q.monomial_elt((0, 0, 0, 0, 1, 0, 0), nk(2)),
            Q.monomial_elt((1, 0, 1, 0, 1, 0, 0), nk(4)),
        ]
    return [
        Q.monomial_elt((0, 1, 0, 0, 1, 0, 0), PointElt.monomial(trans(-1))),
        Q.monomial_elt((0, 0, 1, 0, 1, 0, 0), nk(2)),
        Q.monomial_elt((1, 0, 2, 0, 1, 0, 0), nk(4)),
    ]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_lemma_solver_bb(p, q):
    Q = make_quadric(2 * p + 1, 2 * q + 1)
    divw, divx = _div_elements(Q)
    prod = Q.mul(divw, divx)
    res = solve_undetermined(
        Q,
        p * W + q * XW,
        _divdiv_candidates(Q, "BB", p, q),
        {"rho": Q.rho(prod), "phi": Q.phi(prod)},
    )
    assert [(c.u, c.v) for c in res["solution"]] == [(1, 0), (0, 0), (0, 0)]


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_lemma_solver_db(p, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(2 * p, 2 * q + 1)
    divw, divx = _div_elements(Q)
    prod = Q.mul(divw, divx)
    res = solve_undetermined(
        Q,
        p * W + q * XW,
        _divdiv_candidates(Q, "DB", p, q),
        {"rho": Q.rho(prod), "phi": Q.phi(prod)},
    )
    assert [(c.u, c.v) for c in res["solution"]] == [(1, 0), (0, 0), (0, 0)]


def test_zero_targets_zero_vector():
    Q = make_quadric(5, 3)
    res = solve_undetermined(
        Q,
        2 * W + XW,
        [Q.tau_atom(2, 1)],
        {"rho": Q.zero("e"), "phi": ({}, {})},
    )
    assert [(c.u, c.v) for c in res["solution"]] == [(0, 0)]


def test_divisibility_witnesses():
    Q = make_quadric(5, 3)
    divw, divx = _div_elements(Q)
    assert divisibility_witness(Q, divw, "z0")["divisible"]
    assert divisibility_witness(Q, divx, "z1")["divisible"]
    assert not divisibility_witness(Q, Q.gen("cw") ** 2, "z0")["divisible"]
    assert not divisibility_witness(Q, Q.gen("cx"), "z1")["divisible"]
    # the witness of divw is zeta^p y: check it transfers back to eta0(divw)
    R0 = Q.eta_sides[0].R
    w = divisibility_witness(Q, divw, "z0")["witness"]
    e0 = Q.eta(divw)[0]
    assert R0.tau(w) == e0
    assert w == {(0, 2, 0, 1): 1}  # zeta^p y with p = 2


def test_blanket_divisibility_degenerate():
    Q = make_quadric(1, 7)  # empty component 0
    for elt in [Q.gen("cw"), Q.gen("x"), Q.scalar(3)]:
        assert divisibility_witness(Q, elt, "z0")["divisible"]


def test_binate_cw_is_divisible_quadric_cw_is_not():
    S = make_binate(2, 1)
    Q = make_quadric(5, 3)
    assert divisibility_witness(S, S.gen("cw") ** 2, "z0")["divisible"]
    assert not divisibility_witness(Q, Q.gen("cw") ** 2, "z0")["divisible"]


def test_verify_relations_report_shape():
    Q = make_quadric(3, 3)
    rep = verify_relations(Q)
    assert rep["ok"]
    for row in rep["identities"]:
        assert row["status"] == "pass"
        assert "lhs_nf" in row and "rhs_nf" in row


def test_level_e_rows_compare_sides_without_normal_form(monkeypatch):
    # a normal form that sends everything to 0 hides rho(x) != rho-image of
    # the catalog from nf_zero and t_coherent; the direct comparison sees it
    Q = make_quadric(3, 1)
    monkeypatch.setattr(
        Presentation, "normal_form", lambda self, x, *a, **k: RingElement(self, x.level)
    )
    rows = {row["identity"]: row for row in verify_relations(Q)["identities"]}
    row = rows["rho(x)"]
    assert row["nf_zero"] and row["t_coherent"]
    assert not row["sides_equal"] and row["status"] == "fail"


def test_top_level_rows_compare_raw_rho(monkeypatch):
    # every top-level row carries rho of its raw left side; on the shipped
    # decks it agrees with rho of the reduced right side
    for sid in ("bu1", "proj:2,1", "binate:2,1", "quadric:3,1", "quadric:4,4", "quadric:1,1"):
        pres = _restrict_space(sid)
        for row in verify_relations(pres)["identities"]:
            if "rho" in row:
                assert row["rho_raw"], (sid, row["identity"])
    # a normal form that sends everything to 0 passes nf_zero, rho, eta and
    # phi of the top-level rows; their raw rho images do not
    Q = make_quadric(3, 1)
    monkeypatch.setattr(
        Presentation, "normal_form", lambda self, x, *a, **k: RingElement(self, x.level)
    )
    rows = {row["identity"]: row for row in verify_relations(Q)["identities"]}
    failed = [name for name in Q.raw_lhs if rows[name]["status"] == "fail"]
    assert failed
    for name in failed:
        row = rows[name]
        assert row["nf_zero"] and row["rho"] and row["eta"] and row["phi"]
        assert not row["rho_raw"]


def test_rank_table_bb53():
    Q = make_quadric(11, 7)
    table = rank_table(Q, 0, ((-2, 40), (-2, 40)))
    c2 = sum(v["C2/C2"] for v in table.values())
    ce = sum(v["C2/e"] for v in table.values())
    assert (c2, ce) == (16, 1)


def test_rank_table_dd_is_twice_proj():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 4)
    from c2quadrics.catalog import _enumerate_coset_monomials, make_projective

    P = make_projective(2, 2)
    for coset in (0, 1, -2):
        nq = len(_enumerate_coset_monomials(Q, coset, ((-40, 40), (-40, 40))))
        np_ = len(_enumerate_coset_monomials(P, coset, ((-40, 40), (-40, 40))))
        assert nq == 2 * np_


def test_audit_full_passes():
    rep = audit_full(make_quadric(3, 3), seed=2, samples=50, probe_samples=60)
    assert rep["ok"], rep
    rep = audit_full(make_bu1(), seed=2, samples=40, probe_samples=60)
    assert rep["ok"], rep


def test_audit_detects_seeded_fault():
    Q = make_quadric(3, 3)
    # flip the sign of one rewrite rule: the audit must notice
    for idx, (name, guard, rhs) in enumerate(Q.rules):
        if name == "top":
            Q.rules[idx] = (name, guard, negated_rhs(rhs))
            break
    rep = audit_full(Q, seed=2, samples=60, probe_samples=40)
    assert not rep["ok"]


def test_audit_checks_keep_their_own_failure():
    # phi no longer multiplicative: only hom_multiplicative fails
    Q = make_quadric(3, 3)
    Q.phi = lambda x, _phi=Q.phi: tuple({k: 3 * v for k, v in img.items()} for img in _phi(x))
    checks = audit_full(Q, seed=2, samples=60, probe_samples=20)["checks"]
    assert checks["mackey_axioms"] == {"ok": True}
    assert not checks["hom_multiplicative"]["ok"]
    assert checks["hom_multiplicative"]["detail"][0] == "phi mult"
    # t no longer fixes rho: only mackey_axioms fails
    Q = make_quadric(3, 3)
    Q.t_act = lambda w: w.scale(2)
    checks = audit_full(Q, seed=2, samples=60, probe_samples=20)["checks"]
    assert checks["hom_multiplicative"] == {"ok": True}
    assert checks["mackey_axioms"]["detail"][0] == "t rho"


def test_audit_records_an_exception_from_the_confluence_probe():
    # a planted first rule whose rhs raises: the probe's reductions raise too
    Q = make_space("quadric:3,3")
    Q.rules.insert(0, ("planted", lambda m: True, lambda m: 1 // 0))
    rep = audit_full(Q, seed=2, samples=20, probe_samples=20)
    checks = rep["checks"]
    assert not rep["ok"]
    assert not checks["confluence"]["ok"]
    assert checks["confluence"]["detail"].startswith("exception:")
    assert set(checks) == {"relations", "homogeneity", "mackey_axioms", "hom_multiplicative",
                           "confluence", "rank_law"}


def test_homogeneity_check_names_its_first_failure():
    # repl0's rhs gains a factor e: the first failing pair, with both gradings
    Q = make_quadric(3, 3)
    k = [rule[0] for rule in Q.rules].index("repl0")
    name, guard, (((c, delta), *rest), atoms) = Q.rules[k]
    c = tuple((pos(1, 0) if pm == pos(0, 0) else pm, v) for pm, v in c)
    Q.rules[k] = (name, guard, (((c, delta), *rest), atoms))
    homog = audit_full(Q, seed=2, samples=60, probe_samples=20)["checks"]["homogeneity"]
    m1, m2, expect, got = homog["detail"]
    assert not homog["ok"]
    assert expect == str(Q.mono_grading(m1) + Q.mono_grading(m2)) != got
    # a product that raises: the pair and the exception
    Q = make_quadric(3, 3)

    def mul(x, y):
        raise ArithmeticError("planted")

    Q.mul = mul
    homog = audit_full(Q, seed=2, samples=60, probe_samples=20)["checks"]["homogeneity"]
    assert not homog["ok"]
    assert homog["detail"][2] == "exception: planted"
    assert len(homog["detail"][0]) == len(homog["detail"][1]) == 7


# -- the g*x columns, derived from the images of x ----------------------------

G_PT = PointElt.from_burnside(G)
RESTRICT_SPACES = ["quadric:9,7", "quadric:8,7", "quadric:9,6", "quadric:8,6", "binate:2,1", "proj:2,1"]
# every point monomial of POINT_COEFFS and the 2-torsion classes e^i xi^j
POINT_MONOS = sorted({m for c in POINT_COEFFS for m in c.c} | {pos(i, j) for i in (1, 2) for j in (1, 2)})
CONSTRAINT_SETS = [("rho", "eta", "phi"), ("rho", "phi"), ("eta",), ("phi",)]


def _restrict_space(sid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_space(sid)


def _candidates(pres, rng, n_monos):
    """Point monomial x canonical monomial, and tau-atoms."""
    pool = _sample_monomials(pres)
    out = [
        pres.monomial_elt(mono, PointElt.monomial(pm))
        for mono in rng.sample(pool, min(n_monos, len(pool)))
        for pm in POINT_MONOS
    ]
    if pres.has_atoms:
        out += [pres.tau_atom(a, b) for a, b in ((0, 0), (2, 1), (-2, 1), (1, 2), (4, -1))]
    return out


def _product_candidates(pres, rng, n_products):
    """Restrict-style candidates: the point monomial x canonical monomial
    terms and the tau-atoms of x*y, for single monomials x, y with
    POINT_COEFFS coefficients."""
    # low exponents, so that few products vanish
    pool = [
        m for m in _sample_monomials(pres)
        if -1 <= m[0] <= 2 and -1 <= m[1] <= 2 and m[2] <= pres.p // 2 + 1 and m[3] <= pres.q // 2 + 1
    ]
    out = []
    for _ in range(n_products):
        x, y = (pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS)) for _ in range(2))
        xy = pres.mul(x, y)
        out += [pres.monomial_elt(m, PointElt.monomial(pm)) for m, c in xy.c2.items() for pm in c.c]
        out += [pres.tau_atom(a, b) for a, b in xy.atoms]
    return out


# solve_undetermined builds its integer system from these columns and reads
# the constraint values only through the target, so equal columns give the
# same solution, kernel or InconsistentError as the product columns did
@pytest.mark.parametrize("sid", RESTRICT_SPACES)
def test_derived_g_columns_equal_the_product_columns(sid):
    pres = _restrict_space(sid)
    cands = _candidates(pres, random.Random("gcol " + sid), 12)
    cands += _product_candidates(pres, random.Random("sweep " + sid), 40)
    for cand in cands:
        for names in CONSTRAINT_SETS:
            cons = {name: True for name in names}
            derived = _g_coords(pres, cand, _image_coords(pres, cand, cons), cons, G_PT)
            assert derived == _image_coords(pres, cand.scale(G_PT), cons), (sid, str(cand), names)
