"""Solver and audit tests: undetermined coefficients, witnesses, faults."""

import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2quadrics.catalog import (
    RestrictedGradingWarning,
    basis_slice,
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


def _reference_solve_integer_system(rows, rhs):
    """Reference: the solver with A and U as two row-major matrices, every
    column operation applied to the rows of each in turn.  The stacked-column
    solver must return the same (x, kernel) and raise on the same systems."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    A = [list(r) for r in rows]
    # U tracks the unimodular column operations: A_orig * U = A
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op_swap(j, k):
        for r in A:
            r[j], r[k] = r[k], r[j]
        for r in U:
            r[j], r[k] = r[k], r[j]

    def col_op_add(j, k, c):
        # col_j += c * col_k
        for r in A:
            r[j] += c * r[k]
        for r in U:
            r[j] += c * r[k]

    def col_op_neg(j):
        for r in A:
            r[j] = -r[j]
        for r in U:
            r[j] = -r[j]

    row = 0
    pivots = []
    for col in range(n):
        # find a row at or below `row` with a nonzero entry in columns >= col
        pr = None
        for r in range(row, m):
            if any(A[r][c] for c in range(col, n)):
                pr = r
                break
        if pr is None:
            break
        # gcd-reduce columns col..n-1 against row pr
        while True:
            nz = [c for c in range(col, n) if A[pr][c]]
            if not nz:
                break
            cmin = min(nz, key=lambda c: abs(A[pr][c]))
            if cmin != col:
                col_op_swap(col, cmin)
            if A[pr][col] < 0:
                col_op_neg(col)
            done = True
            for c in range(col + 1, n):
                if A[pr][c]:
                    col_op_add(c, col, -(A[pr][c] // A[pr][col]))
                    if A[pr][c]:
                        done = False
            if done:
                break
        if A[pr][col]:
            pivots.append((pr, col))
            row = pr + 1
    # forward-substitute: A (triangular in the pivot pattern) y = rhs
    y = [0] * n
    used_rows = set()
    for (pr, col) in pivots:
        acc = rhs[pr]
        for c in range(col):
            acc -= A[pr][c] * y[c]
        if acc % A[pr][col]:
            raise InconsistentError("no integer solution")
        y[col] = acc // A[pr][col]
        used_rows.add(pr)
    # verify the remaining equations
    for r in range(m):
        acc = sum(A[r][c] * y[c] for c in range(n))
        if acc != rhs[r]:
            raise InconsistentError("no integer solution")
    x = [sum(U[i][c] * y[c] for c in range(n)) for i in range(n)]
    ncols_used = len(pivots)
    kernel = []
    for c in range(ncols_used, n):
        vec = [U[i][c] for i in range(n)]
        if any(A[r][c] for r in range(m)):
            continue
        kernel.append(vec)
    return x, kernel


# entry pools: units and twos, a small set with zeros, and -12..12
_POOLS = ((-2, -1, 1, 2), (-6, -3, -2, -1, 0, 1, 2, 4, 6), tuple(range(-12, 13)))


def _random_system(rng):
    """A system of 0-7 rows and 0-7 columns; half the right-hand sides are
    A*x0 for a random x0, so consistent."""
    m, n = rng.randint(0, 7), rng.randint(0, 7)
    pool = rng.choice(_POOLS)
    rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [rng.randint(-5, 5) for _ in range(n)]
        return rows, [sum(a * b for a, b in zip(r, x0)) for r in rows]
    return rows, [rng.choice(pool) for _ in range(m)]


def _solve_or_none(solve, rows, rhs):
    try:
        return solve(rows, rhs)
    except InconsistentError:
        return None


@st.composite
def _systems(draw):
    """_random_system's distribution, drawn through Hypothesis so that a
    failure shrinks to a small system."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    entry = st.sampled_from(draw(st.sampled_from(_POOLS)))
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        x0 = [draw(st.integers(-5, 5)) for _ in range(n)]
        return rows, [sum(a * b for a, b in zip(r, x0)) for r in rows]
    return rows, [draw(entry) for _ in range(m)]


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_systems())
def test_integer_solver_matches_reference(system):
    rows, rhs = system
    assert _solve_or_none(solve_integer_system, rows, rhs) == _solve_or_none(
        _reference_solve_integer_system, rows, rhs
    )


def test_integer_solver_matches_reference_on_10000_systems():
    rng = random.Random(2)
    for _ in range(10000):
        rows, rhs = _random_system(rng)
        assert _solve_or_none(solve_integer_system, rows, rhs) == _solve_or_none(
            _reference_solve_integer_system, rows, rhs
        ), (rows, rhs)


def _rank(rows):
    """The rank of an integer matrix, by elimination over the rationals."""
    M = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for r in range(rank + 1, len(M)):
            f = M[r][c] / M[rank][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def _check_laws(rows, rhs):
    n = len(rows[0]) if rows else 0
    x, kernel = solve_integer_system(rows, rhs)
    assert [sum(a * b for a, b in zip(r, x)) for r in rows] == rhs
    for v in kernel:
        assert all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)
    assert len(kernel) == n - _rank(rows)


@pytest.mark.parametrize("rows", [[[4, 6]], [[6, 10, 15]], [[4, 6], [6, 9]]])
def test_integer_solver_laws_over_several_gcd_passes(rows):
    # each first row needs a second gcd pass: 6 - 4 = 2 is left below 4, and
    # 10 - 6, 15 - 2*6 leave 4 and 3 below 6
    _check_laws(rows, [2 * sum(r) for r in rows])
    _check_laws(rows, [0] * len(rows))


def test_integer_solver_laws_on_random_systems():
    rng = random.Random(7)
    solved = 0
    for _ in range(2000):
        rows, rhs = _random_system(rng)
        if _solve_or_none(solve_integer_system, rows, rhs) is not None:
            _check_laws(rows, rhs)
            solved += 1
    assert solved > 1000


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
    divw, divx = Q.gen("divw"), Q.gen("divx")
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
    divw, divx = Q.gen("divw"), Q.gen("divx")
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
    divw, divx = Q.gen("divw"), Q.gen("divx")
    assert divisibility_witness(Q, divw, "z0")["divisible"]
    assert divisibility_witness(Q, divx, "z1")["divisible"]
    assert not divisibility_witness(Q, Q.gen("cw") ** 2, "z0")["divisible"]
    assert not divisibility_witness(Q, Q.gen("cx"), "z1")["divisible"]
    # the witness of divw is zeta^p y: check it transfers back to eta0(divw)
    R0 = Q.eta_sides[0]
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


def test_rank_table_counts_the_slice_rows():
    # rank_table counts the slice's points; the counts are those of the
    # rows of basis_slice, in their order
    for sid in ("quadric:11,7", "quadric:10,10", "quadric:1,1", "bu1", "binate:2,1", "point"):
        P = make_space(sid)
        for coset in (-1, 0, 2):
            for window in (((-20, 30), (-20, 30)), ((-7, 13), (-5, 9)), ((16, 16), (0, 0))):
                table = {}
                for g, label in basis_slice(P, coset, window):
                    table.setdefault((g.a, g.b), {"C2/C2": 0, "C2/e": 0})[label] += 1
                got = rank_table(P, coset, window)
                assert list(got.items()) == list(table.items()), (sid, coset, window)


def test_rank_table_dd_is_twice_proj():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        Q = make_quadric(4, 4)
    from c2quadrics.catalog import _enumerate_coset_monomials, make_projective

    P = make_projective(2, 2)
    for coset in (0, 1, -2):
        nq = sum(n for _, n, _, _ in _enumerate_coset_monomials(Q, coset, ((-40, 40), (-40, 40))))
        np_ = sum(n for _, n, _, _ in _enumerate_coset_monomials(P, coset, ((-40, 40), (-40, 40))))
        assert nq == 2 * np_ == 2 * (P.p + P.q)


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
