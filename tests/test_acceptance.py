"""Acceptance suite: one test per criterion, exact assertions, one printed
pass line each.  Tolerances are zero throughout (exact arithmetic); the two
timed criteria assert their stated wall-clock budgets.
"""

import itertools
import random
import time
import warnings

import pytest

from c2quadrics.catalog import (
    RestrictedGradingWarning,
    basis_slice,
    make_binate,
    make_bu1,
    make_point,
    make_projective,
    make_quadric,
)
from c2quadrics.coefficients import (
    G,
    PointElt,
    negkappa,
    point_rho,
    point_tau,
    pos,
    trans,
)
from c2quadrics.grading import W, XW
from c2quadrics.levele import LevelEModel
from c2quadrics.noneq import NoneqQuadricRing
from c2quadrics.rewrite import RingElement, _sample_monomials, confluence_probe
from c2quadrics.solver import (
    audit_full,
    divisibility_witness,
    solve_undetermined,
    verify_relations,
)
from conftest import negated_rhs, point_transfer

warnings.simplefilter("ignore", RestrictedGradingWarning)


def nk(n):
    return PointElt.monomial(negkappa(n))


def _report(line):
    print("ACCEPTANCE %s" % line)


def deck_sizes(bound):
    """(m, n) for every quadric type with both half-size indices <= bound."""
    out = []
    for m in range(1, 2 * bound + 2):
        for n in range(1, 2 * bound + 2):
            pm = (m - 1) // 2 if m % 2 else m // 2
            pn = (n - 1) // 2 if n % 2 else n // 2
            if pm > bound or pn > bound or m + n < 2:
                continue
            out.append((m, n))
    return out


# -- 1: figure reproduction -------------------------------------------------


def test_criterion_1_figures():
    t0 = time.time()
    rows = basis_slice(make_quadric(11, 7), 0, ((-4, 44), (-4, 44)))
    dt1 = time.time() - t0
    c2 = sorted((g.a, g.b) for g, label in rows if label == "C2/C2")
    assert c2 == [
        (0, 0), (0, 2), (2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 12),
        (8, 6), (8, 12), (10, 12), (10, 14), (12, 14), (14, 14), (16, 14), (18, 14),
    ]
    ce = [(g.a, g.b) for g, label in rows if label == "C2/e"]
    assert len(ce) == 1 and sum(ce[0]) == 16

    t0 = time.time()
    rows = basis_slice(make_quadric(15, 7), 0, ((-4, 44), (-4, 44)))
    dt2 = time.time() - t0
    c2 = [(g.a, g.b) for g, label in rows if label == "C2/C2"]
    assert len(c2) == 20
    ce = [(g.a, g.b) for g, label in rows if label == "C2/e"]
    assert len(ce) == 1 and sum(ce[0]) == 20
    assert dt1 < 1.0 and dt2 < 1.0
    _report("1 figure reproduction: pass (%.2fs, %.2fs)" % (dt1, dt2))


# -- 2: relation decks -------------------------------------------------------


def test_criterion_2_theorem_decks():
    t0 = time.time()
    failures = []
    for m, n in deck_sizes(3):
        pres = make_quadric(m, n)
        if pres.free_orbit:
            ok = all((l - r).is_zero() for _, l, r in pres.identities())
            if not ok:
                failures.append((m, n))
            continue
        rep = verify_relations(pres)
        if not rep["ok"]:
            failures.append((m, n, [r["identity"] for r in rep["identities"] if r["status"] != "pass"]))
    dt = time.time() - t0
    assert failures == [], failures
    assert dt < 60.0, dt
    _report("2 relation decks (p,q <= 3, all four types): pass (%.1fs)" % dt)


# -- 3: undetermined-coefficient solver --------------------------------------


def test_criterion_3_lemma_solver():
    for p, q in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        Q = make_quadric(2 * p + 1, 2 * q + 1)
        candidates = [
            Q.tau_atom(2 * q, p - q),
            Q.monomial_elt((0, 0, 0, 0, 1, 0, 0), nk(2)),
            Q.monomial_elt((1, 0, 1, 0, 1, 0, 0), nk(4)),
        ]
        divw, divx = Q.gen("divw"), Q.gen("divx")
        prod = Q.mul(divw, divx)
        res = solve_undetermined(
            Q, p * W + q * XW, candidates, {"rho": Q.rho(prod), "phi": Q.phi(prod)}
        )
        assert [(c.u, c.v) for c in res["solution"]] == [(1, 0), (0, 0), (0, 0)], (p, q)

        D = make_quadric(2 * p, 2 * q + 1)
        candidates = [
            D.monomial_elt((0, 1, 0, 0, 1, 0, 0), PointElt.monomial(trans(-1))),
            D.monomial_elt((0, 0, 1, 0, 1, 0, 0), nk(2)),
            D.monomial_elt((1, 0, 2, 0, 1, 0, 0), nk(4)),
        ]
        divw, divx = D.gen("divw"), D.gen("divx")
        prod = D.mul(divw, divx)
        res = solve_undetermined(
            D, p * W + q * XW, candidates, {"rho": D.rho(prod), "phi": D.phi(prod)}
        )
        assert [(c.u, c.v) for c in res["solution"]] == [(1, 0), (0, 0), (0, 0)], (p, q)
    _report("3 coefficient solver reproduces (1,0,0) at BB and DB sizes: pass")


# -- 4: parity tables --------------------------------------------------------


def test_criterion_4_parity_tables():
    checked = 0
    for p in range(1, 5):
        for q in range(0, 5):
            D = make_quadric(2 * p, 2 * q + 1)
            x = D.gen("x")
            if p % 2 == 0:
                assert (x * x).is_zero(), ("DB", p, q)
            else:
                rhs = D.monomial_elt(
                    (0, 0, p - 1, q, 1, 0, 0), PointElt.monomial(pos(2, 0))
                )
                assert x * x == rhs, ("DB", p, q)
            checked += 1
    for p in range(1, 5):
        for q in range(1, 5):
            D = make_quadric(2 * p, 2 * q)
            x = D.gen("x")
            if p % 2 == 0 and q % 2 == 0:
                assert (x * x).is_zero(), ("DD", p, q)
            elif p % 2 == 1 and q % 2 == 1:
                rhs = D.monomial_elt(
                    (0, 0, p - 1, q - 1, 1, 0, 0), PointElt.monomial(pos(2, 0))
                )
                assert x * x == rhs, ("DD", p, q)
            elif p % 2 == 0:
                assert x * x == D.monomial_elt((1, 0, p, q - 1, 1, 0, 0)), ("DD", p, q)
            else:
                assert x * x == D.monomial_elt((0, 1, p - 1, q, 1, 0, 0)), ("DD", p, q)
            checked += 1
    _report("4 parity tables (x^2, %d cases): pass" % checked)


# -- 5: the unit in DD(1,1) --------------------------------------------------


def test_criterion_5_unit():
    Q = make_quadric(2, 2)
    u = Q.scalar(1) - Q.gen("x") * nk(2)
    assert u * u == Q.scalar(1)
    # the uncorrected divisible classes differ from cw, cx by that unit
    assert Q.mul(Q.gen("cw"), u) * u == Q.gen("cw")
    assert Q.mul(Q.gen("cx"), u) * u == Q.gen("cx")
    divw_orig = Q.gen("cw") - Q.mul(Q.gen("cw"), Q.gen("x")) * nk(2)
    divx_orig = Q.gen("cx") - Q.mul(Q.gen("cx"), Q.gen("x")) * nk(2)
    assert divw_orig == Q.mul(Q.gen("cw"), u)
    assert divx_orig == Q.mul(Q.gen("cx"), u)
    assert divisibility_witness(Q, divw_orig, "z0")["divisible"]
    assert divisibility_witness(Q, divx_orig, "z1")["divisible"]
    _report("5 unit (1 - e^-2 k x)^2 = 1 and unit-twisted divisibles: pass")


# -- 6: nonequivariant oracle -------------------------------------------------


def test_criterion_6_oracle():
    # every relation passes, its rho-image column included; test_noneq.py
    # checks the level-e quotient itself against ideal membership
    for m, n in deck_sizes(3):
        pres = make_quadric(m, n)
        if pres.free_orbit:
            continue
        rep = verify_relations(pres)
        for row in rep["identities"]:
            assert row.get("rho", True) and row["status"] == "pass", (m, n, row["identity"])
    # oracle bases: one class in each even degree (odd quadrics), doubled
    # middle degree (even quadrics), for n <= 12
    for n in range(3, 13):
        ring = NoneqQuadricRing(n)
        degs = [d for _, d in ring.basis()]
        if n % 2 == 1:
            assert degs == list(range(0, 2 * (n - 2) + 1, 2))
        else:
            p = n // 2
            assert len(degs) == 2 * p and degs.count(2 * (p - 1)) == 2
    _report("6 nonequivariant oracle (rho images and basis counts): pass")


# -- 7: Mackey axioms ---------------------------------------------------------


POINT_POOL = (
    [pos(i, j) for i in range(0, 4) for j in range(0, 3)]
    + [negkappa(k) for k in range(0, 5)]
    + [trans(k) for k in range(-4, 0)]
)


FREE = LevelEModel("free")


def test_criterion_7_mackey():
    # exhaustive over the point-ring monomial table
    for m1, m2 in itertools.product(POINT_POOL, repeat=2):
        x = PointElt.monomial(m1)
        y = PointElt.monomial(m2)
        assert point_rho(x * y) == FREE.mul(point_rho(x), point_rho(y))
        assert point_transfer(point_rho(x)) == PointElt.from_burnside(G) * x
    for k in range(-4, 3):
        w = {(2 * k, 0, 0, 0): 1}
        assert point_rho(point_tau(2 * k)) == FREE.one_plus_t(w)
        for m in POINT_POOL:
            x = PointElt.monomial(m)
            assert point_tau(2 * k) * x == point_transfer(FREE.mul(w, point_rho(x)))

    g_pt = PointElt.from_burnside(G)
    rng = random.Random(2026)
    for (m, n) in [(5, 3), (4, 3), (3, 4), (4, 4), (1, 3)]:
        pres = make_quadric(m, n)
        pool = _sample_monomials(pres)
        for _ in range(500):
            mono = rng.choice(pool)
            x = pres.monomial_elt(mono)
            rx = pres.rho(x)
            assert (pres.t_act(rx) - rx).is_zero(), (m, n, mono)
            assert (pres.tau_of_levele(rx.e) - x.scale(g_pt)).is_zero(), (m, n, mono)
            w = pres.rho(x).e
            assert (
                pres.rho(pres.tau_of_levele(w)) - pres.levele_elt(w).scale(2)
            ).is_zero()
        # Frobenius: tau(w) z = tau(w rho(z)) on a sample
        for _ in range(50):
            mono = rng.choice(pool)
            z = pres.monomial_elt(mono)
            w = {(2, 1, 0, 0): 1}
            lhs = pres.mul(pres.tau_of_levele(w), z)
            rhs = pres.tau_of_levele(pres.levele.mul(w, pres.rho(z).e))
            assert (lhs - rhs).is_zero(), (m, n, mono)

    # level-e t-action on the module generators.  For the odd-odd decks the
    # underlying involution has determinant -1 and swaps the rulings, so
    # t(y) = c^{p+q} - y; for the even-odd and even-even decks it has
    # determinant +1 and fixes them (forced by t o rho = rho together with
    # rho(x), and by the eta tables), so t(y) = y.  t(cy) = cy always.
    BB = make_quadric(5, 3)
    y = {(0, 0, 0, 1): 1}
    ty = BB.levele.t_act(y)
    assert ty == {(0, 0, BB.p + BB.q, 0): 1, (0, 0, 0, 1): -1}
    cy = {(0, 0, 1, 1): 1}
    assert BB.levele.t_act(cy) == cy
    DB = make_quadric(4, 3)
    assert DB.levele.t_act(y) == y
    DD = make_quadric(4, 4)
    assert DD.levele.t_act(y) == y
    assert DD.levele.t_act(cy) == cy
    _report("7 Mackey axioms (exhaustive point table + 500 samples/deck): pass")


# -- 8: divisibility witnesses -------------------------------------------------


def test_criterion_8_witnesses():
    succeeded = refused = 0
    for m, n in deck_sizes(3):
        pres = make_quadric(m, n)
        if pres.free_orbit:
            continue
        divw, divx = pres.gen("divw"), pres.gen("divx")
        assert divisibility_witness(pres, divw, "z0")["divisible"], (m, n)
        assert divisibility_witness(pres, divx, "z1")["divisible"], (m, n)
        succeeded += 2
        # refusal applies where the kappa-correction is genuinely present;
        # when divw = cw^p on the nose (p = 1 even-sided decks) or up to a
        # unit (the 2,2 case), cw^p itself is divisible, and over an empty
        # component divisibility is blanket
        if pres.p and pres.q and pres.corrw:
            cwp = pres.gen("cw") ** pres.p
            assert not divisibility_witness(pres, cwp, "z0")["divisible"], (m, n)
            refused += 1
        if pres.p and pres.q and pres.corrx:
            cxq = pres.gen("cx") ** pres.q
            assert not divisibility_witness(pres, cxq, "z1")["divisible"], (m, n)
            refused += 1
    _report("8 divisibility witnesses (%d successes, %d refusals): pass" % (succeeded, refused))


# -- 9: binate rings -----------------------------------------------------------


def test_criterion_9_binate():
    for p in range(0, 5):
        for q in range(0, 5):
            if p == 0 and q == 0:
                continue
            S = make_binate(p, q)
            lhs = (S.gen("cw") ** p) * (S.gen("cx") ** q)
            assert lhs == S.tau_atom(2 * q, p - q), (p, q)
    _report("9 binate relation cw^p cx^q = z0^q z1^p t(y) for p,q <= 4: pass")


# -- 10: confluence probe and fault detection ----------------------------------


def test_criterion_10_probe_and_faults():
    decks = [
        ("point", make_point()),
        ("bu1", make_bu1()),
        ("proj:2,1", make_projective(2, 1)),
        ("binate:1,1", make_binate(1, 1)),
        ("quadric:5,3", make_quadric(5, 3)),
        ("quadric:4,3", make_quadric(4, 3)),
        ("quadric:3,4", make_quadric(3, 4)),
        ("quadric:4,4", make_quadric(4, 4)),
    ]
    for name, pres in decks:
        rep = confluence_probe(pres, samples=1000, seed=20260808)
        assert rep["mismatches"] == [], (name, rep["mismatches"][:2])
    # a seeded fault in any single rule is detected by the audit: flip the
    # rule's sign, and where that is a no-op (rules whose value is 0),
    # disable the rule instead
    target = make_quadric(3, 3)
    nrules = len(target.rules)
    detected = 0
    for idx in range(nrules):
        caught = False
        for fault in ("flip", "disable"):
            pres = make_quadric(3, 3)
            name, guard, rhs = pres.rules[idx]
            if fault == "flip":
                pres.rules[idx] = (name, guard, negated_rhs(rhs))
            else:
                pres.rules[idx] = (name, lambda m: False, rhs)
            rep = audit_full(pres, seed=4, samples=120, probe_samples=120)
            if not rep["ok"]:
                caught = True
                break
        assert caught, (idx, target.rules[idx][0])
        detected += 1
    assert detected == nrules
    _report(
        "10 confluence probe (1000 samples x %d decks) and %d/%d rule faults detected: pass"
        % (len(decks), detected, nrules)
    )
