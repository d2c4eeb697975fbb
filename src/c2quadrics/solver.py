"""Undetermined-coefficient solving and the global verification suite.

The structure computations fix a grading, list the candidate classes
there, and pin the coefficients by applying the restriction rho and the
fixed-point map; ``solve_undetermined`` automates exactly that as an
exact integer linear system.  ``audit_full`` bundles every structural
check: rule homogeneity, homomorphism multiplicativity, the Mackey
axioms, the confluence probe, the additive rank law, and the shipped
relation deck.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import repeat

from .catalog import basis_slice, _enumerate_coset_monomials, make_projective
from .coefficients import BurnsideElt, G_PT, PointElt, pos, negkappa, point_rho, trans
from .grading import coset_index
from .rewrite import RingElement, _sample_monomials, confluence_probe


class InconsistentError(ArithmeticError):
    """The constraint system has no solution (a presentation bug)."""


# ---------------------------------------------------------------------------
# exact integer linear algebra (column Hermite reduction on stacked columns)


def solve_integer_system(rows, rhs):
    """Solve sum_j rows[i][j] x_j = rhs[i] over the integers.

    Returns (particular_solution, kernel_basis) with kernel vectors spanning
    the integer null space, or raises InconsistentError.

    Each of the n columns is stacked: its column of A (the first m entries)
    over its column of U, the record of the unimodular column operations
    (A_orig * U = A), so a swap, a negation or an elimination step is one
    list operation on both halves.  Pivot col sits in the first row with a
    nonzero entry from column col on, and that row is cleared beyond col;
    once no such row is left, every column past the pivots is zero in A,
    and their U halves are the kernel; x = U * y for the substituted y.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    cols = [[r[j] for r in rows] + [1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivot_rows = []
    for col in range(n):
        live = cols[col:]
        pr = next((r for r in range(m) for v in live if v[r]), None)
        if pr is None:
            break
        # gcd-reduce columns col..n-1 against row pr: the least nonzero entry
        # becomes the pivot, and floor division leaves remainders below it
        rest = [c for c in range(col, n) if cols[c][pr]]
        while rest:
            k = min(rest, key=lambda c: abs(cols[c][pr]))
            cols[col], cols[k] = cols[k], cols[col]
            if cols[col][pr] < 0:
                cols[col] = [-v for v in cols[col]]
            piv = cols[col]
            for c in range(col + 1, n):
                f = cols[c][pr] // piv[pr]
                if f:
                    cols[c] = [a - f * b for a, b in zip(cols[c], piv)]
            rest = [c for c in range(col + 1, n) if cols[c][pr]]
        pivot_rows.append(pr)
    # forward-substitute: A (triangular in the pivot pattern) y = rhs
    y = [0] * n
    for col, pr in enumerate(pivot_rows):
        acc = rhs[pr] - sum(cols[c][pr] * y[c] for c in range(col))
        if acc % cols[col][pr]:
            raise InconsistentError("no integer solution")
        y[col] = acc // cols[col][pr]
    # verify every equation
    for r in range(m):
        if sum(cols[c][r] * y[c] for c in range(n)) != rhs[r]:
            raise InconsistentError("no integer solution")
    x = [sum(cols[c][m + i] * y[c] for c in range(n)) for i in range(n)]
    return x, [v[m:] for v in cols[len(pivot_rows):]]


# ---------------------------------------------------------------------------
# flattening images to integer coordinates


def _coords(rho=None, phi=None, eta=None):
    """Integer coordinates of rho, phi and eta images; a part that is None
    adds none.  rho is a level-e element, phi and eta are pairs over the
    two fixed components."""
    out = {}
    if rho is not None:
        for k, v in rho.e.items():
            out[("e",) + k] = v
    for side, img in enumerate(phi or ()):
        for k, v in img.items():
            out[("n%d" % side, k)] = v
    for side, img in enumerate(eta or ()):
        for key, coeff in img.items():
            for mono, v in coeff.c.items():
                out[("c%d" % side, key, mono)] = v
    return out


def _image_coords(pres, x, constraints):
    return _coords(
        pres.rho(x) if constraints.get("rho") is not None else None,
        pres.phi(x) if constraints.get("phi") is not None else None,
        pres.eta(x) if constraints.get("eta") is not None else None,
    )


def _g_coords(pres, x, coords, constraints, g_pt):
    """The coordinates of g*x, derived from those of x: rho(g) = 2, so the
    rho part doubles; phi(g) = phi(2 - kappa) = 0, so the phi part vanishes;
    eta(g*x) = g*eta(x) coefficientwise."""
    out = {k: 2 * v for k, v in coords.items() if k[0] == "e"}
    if constraints.get("eta") is not None:
        out.update(_coords(eta=[S.scale(img, g_pt) for S, img in zip(pres.eta_sides, pres.eta(x))]))
    return out


def _target_coords(constraints):
    return _coords(constraints.get("rho"), constraints.get("phi"), constraints.get("eta"))


def solve_undetermined(pres, grading, candidates, constraints):
    """Find the A(C2)-coefficients on the candidates matching the targets.

    constraints: {"rho": level-e RingElement or None,
                  "phi": (dict, dict) or None, "eta": (elt, elt) or None}.
    Returns {"solution": [BurnsideElt], "unique": bool,
             "kernel": [[BurnsideElt]]}, the particular solution and kernel
    of ``solve_integer_system``; coefficients u + v*g enter through
    the two columns x and g*x per candidate.  The g*x column is derived
    from the images of x (``_g_coords``) rather than computed from the
    product g*x, which would cost one multiplication and two more normal
    forms per candidate for the same exact coordinates.
    """
    cols = []
    for cand in candidates:
        cg = cand.grading()
        if cg is not None and cg != grading:
            raise ValueError("candidate grading %s is not %s" % (cg, grading))
        coords = _image_coords(pres, cand, constraints)
        cols.append(coords)
        cols.append(_g_coords(pres, cand, coords, constraints, G_PT))
    target = _target_coords(constraints)
    keys = sorted(set().union(target, *cols), key=repr)
    rows = [[col.get(k, 0) for col in cols] for k in keys]
    rhs = [target.get(k, 0) for k in keys]
    x, kernel = solve_integer_system(rows, rhs)
    pairs = [BurnsideElt(x[2 * i], x[2 * i + 1]) for i in range(len(candidates))]
    kern = [
        [BurnsideElt(v[2 * i], v[2 * i + 1]) for i in range(len(candidates))]
        for v in kernel
    ]
    return {"solution": pairs, "unique": not kernel, "kernel": kern}


# ---------------------------------------------------------------------------
# divisibility witnesses


def divisibility_witness(pres, x, side):
    """Check infinite divisibility of x by zeta0 (side 'z0') or zeta1.

    Succeeds iff the restriction of x to the matching fixed-set component
    is a transfer; returns {"divisible": bool, "witness": levele-dict}.
    """
    images = pres.eta(x)
    if side in ("z0", 0):
        k = 0
    elif side in ("z1", 1):
        k = 1
    else:
        raise ValueError("side must be z0 or z1")
    w = pres.eta_sides[k].transfer_witness(images[k])
    if w is None:
        return {"divisible": False, "witness": None}
    return {"divisible": True, "witness": w}


# ---------------------------------------------------------------------------
# relation verification


def verify_relations(pres):
    """Check every shipped identity: zero normal form and matching images."""
    report = {"space": pres.name, "identities": [], "ok": True}
    for name, lhs, rhs in pres.identities():
        row = {"identity": name}
        diff = lhs - rhs
        row["nf_zero"] = diff.is_zero()
        row["lhs_nf"] = str(pres.normal_form(lhs))
        row["rhs_nf"] = str(pres.normal_form(rhs))
        if lhs.level == "top":
            row["rho"] = (pres.rho(lhs) - pres.rho(rhs)).is_zero()
            row["eta"] = all(l == r for l, r in zip(pres.eta(lhs), pres.eta(rhs)))
            p0l, p1l = pres.phi(lhs)
            p0r, p1r = pres.phi(rhs)
            row["phi"] = p0l == p0r and p1l == p1r
            # rho of the left side as written, one raw term taken termwise
            # to level e, never through normal_form: a reduction that is
            # wrong on both sides alike still shows here
            coeff, mono = pres.raw_lhs[name]
            row["rho_raw"] = pres._rho_mono_times(mono, point_rho(coeff)) == pres.rho(rhs).e
            # the left side as one raw term, reduced as the parser would: the
            # expanded product in lhs never meets a rule such as divdiv that
            # states the relation itself
            row["nf_raw"] = pres.normal_form(RingElement(pres, "top", c2={mono: coeff})) == rhs
            row["status"] = (
                "pass"
                if row["nf_zero"] and row["rho"] and row["rho_raw"] and row["nf_raw"]
                and row["eta"] and row["phi"]
                else "fail"
            )
        else:
            # the sides compared in the level-e quotient itself, not
            # through Presentation.normal_form as nf_zero is
            model = pres.levele
            row["sides_equal"] = model.reduce(lhs.e) == model.reduce(rhs.e)
            row["t_coherent"] = (
                pres.t_act(pres.normal_form(lhs)) - pres.t_act(pres.normal_form(rhs))
            ).is_zero()
            row["status"] = (
                "pass" if row["nf_zero"] and row["sides_equal"] and row["t_coherent"] else "fail"
            )
        if row["status"] != "pass":
            report["ok"] = False
        report["identities"].append(row)
    return report


# ---------------------------------------------------------------------------
# rank tables and the additive rank law


def rank_table(pres, coset, window):
    """Counts of basis classes per grading, split by type."""
    table = {}
    for g, label in basis_slice(pres, coset, window):
        key = (g.a, g.b)
        ranks = table.setdefault(key, {"C2/C2": 0, "C2/e": 0})
        ranks[label] += 1
    return table


def _grading_counts(pres, coset, window, shift=None):
    """How many canonical monomials of one coset sit in each absolute
    grading (a, b, m), every grading moved by ``shift`` when it is given.
    Only the gradings whose (a, b) lie in the window ((a0, a1), (b0, b1))
    before the shift are counted: the runs of ``_enumerate_coset_monomials``
    are cut to it, and each is read as two ``range``s, so the cost is
    O(strips + counted classes) at every p and q."""
    da, db, dm = (0, 0, 0) if shift is None else (shift.a, shift.b, shift.m)
    (a0, a1), (b0, b1) = window
    # the enumeration's window is on offsets g.a + 2 coset (basis_slice)
    runs = _enumerate_coset_monomials(pres, coset, ((a0 + 2 * coset, a1 + 2 * coset), (b0, b1)))
    counts = Counter()
    for _, n, a, b in runs:
        a, b = a + da, b + db
        counts.update(zip(range(a, a + 2 * n, 2), range(b, b + 2 * n, 2), repeat(coset + dm)))
    return counts


def rank_law_check(pres):
    """The split short exact sequence, additively: per coset and grading the
    C2/C2 counts of the quadric must equal the projective-space counts plus
    the nu-shifted projective-space counts (the free-orbit line sits in the
    separate C2/e summand).  Checked on the cosets 0, 1, -1 and gradings
    within 14 of the origin.  The counts are taken in a window padded by
    2|nu.a| + 2|nu.b| + 8, which covers the nu shift, so a class within the
    radius after the shift lies inside the window before it and the check
    is exact; its cost is O(window) at every p and q."""
    if not pres.has_x or pres.free_orbit:
        return True
    radius = 14
    proj = make_projective(pres.p, pres.q)
    nu = pres.x_grading
    pad = 2 * abs(nu.a) + 2 * abs(nu.b) + 8
    window = ((-radius - pad, radius + pad), (-radius - pad, radius + pad))
    for coset in (0, 1, -1):
        q_counts = _grading_counts(pres, coset, window)
        p_counts = _grading_counts(proj, coset, window)
        p_counts += _grading_counts(proj, coset - coset_index(nu), window, nu)
        keys = [
            k
            for k in set(q_counts) | set(p_counts)
            if abs(k[0]) <= radius and abs(k[1]) <= radius
        ]
        for k in keys:
            if p_counts[k] != q_counts[k]:
                return False
    return True


# ---------------------------------------------------------------------------
# the full audit


POINT_COEFFS = [
    PointElt.from_int(1),
    PointElt.from_int(3),
    PointElt.monomial(pos(1, 0)),
    PointElt.monomial(pos(2, 0)),
    PointElt.monomial(pos(0, 1)),
    PointElt.monomial(negkappa(0)),
    PointElt.monomial(negkappa(2)),
    PointElt.monomial(trans(-1)),
    PointElt.from_int(1) - PointElt.monomial(negkappa(0)),
]


def _mackey_failure(pres, x, rx):
    """The first Mackey axiom that fails on x, whose rho is rx, or None."""
    if not (pres.t_act(rx) - rx).is_zero():
        return "t rho"
    trx = pres.tau_of_levele(rx)
    if not (trx - x.scale(G_PT)).is_zero():
        return "tau rho"
    if not (pres.rho(trx) - rx.scale(2)).is_zero():
        return "rho tau"
    return None


def _hom_failure(pres, x, y, xy, rx):
    """The first of rho, eta, phi that is not multiplicative on x, y, or None."""
    if not (pres.rho(xy) - pres.mul(rx, pres.rho(y))).is_zero():
        return "rho mult"
    sides = zip(pres.eta_sides, pres.eta(x), pres.eta(y), pres.eta(xy))
    if not all(exy == S.mul(ex, ey) for S, ex, ey, exy in sides):
        return "eta mult"
    sides = zip(pres.eta_sides, pres.phi(x), pres.phi(y), pres.phi(xy))
    if not all(S.model.mul(px, py) == pxy for S, px, py, pxy in sides):
        return "phi mult"
    return None


def audit_full(pres, seed=0, samples=120, probe_samples=200):
    """Run every structural check; deterministic given the seed."""
    rng = random.Random(seed)
    report = {"space": pres.name, "checks": {}, "ok": True}

    def record(name, ok, detail=None):
        report["checks"][name] = {"ok": bool(ok)}
        if detail is not None:
            report["checks"][name]["detail"] = detail
        if not ok:
            report["ok"] = False

    # shipped identities
    try:
        rel = verify_relations(pres)
        record("relations", rel["ok"], [r["identity"] for r in rel["identities"] if r["status"] != "pass"])
    except Exception as exc:
        record("relations", False, "exception: %s" % str(exc)[:200])

    # homogeneity: normal forms preserve the grading of homogeneous inputs;
    # the detail is the first failing pair, with both gradings
    pool = _sample_monomials(pres)
    homog = None
    for _ in range(min(samples, 60)):
        if not pool:
            break
        m1, m2 = rng.choice(pool), rng.choice(pool)
        expect = pres.mono_grading(m1) + pres.mono_grading(m2)
        try:
            got = pres.mul(pres.monomial_elt(m1), pres.monomial_elt(m2)).grading()
        except Exception as exc:
            homog = (m1, m2, "exception: %s" % str(exc)[:200])
            break
        if got is not None and got != expect:
            homog = (m1, m2, str(expect), str(got))
            break
    record("homogeneity", homog is None, homog)

    # Mackey axioms and homomorphism multiplicativity on random samples,
    # each check with its own first failure
    mackey = hom = None
    for _ in range(samples):
        if not pool or (mackey and hom):
            break
        m1, m2 = rng.choice(pool), rng.choice(pool)
        try:
            x = pres.monomial_elt(m1, rng.choice(POINT_COEFFS))
            y = pres.monomial_elt(m2)
            xy = pres.mul(x, y)
            rx = pres.rho(x)
            if mackey is None and (fault := _mackey_failure(pres, x, rx)):
                mackey = (fault, m1)
            if hom is None and (fault := _hom_failure(pres, x, y, xy, rx)):
                hom = (fault, m1, m2)
        except Exception as exc:
            mackey = mackey or ("exception", str(exc)[:200])
            break
    record("mackey_axioms", mackey is None, mackey)
    record("hom_multiplicative", hom is None, hom)

    # confluence probe
    try:
        probe = confluence_probe(pres, samples=probe_samples, seed=seed + 1)
        record("confluence", not probe["mismatches"], probe["mismatches"][:2])
    except Exception as exc:
        record("confluence", False, "exception: %s" % str(exc)[:200])

    # additive rank law
    try:
        record("rank_law", rank_law_check(pres))
    except Exception as exc:
        record("rank_law", False, "exception: %s" % str(exc)[:200])

    return report
