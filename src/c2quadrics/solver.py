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

from .catalog import basis_slice, _enumerate_coset_monomials
from .coefficients import BurnsideElt, G, PointElt, pos, negkappa, trans
from .grading import coset_index
from .rewrite import RingElement, _sample_monomials, confluence_probe


class InconsistentError(ArithmeticError):
    """The constraint system has no solution (a presentation bug)."""


# ---------------------------------------------------------------------------
# exact integer linear algebra (column Hermite reduction)


def solve_integer_system(rows, rhs):
    """Solve sum_j rows[i][j] x_j = rhs[i] over the integers.

    Returns (particular_solution, kernel_basis) with kernel vectors spanning
    the integer null space, or raises InconsistentError.
    """
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


# ---------------------------------------------------------------------------
# flattening images to integer coordinates


def _flatten_levele(elt):
    return {("e",) + k: v for k, v in elt.e.items()}


def _flatten_component(R, elt, side):
    out = {}
    for key, coeff in elt.items():
        for mono, v in coeff.c.items():
            out[("c%d" % side, key, mono)] = v
    return out


def _flatten_noneq(elt, side):
    return {("n%d" % side, k): v for k, v in elt.items()}


def _image_coords(pres, x, constraints):
    out = {}
    if constraints.get("rho") is not None:
        out.update(_flatten_levele(pres.rho(x)))
    if constraints.get("phi") is not None:
        p0, p1 = pres.phi(x)
        out.update(_flatten_noneq(p0, 0))
        out.update(_flatten_noneq(p1, 1))
    if constraints.get("eta") is not None:
        e0, e1 = pres.eta(x)
        out.update(_flatten_component(pres.eta_data["R0"], e0, 0))
        out.update(_flatten_component(pres.eta_data["R1"], e1, 1))
    return out


def _target_coords(pres, constraints):
    out = {}
    rho_t = constraints.get("rho")
    if rho_t is not None:
        out.update(_flatten_levele(rho_t))
    phi_t = constraints.get("phi")
    if phi_t is not None:
        out.update(_flatten_noneq(phi_t[0], 0))
        out.update(_flatten_noneq(phi_t[1], 1))
    eta_t = constraints.get("eta")
    if eta_t is not None:
        out.update(_flatten_component(pres.eta_data["R0"], eta_t[0], 0))
        out.update(_flatten_component(pres.eta_data["R1"], eta_t[1], 1))
    return out


def solve_undetermined(pres, grading, candidates, constraints):
    """Find the A(C2)-coefficients on the candidates matching the targets.

    constraints: {"rho": level-e RingElement or None,
                  "phi": (dict, dict) or None, "eta": (elt, elt) or None}.
    Returns {"solution": [BurnsideElt], "unique_z": bool,
             "kernel": [[BurnsideElt]]}; coefficients u + v*g enter through
    the two columns x and g*x per candidate.
    """
    g_pt = PointElt.from_burnside(G)
    cols = []
    for cand in candidates:
        cg = cand.grading()
        if cg is not None and cg != grading:
            raise ValueError("candidate grading %s is not %s" % (cg, grading))
        cols.append(_image_coords(pres, cand, constraints))
        cols.append(_image_coords(pres, cand.scale(g_pt), constraints))
    target = _target_coords(pres, constraints)
    keys = sorted(set().union(target, *cols), key=repr)
    rows = [[col.get(k, 0) for col in cols] for k in keys]
    rhs = [target.get(k, 0) for k in keys]
    x, kernel = solve_integer_system(rows, rhs)
    # normalize against the kernel to prefer pure-integer coefficients
    sol = _kernel_normalize(x, kernel)
    pairs = [BurnsideElt(sol[2 * i], sol[2 * i + 1]) for i in range(len(candidates))]
    kern = [
        [BurnsideElt(v[2 * i], v[2 * i + 1]) for i in range(len(candidates))]
        for v in kernel
    ]
    return {"solution": pairs, "unique": not kernel, "kernel": kern}


def _kernel_normalize(x, kernel):
    """Reduce the v-parts (odd slots) of x using the kernel greedily."""
    sol = list(x)
    for vec in kernel:
        for slot in range(1, len(sol), 2):
            if vec[slot] and sol[slot] % vec[slot] == 0:
                c = sol[slot] // vec[slot]
                cand = [s - c * v for s, v in zip(sol, vec)]
                if sum(abs(t) for t in cand) < sum(abs(t) for t in sol):
                    sol = cand
    return sol


# ---------------------------------------------------------------------------
# divisibility witnesses


def divisibility_witness(pres, x, side):
    """Check infinite divisibility of x by zeta0 (side 'z0') or zeta1.

    Succeeds iff the restriction of x to the matching fixed-set component
    is a transfer; returns {"divisible": bool, "witness": levele-dict}.
    """
    e0, e1 = pres.eta(x)
    if side in ("z0", 0):
        R, img = pres.eta_data["R0"], e0
    elif side in ("z1", 1):
        R, img = pres.eta_data["R1"], e1
    else:
        raise ValueError("side must be z0 or z1")
    w = R.transfer_witness(img)
    if w is None:
        return {"divisible": False, "witness": None}
    return {"divisible": True, "witness": w}


# ---------------------------------------------------------------------------
# relation verification


def _oracle_rho_check(pres, lhs, rhs):
    """Dual route: reduce the raw rho images in the nonequivariant oracle."""
    from .noneq import NoneqQuadricRing

    model = pres.levele
    if model.kind not in ("B", "D") or model.size < 1:
        return True
    oracle = NoneqQuadricRing(
        2 * model.size + (1 if model.kind == "B" else 0), model.kind
    )

    def push(x):
        out = {}
        elt = pres.rho(x) if x.level == "top" else pres.levele_elt(x.e)
        for (a, b, d, eps), v in elt.e.items():
            key = (d, eps)
            out[key] = out.get(key, 0) + v
        return oracle.reduce(out)

    return push(lhs) == push(rhs)


def verify_relations(pres, check_homs=True):
    """Check every shipped identity: zero normal form and matching images."""
    report = {"space": pres.name, "identities": [], "ok": True}
    R0 = pres.eta_data["R0"] if pres.eta_data else None
    R1 = pres.eta_data["R1"] if pres.eta_data else None
    for name, lhs, rhs in pres.identities():
        row = {"identity": name}
        diff = lhs - rhs
        row["nf_zero"] = diff.is_zero()
        row["lhs_nf"] = str(pres.normal_form(lhs))
        row["rhs_nf"] = str(pres.normal_form(rhs))
        if check_homs and lhs.level == "top":
            row["rho"] = (pres.rho(lhs) - pres.rho(rhs)).is_zero()
            e0l, e1l = pres.eta(lhs)
            e0r, e1r = pres.eta(rhs)
            row["eta"] = R0.eq(e0l, e0r) and R1.eq(e1l, e1r)
            p0l, p1l = pres.phi(lhs)
            p0r, p1r = pres.phi(rhs)
            row["phi"] = p0l == p0r and p1l == p1r
            row["rho_oracle"] = _oracle_rho_check(pres, lhs, rhs)
            row["status"] = (
                "pass"
                if row["nf_zero"] and row["rho"] and row["eta"] and row["phi"]
                and row["rho_oracle"]
                else "fail"
            )
        else:
            if lhs.level == "e":
                row["t_coherent"] = (
                    pres.t_act(pres.normal_form(lhs)) - pres.t_act(pres.normal_form(rhs))
                ).is_zero()
                row["rho_oracle"] = _oracle_rho_check(pres, lhs, rhs)
                row["status"] = "pass" if row["nf_zero"] and row["t_coherent"] and row["rho_oracle"] else "fail"
            else:
                row["status"] = "pass" if row["nf_zero"] else "fail"
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


def rank_law_check(pres, cosets=(0, 1, -1), radius=14):
    """The split short exact sequence, additively: per coset and grading the
    C2/C2 counts of the quadric must equal the projective-space counts plus
    the nu-shifted projective-space counts (the free-orbit line sits in the
    separate C2/e summand)."""
    from .catalog import make_projective

    if not pres.has_x or pres.free_orbit:
        return True
    if pres.p + pres.q < 1:
        return True
    proj = make_projective(pres.p, pres.q)
    nu = pres.x_grading
    pad = 2 * abs(nu.a) + 2 * abs(nu.b) + 8
    window = ((-radius - pad, radius + pad), (-radius - pad, radius + pad))
    for coset in cosets:
        q_counts = {}
        for m in _enumerate_coset_monomials(pres, coset, window):
            g = pres.mono_grading(m)
            q_counts[(g.a, g.b, g.m)] = q_counts.get((g.a, g.b, g.m), 0) + 1
        p_counts = {}
        for m in _enumerate_coset_monomials(proj, coset, window):
            g = proj.mono_grading(m)
            p_counts[(g.a, g.b, g.m)] = p_counts.get((g.a, g.b, g.m), 0) + 1
        for m in _enumerate_coset_monomials(proj, coset - coset_index(nu), window):
            g = proj.mono_grading(m) + nu
            p_counts[(g.a, g.b, g.m)] = p_counts.get((g.a, g.b, g.m), 0) + 1
        keys = [
            k
            for k in set(q_counts) | set(p_counts)
            if abs(k[0]) <= radius and abs(k[1]) <= radius
        ]
        for k in keys:
            if p_counts.get(k, 0) != q_counts.get(k, 0):
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

    # homogeneity: normal forms preserve the grading of homogeneous inputs
    pool = _sample_monomials(pres, rng)
    homog_ok = True
    for _ in range(min(samples, 60)):
        if not pool:
            break
        m1, m2 = rng.choice(pool), rng.choice(pool)
        expect = pres.mono_grading(m1) + pres.mono_grading(m2)
        try:
            prod = pres.mul(pres.monomial_elt(m1), pres.monomial_elt(m2))
            got = prod.grading()
        except Exception:
            homog_ok = False
            break
        if got is not None and got != expect:
            homog_ok = False
            break
    record("homogeneity", homog_ok)

    # Mackey axioms and homomorphism multiplicativity on random samples
    g_pt = PointElt.from_burnside(G)
    mack_ok = True
    hom_ok = True
    detail = None
    for k in range(samples):
        if not pool:
            break
        m1, m2 = rng.choice(pool), rng.choice(pool)
        try:
            x = pres.monomial_elt(m1, rng.choice(POINT_COEFFS))
            y = pres.monomial_elt(m2)
            xy = pres.mul(x, y)
            rx = pres.rho(x)
            if not (pres.t_act(rx) - rx).is_zero():
                mack_ok, detail = False, ("t rho", m1)
                break
            if not (pres.tau_of_levele(rx.e) - x.scale(g_pt)).is_zero():
                mack_ok, detail = False, ("tau rho", m1)
                break
            if not (pres.rho(pres.tau_of_levele(rx.e)) - rx.scale(2)).is_zero():
                mack_ok, detail = False, ("rho tau", m1)
                break
            if not (pres.rho(xy) - pres.mul(rx, pres.rho(y))).is_zero():
                hom_ok, detail = False, ("rho mult", m1, m2)
                break
            if pres.eta_data and "eta0_cw" in pres.eta_data and pres.eta_data["eta0_cw"] is not None:
                R0, R1 = pres.eta_data["R0"], pres.eta_data["R1"]
                e0x, e1x = pres.eta(x)
                e0y, e1y = pres.eta(y)
                e0xy, e1xy = pres.eta(xy)
                if not (R0.eq(e0xy, R0.mul(e0x, e0y)) and R1.eq(e1xy, R1.mul(e1x, e1y))):
                    hom_ok, detail = False, ("eta mult", m1, m2)
                    break
                p0x, p1x = pres.phi(x)
                p0y, p1y = pres.phi(y)
                p0xy, p1xy = pres.phi(xy)
                if R0.model.kind not in ("zero",):
                    prod0 = _noneq_mul(pres, 0, p0x, p0y)
                    if prod0 != p0xy:
                        hom_ok, detail = False, ("phi mult", m1, m2)
                        break
                if R1.model.kind not in ("zero",):
                    prod1 = _noneq_mul(pres, 1, p1x, p1y)
                    if prod1 != p1xy:
                        hom_ok, detail = False, ("phi mult", m1, m2)
                        break
        except Exception as exc:
            mack_ok, detail = False, ("exception", str(exc)[:200])
            break
    record("mackey_axioms", mack_ok, detail)
    record("hom_multiplicative", hom_ok, detail)

    # confluence probe
    probe = confluence_probe(pres, samples=probe_samples, seed=seed + 1)
    record("confluence", not probe["mismatches"], probe["mismatches"][:2])

    # additive rank law
    try:
        record("rank_law", rank_law_check(pres))
    except Exception as exc:
        record("rank_law", False, "exception: %s" % str(exc)[:200])

    return report


def _noneq_mul(pres, side, x, y):
    R = pres.eta_data["R0"] if side == 0 else pres.eta_data["R1"]
    out = {}
    for (d1, e1), v1 in x.items():
        for (d2, e2), v2 in y.items():
            if R.model.kind == "binate" and e1 and e2:
                continue
            k = (d1 + d2, e1 + e2)
            out[k] = out.get(k, 0) + v1 * v2
    red = R.model.reduce({(0, 0, d, e): v for (d, e), v in out.items()})
    return {(d, e): v for (_, _, d, e), v in red.items()}
