"""Graded monomial rewrite engine for the quadric cohomology rings.

A presentation is a finitely generated algebra over the point ring,
with generators z0, z1, cw, cx (always) and possibly x, together with
the two corrected powers divw, divx that admit negative powers of the
Euler-type classes z0, z1.  A level-C2/C2 monomial is the exponent tuple

    (s, t, i, j, d, w0, w1)
     |  |  |  |  |  |   +-- divx exponent
     |  |  |  |  |  +----- divw exponent
     |  |  |  |  +-------- x exponent
     |  |  |  +----------- cx exponent  (>= 0)
     |  |  +-------------- cw exponent  (>= 0)
     |  +----------------- z1 exponent  (negative = divided class)
     +-------------------- z0 exponent  (negative = divided class)

An element at level C2/C2 is a point-ring linear combination of
canonical monomials plus an integer combination of transfer atoms
tau(iota^a zeta^b y) for presentations with a free-orbit summand;
an element at level C2/e is an integer combination of monomials
iota^a zeta^b c^d y^eps (see levele.py).

Rewrite rules are (name, guard, rhs) triples; rhs values are true ring
identities, so reduction along any rule order computes the same class.
``confluence_probe`` checks that empirically on random products.
"""

from __future__ import annotations

import random

from .coefficients import (
    InhomogeneousError,
    LevelECoeff,
    PointElt,
    point_rho,
    point_tau,
)
from .grading import Grading, IOTA_DEG, OMEGA0, OMEGA1, W, XW


class NonTerminatingError(RuntimeError):
    """Rewriting exceeded its step budget (a bad rule set)."""


MONO_ONE = (0, 0, 0, 0, 0, 0, 0)


def mono_mul(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def mono_str(m):
    s, t, i, j, d, w0, w1 = m
    names = [("z0", s), ("z1", t), ("cw", i), ("cx", j), ("x", d), ("divw", w0), ("divx", w1)]
    parts = []
    for name, e in names:
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


class RingElement:
    """An element of a presentation, at level C2/C2 or C2/e."""

    __slots__ = ("pres", "level", "c2", "atoms", "e")

    def __init__(self, pres, level="top", c2=None, atoms=None, e=None):
        self.pres = pres
        self.level = level
        self.c2 = {}   # {monomial: PointElt}
        self.atoms = {}  # {(a, b): int} for tau(iota^a zeta^b y)
        self.e = {}    # {(a, b, d, eps): int}
        if c2:
            for m, v in c2.items():
                if isinstance(v, int):
                    v = PointElt.from_int(v)
                if not v.is_zero():
                    self.c2[m] = self.c2.get(m, PointElt()) + v
        if atoms:
            for k, v in atoms.items():
                if v:
                    self.atoms[k] = self.atoms.get(k, 0) + v
        if e:
            for k, v in e.items():
                if v:
                    self.e[k] = self.e.get(k, 0) + v

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.pres.scalar(other)
        if self.level != other.level:
            raise ValueError("cannot add level-%s and level-%s elements" % (self.level, other.level))
        out = RingElement(self.pres, self.level)
        out.c2 = dict(self.c2)
        for m, v in other.c2.items():
            w = out.c2.get(m, PointElt()) + v
            if w.is_zero():
                out.c2.pop(m, None)
            else:
                out.c2[m] = w
        out.atoms = dict(self.atoms)
        for k, v in other.atoms.items():
            w = out.atoms.get(k, 0) + v
            if w:
                out.atoms[k] = w
            else:
                out.atoms.pop(k, None)
        out.e = dict(self.e)
        for k, v in other.e.items():
            w = out.e.get(k, 0) + v
            if w:
                out.e[k] = w
            else:
                out.e.pop(k, None)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = RingElement(self.pres, self.level)
        out.c2 = {m: -v for m, v in self.c2.items()}
        out.atoms = {k: -v for k, v in self.atoms.items()}
        out.e = {k: -v for k, v in self.e.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.pres.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, coeff):
        """Multiply by a point-ring coefficient (or int)."""
        if isinstance(coeff, int):
            out = RingElement(self.pres, self.level)
            out.c2 = {m: v * coeff for m, v in self.c2.items() if not (v * coeff).is_zero()}
            out.atoms = {k: v * coeff for k, v in self.atoms.items() if v * coeff}
            out.e = {k: v * coeff for k, v in self.e.items() if v * coeff}
            return out
        return self.pres.mul(self.pres.coeff_elt(coeff), self)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, PointElt):
            return self.scale(other)
        return self.pres.mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, PointElt)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers only via divided classes")
        out = self.pres.scalar(1)
        for _ in range(n):
            out = self.pres.mul(out, self)
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.pres.scalar(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        a = self.pres.normal_form(self)
        b = self.pres.normal_form(other)
        return a.level == b.level and a.c2 == b.c2 and a.atoms == b.atoms and a.e == b.e

    def __hash__(self):
        raise TypeError("ring elements are unhashable; compare normal forms")

    def is_zero(self):
        nf = self.pres.normal_form(self)
        return not nf.c2 and not nf.atoms and not nf.e

    def grading(self):
        """Common grading, or None for 0; raises if inhomogeneous."""
        g = None

        def join(g, h):
            if g is None:
                return h
            if g != h:
                raise InhomogeneousError("mixed gradings %s and %s" % (g, h))
            return g

        for m, v in self.c2.items():
            g = join(g, self.pres.mono_grading(m) + v.grading())
        for (a, b), v in self.atoms.items():
            g = join(g, self.pres.atom_grading(a, b))
        for k, v in self.e.items():
            g = join(g, self.pres.levele.key_grading(k))
        return g

    def __str__(self):
        parts = []
        for m, v in sorted(self.c2.items()):
            cs, ms = str(v), mono_str(m)
            if cs == "1":
                parts.append(ms)
            elif ms == "1":
                parts.append(cs if len(cs.split(" ")) == 1 else "(%s)" % cs)
            else:
                parts.append("%s*%s" % (cs if len(cs.split(" ")) == 1 else "(%s)" % cs, ms))
        for (a, b), v in sorted(self.atoms.items()):
            inner = []
            if a:
                inner.append("iota^%d" % a)
            if b:
                inner.append("zeta^%d" % b)
            inner.append("y")
            atom = "t(%s)" % "*".join(inner)
            parts.append(atom if v == 1 else "%d*%s" % (v, atom))
        from .levele import levele_str

        if self.e:
            parts.append(levele_str(self.e))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class Presentation:
    """A finitely presented graded algebra over the point ring.

    Configured by the catalog; carries the rewrite rules, the basis
    descriptor, the level-e model, and the homomorphism data.
    """

    def __init__(self, name, space, cfg):
        self.name = name
        self.space = space
        self.p = cfg.get("p")
        self.q = cfg.get("q")
        self.has_x = cfg.get("has_x", False)
        self.has_atoms = cfg.get("has_atoms", False)
        self.z0_inv = cfg.get("z0_inv", False)
        self.z1_inv = cfg.get("z1_inv", False)
        self.free_orbit = cfg.get("free_orbit", False)
        self.levele = cfg["levele"]
        self.x_grading = cfg.get("x_grading")
        self.rho_x = cfg.get("rho_x")       # (A, B, C): rho(x) = iota^A zeta^B c^C y
        self.xsq_terms = cfg.get("xsq_terms")    # list of (PointElt, mono)
        self.corrw = cfg.get("corrw", [])   # cw^p - divw as [(PointElt, mono)]
        self.corrx = cfg.get("corrx", [])
        self.top_terms = cfg.get("top_terms")    # cw^p cx^q as [(coeff|"atom", mono|(a,b))]
        self.divdiv_terms = cfg.get("divdiv_terms")
        self.eta_data = cfg.get("eta_data")  # filled by catalog (component rings etc.)
        self.identity_specs = cfg.get("identities", [])
        self.max_steps = cfg.get("max_steps", 200000)
        self.rules = cfg["rules"]            # [(name, guard, rhs)]
        self.canonical_fn = cfg["canonical"]
        self.warnings = cfg.get("warnings", [])
        self.gen_info = cfg.get("gen_info", {})

    # -- element constructors ---------------------------------------------

    def zero(self, level="top"):
        return RingElement(self, level)

    def scalar(self, n):
        if self.free_orbit:
            # the unit is tau(y): n = tau(n*y)
            return self.normal_form(RingElement(self, "top", c2={MONO_ONE: n}))
        return RingElement(self, "top", c2={MONO_ONE: n})

    def coeff_elt(self, coeff):
        return self.normal_form(RingElement(self, "top", c2={MONO_ONE: coeff}))

    def monomial_elt(self, mono, coeff=1):
        return self.normal_form(RingElement(self, "top", c2={mono: coeff}))

    def gen(self, name):
        idx = {"z0": 0, "z1": 1, "cw": 2, "cx": 3, "x": 4, "divw": 5, "divx": 6}[name]
        mono = tuple(1 if k == idx else 0 for k in range(7))
        return self.monomial_elt(mono)

    def tau_atom(self, a, b, coeff=1):
        if not self.has_atoms:
            raise ValueError("%s has no free-orbit summand" % self.name)
        return RingElement(self, "top", atoms={(a, b): coeff})

    def levele_elt(self, e):
        out = RingElement(self, "e")
        out.e = self.levele.reduce(dict(e))
        return out

    # -- gradings -----------------------------------------------------------

    def mono_grading(self, m):
        s, t, i, j, d, w0, w1 = m
        g = s * OMEGA0 + t * OMEGA1 + i * W + j * XW
        if d:
            g = g + d * self.x_grading
        if w0:
            g = g + (w0 * self.p) * W
        if w1:
            g = g + (w1 * self.q) * XW
        return g

    def atom_grading(self, a, b):
        return a * IOTA_DEG + b * OMEGA1 + Grading(self.levele.y_degree())

    # -- normal form ---------------------------------------------------------

    def canonical(self, mono):
        return self.canonical_fn(mono)

    def normal_form(self, x, rule_order=None):
        if x.level == "e":
            out = RingElement(self, "e")
            out.e = self.levele.reduce(x.e)
            return out
        rules = self.rules if rule_order is None else [self.rules[k] for k in rule_order]
        work = {}
        for m, v in x.c2.items():
            if isinstance(v, int):
                v = PointElt.from_int(v)
            if not v.is_zero():
                work[m] = work.get(m, PointElt()) + v
        atoms = dict(x.atoms)
        done = {}
        steps = 0

        def push(m2, v2):
            tot = work.get(m2, PointElt()) + v2
            if tot.is_zero():
                work.pop(m2, None)
            else:
                work[m2] = tot

        while work:
            steps += 1
            if steps > self.max_steps:
                raise NonTerminatingError(
                    "step budget exceeded in %s while reducing %s" % (self.name, x)
                )
            mono = next(iter(work))
            coeff = work.pop(mono)
            if coeff.is_zero():
                continue
            if self.free_orbit and mono[4] == 0:
                # everything is a multiple of the unit tau(y):
                # M*c = M*c*tau(y) = tau(rho(M*c)*y)
                w = self._rho_mono_times(mono, coeff)
                w = self.levele.mul(w, {(0, 0, 0, 1): 1})
                res = self.tau_of_levele(w)
                for m2, v2 in res.c2.items():
                    push(m2, v2)
                for k2, v2 in res.atoms.items():
                    atoms[k2] = atoms.get(k2, 0) + v2
                continue
            if self.canonical(mono):
                prev = done.get(mono)
                tot = coeff if prev is None else prev + coeff
                if tot.is_zero():
                    done.pop(mono, None)
                else:
                    done[mono] = tot
                continue
            matched = None
            for name, guard, rhs in rules:
                if guard(mono):
                    matched = rhs
                    break
            if matched is None:
                # products of divided classes from opposite sides carry
                # transfer (or kappa-killed) coefficients; absorb them by
                # Frobenius reciprocity, which inverts the zeta powers at
                # level e
                from .coefficients import transfer_witness

                wit = transfer_witness(coeff)
                if wit is not None:
                    w = {}
                    for n, v in wit.c.items():
                        for k2, v2 in self._rho_mono(mono).items():
                            key = (k2[0] + n, k2[1], k2[2], k2[3])
                            w[key] = w.get(key, 0) + v * v2
                    res = self.tau_of_levele(w)
                    for m2, v2 in res.c2.items():
                        push(m2, v2)
                    for k2, v2 in res.atoms.items():
                        atoms[k2] = atoms.get(k2, 0) + v2
                    continue
                raise NonTerminatingError(
                    "no rule matches non-canonical monomial %s in %s"
                    % (mono_str(mono), self.name)
                )
            val = matched(mono)
            for m2, v2 in val.c2.items():
                push(m2, coeff * v2)
            if val.atoms:
                rc = point_rho(coeff)
                for (a, b), v2 in val.atoms.items():
                    res = self.tau_of_levele(
                        self.levele.reduce(
                            {(a + k, b, 0, 1): v2 * n for k, n in rc.c.items()}
                        )
                    )
                    for m3, v3 in res.c2.items():
                        push(m3, v3)
                    for k3, v3 in res.atoms.items():
                        atoms[k3] = atoms.get(k3, 0) + v3
        out = RingElement(self, "top")
        out.c2 = done
        out.atoms = {k: v for k, v in atoms.items() if v}
        return out

    # -- multiplication -------------------------------------------------------

    def mul(self, x, y):
        if x.level == "e" and y.level == "e":
            out = RingElement(self, "e")
            out.e = self.levele.mul(x.e, y.e)
            return out
        if x.level == "e":
            x, y = y, x
        if y.level == "e":
            # top * level-e acts through rho
            return self.levele_elt(self.levele.mul(self.rho(x).e, y.e))
        terms = RingElement(self, "top")
        for m1, v1 in x.c2.items():
            for m2, v2 in y.c2.items():
                terms = terms + RingElement(self, "top", c2={mono_mul(m1, m2): v1 * v2})
            for (a, b), v2 in y.atoms.items():
                w = self._rho_mono_times(m1, v1 * v2)
                shifted = self.levele.mul(w, {(a, b, 0, 1): 1})
                terms = terms + self.tau_of_levele(shifted)
        for (a, b), v1 in x.atoms.items():
            for m2, v2 in y.c2.items():
                w = self._rho_mono_times(m2, v2 * v1)
                shifted = self.levele.mul(w, {(a, b, 0, 1): 1})
                terms = terms + self.tau_of_levele(shifted)
            for (a2, b2), v2 in y.atoms.items():
                # tau(w) tau(w') = tau(w * (1+t) w')
                w2 = self.levele.one_plus_t({(a2, b2, 0, 1): v2})
                prod = self.levele.mul({(a, b, 0, 1): v1}, w2)
                terms = terms + self.tau_of_levele(prod)
        return self.normal_form(terms)

    # -- Mackey structure -------------------------------------------------------

    def _rho_mono(self, m):
        """Level-e image of a monomial, as {(a, b, d, eps): int}."""
        s, t, i, j, d, w0, w1 = m
        a = 2 * s + 2 * j
        b = -s + t + i - j
        deg_c = i + j
        eps = 0
        if w0:
            # rho(divw) = rho(cw^p) = zeta^p c^p
            b += w0 * self.p
            deg_c += w0 * self.p
        if w1:
            a += 2 * w1 * self.q
            b -= w1 * self.q
            deg_c += w1 * self.q
        out = {(a, b, deg_c, 0): 1}
        for _ in range(d):
            A, B, C = self.rho_x
            out = self.levele.mul(out, {(A, B, C, 1): 1})
        return out

    def _rho_mono_times(self, m, coeff):
        base = self._rho_mono(m)
        out = {}
        for n, v in point_rho(coeff).c.items():
            for (a, b, dd, eps), v2 in base.items():
                k = (a + n, b, dd, eps)
                out[k] = out.get(k, 0) + v * v2
        return self.levele.reduce(out)

    def rho(self, x):
        x = self.normal_form(x)
        if x.level == "e":
            return x
        out = {}
        for m, v in x.c2.items():
            for k, n in self._rho_mono_times(m, v).items():
                out[k] = out.get(k, 0) + n
        for (a, b), v in x.atoms.items():
            w = self.levele.one_plus_t({(a, b, 0, 1): v})
            for k, n in w.items():
                out[k] = out.get(k, 0) + n
        return self.levele_elt(out)

    def t_act(self, x):
        if x.level != "e":
            raise ValueError("t acts on level-e elements")
        return self.levele_elt(self.levele.t_act(x.e))

    def tau_of_levele(self, w):
        """Transfer: level-e element (raw dict or RingElement) to level top."""
        if isinstance(w, RingElement):
            w = w.e
        w = self.levele.reduce(w)
        out = RingElement(self, "top")
        for (a, b, d, eps), v in w.items():
            if self.free_orbit:
                # two-point underlying space: 1 = y + ty, so
                # tau(iota^a zeta^b) = (1 + (-1)^a) tau(iota^a zeta^b y)
                if eps == 1:
                    out = out + RingElement(self, "top", atoms={(a, b): v})
                elif a % 2 == 0:
                    out = out + RingElement(self, "top", atoms={(a, b): 2 * v})
                continue
            if eps == 0:
                out = out + self._tau_lift(a, b, d, 0, v)
            elif eps == 2:
                # binate t(y): tau(iota^a zeta^b ty) = (-1)^a tau(iota^a zeta^b y)
                sign = -1 if a % 2 else 1
                out = out + RingElement(self, "top", atoms={(a, b): sign * v})
            else:
                if self.has_atoms and d == 0:
                    out = out + RingElement(self, "top", atoms={(a, b): v})
                else:
                    A, B, C = self.rho_x
                    if d < C:
                        raise ValueError("cannot lift %s along rho(x)" % ((a, b, d, eps),))
                    out = out + self._tau_lift(a - A, b - B, d - C, 1, v)
        return out

    def _tau_lift(self, a, b, d, xexp, v):
        """tau(iota^a zeta^b c^d) * x^xexp via Frobenius reciprocity."""
        tb = b - d
        if tb >= 0:
            coeff = point_tau(LevelECoeff.iota(a)) * v
            mono = (0, tb, d, 0, xexp, 0, 0)
        else:
            coeff = point_tau(LevelECoeff.iota(a + 2 * tb)) * v
            mono = (-tb, 0, d, 0, xexp, 0, 0)
        if coeff.is_zero():
            return RingElement(self, "top")
        return self.normal_form(RingElement(self, "top", c2={mono: coeff}))

    # -- homomorphisms -------------------------------------------------------

    def eta(self, x):
        """Restriction to the two fixed-set components."""
        from .catalog import eta_of_element

        return eta_of_element(self, self.normal_form(x))

    def phi(self, x):
        """Fixed-point map: collapse eta through the point ring."""
        e0, e1 = self.eta(x)
        r0, r1 = self.eta_data["R0"], self.eta_data["R1"]
        return (r0.phi(e0), r1.phi(e1))

    # -- misc ------------------------------------------------------------------

    def identities(self):
        """The shipped relation deck: list of (name, lhs, rhs)."""
        out = []
        for name, build in self.identity_specs:
            lhs, rhs = build(self)
            out.append((name, lhs, rhs))
        return out

    def __repr__(self):
        return "Presentation(%s)" % self.name


def confluence_probe(pres, samples=100, seed=0):
    """Reduce random products along shuffled rule orders; report mismatches.

    Returns {"samples": n, "mismatches": [...]}; an empty mismatch list is
    the pass condition.
    """
    rng = random.Random(seed)
    report = {"space": pres.name, "samples": samples, "mismatches": []}
    pool = _sample_monomials(pres, rng)
    if not pool:
        return report
    for k in range(samples):
        n_factors = rng.choice([2, 2, 3])
        monos = [rng.choice(pool) for _ in range(n_factors)]
        coeff = rng.choice([1, 1, 1, -1, 2])
        raw = RingElement(pres, "top", c2={_mono_product(monos): coeff})
        try:
            ref = pres.normal_form(raw)
        except NonTerminatingError as exc:
            report["mismatches"].append({"sample": k, "error": str(exc)})
            continue
        for _ in range(3):
            order = list(range(len(pres.rules)))
            rng.shuffle(order)
            try:
                alt = pres.normal_form(raw, rule_order=order)
            except NonTerminatingError as exc:
                report["mismatches"].append({"sample": k, "error": str(exc)})
                continue
            if not (alt.c2 == ref.c2 and alt.atoms == ref.atoms):
                report["mismatches"].append(
                    {
                        "sample": k,
                        "input": str(raw),
                        "expected": str(ref),
                        "got": str(alt),
                    }
                )
    return report


def _mono_product(monos):
    out = MONO_ONE
    for m in monos:
        out = mono_mul(out, m)
    return out


def _sample_monomials(pres, rng):
    """A pool of canonical monomials of small exponents."""
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
