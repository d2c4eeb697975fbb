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

Rewrite rules are (name, guard, rhs) triples; each rhs is a true ring
identity, so reduction along any rule order computes the same class.
An rhs is data, ``(pairs, atoms)``: the monomial m equals the sum of
c * (m * delta) over the ``pairs`` (c, delta), each c as the raw
(point monomial, int) pairs of its coefficient, plus the sum of
n * (m * delta) * tau(iota^a zeta^b y) over the ``atoms`` ((a, b), n, delta).
A rule whose rhs depends on the monomial holds a function of the monomial
that returns that pair instead.  The catalog builds the rules from the
finished presentation (``pres.rules``).  A non-canonical monomial that no
rule rewrites raises ``NotAClassError``; exceeding the step budget raises
``NonTerminatingError``.  ``confluence_probe`` checks confluence
empirically on random products.
"""

from __future__ import annotations

import itertools
import random

from .coefficients import (
    ONE_PAIRS,
    BurnsideElt,
    InhomogeneousError,
    PointElt,
    _add_term,
    _mixed,
    _mul_into,
    _point,
    point_rho,
    point_tau,
    pos,
    transfer_witness,
)
from .grading import Grading, IOTA_DEG, OMEGA1
from .levele import NotAClassError, iota_zeta_names, levele_str


class NonTerminatingError(RuntimeError):
    """Rewriting exceeded its step budget (a bad rule set)."""


# the generators, in the order of their slots in a monomial
GENERATORS = ("z0", "z1", "cw", "cx", "x", "divw", "divx")

MONO_ONE = (0, 0, 0, 0, 0, 0, 0)


def gen_mono(name):
    """The monomial of the generator ``name``: exponent 1 in its slot."""
    k = GENERATORS.index(name)
    return MONO_ONE[:k] + (1,) + MONO_ONE[k + 1:]


def mono_mul(m1, m2):
    s, t, i, j, d, w0, w1 = m1
    s2, t2, i2, j2, d2, w02, w12 = m2
    return (s + s2, t + t2, i + i2, j + j2, d + d2, w0 + w02, w1 + w12)


# In-place accumulators under the ring operations, next to
# coefficients._add_term and coefficients._mul_into.  Results may share
# PointElt coefficients with their operands, never the dicts.


def _mul_term(d, m, a, b):
    """d[m] += a*b for a raw {point monomial: int} coefficient d[m] and
    (monomial, int) pairs a, b; a zero sum removes m."""
    w = d.get(m)
    if w is None:
        w = d[m] = {}
    _mul_into(w, a, b)
    if not w:
        del d[m]


def _add_count(d, k, v):
    """d[k] += v for an int v; a zero sum removes k."""
    v += d.get(k, 0)
    if v:
        d[k] = v
    else:
        d.pop(k, None)


def _add_elt(c2, atoms, x):
    """Add the level-top element x into the two dicts."""
    for m, v in x.c2.items():
        _add_term(c2, m, v)
    for k, v in x.atoms.items():
        _add_count(atoms, k, v)


def _add_raw(c2, atoms, x):
    """``_add_elt`` into a c2 dict of raw coefficients."""
    for m, v in x.c2.items():
        _mul_term(c2, m, v.c.items(), ONE_PAIRS)
    for k, v in x.atoms.items():
        _add_count(atoms, k, v)


def _terms_elt(pres, terms):
    """Assemble the sum of terms as a raw RingElement.

    terms entries are ("mono", point_coeff, mono) or ("atom", int, (a, b)),
    the latter n * tau(iota^a zeta^b y).
    """
    out = RingElement(pres, "top")
    for kind, c, payload in terms:
        if kind == "mono":
            _add_term(out.c2, payload, c)
        else:
            _add_count(out.atoms, payload, c)
    return out


def _places(n):
    """The exponents that ``_class_key`` compares i with when p = n, and j
    with when q = n (n is None for bu1).  Between two adjacent places the
    key of an exponent stays the same."""
    return (0, 1) if n is None else (0, 1, n - 1, n)


def _class_key(m, p, q):
    """The threshold class of monomial m in a presentation with exponents
    p, q (None for bu1).  s, t, d, w0, w1 are clamped to -1..2.  i is placed
    against ``_places(p)``, that is 0, 1, p-1 and p: i itself at -1..1 (-1
    below 0), 2 strictly between 1 and p-1, 3 at p-1, 4 at p and 5 above p;
    with p None only 0 and 1 count, and every i above 1 is 2.  j is placed
    against ``_places(q)`` alike.  The key depends on p and q only through
    these places, so a class table does not grow with them.  The comparisons
    are written out here, not read from ``_places``, because every rewrite
    step computes a key."""
    s, t, i, j, d, w0, w1 = m
    return (
        s if -1 <= s <= 2 else (2 if s > 0 else -1),
        t if -1 <= t <= 2 else (2 if t > 0 else -1),
        i if -1 <= i <= 1 else -1 if i < 0
        else 2 if p is None or i < p - 1 else 3 + (i >= p) + (i > p),
        j if -1 <= j <= 1 else -1 if j < 0
        else 2 if q is None or j < q - 1 else 3 + (j >= q) + (j > q),
        d if -1 <= d <= 2 else (2 if d > 0 else -1),
        w0 if -1 <= w0 <= 2 else (2 if w0 > 0 else -1),
        w1 if -1 <= w1 <= 2 else (2 if w1 > 0 else -1),
    )


def mono_str(m):
    parts = []
    for name, e in zip(GENERATORS, m):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


class RingElement:
    """An element of a presentation, at level C2/C2 or C2/e.

    An element is a value: once built, its terms never change, and every
    operation returns a new element.  That is what makes the two caches on
    it sound.  ``_eta`` holds the pair of fixed-component images that
    ``Presentation.eta`` computed for it, or None before the first call.
    ``_nf`` marks an element that is its own normal form in ``pres``: it
    is set on the results of ``Presentation.normal_form`` (both levels)
    and on the level-e results of ``rho``, ``t_act`` and ``mul``, kept by
    ``+``, ``-``, negation and scaling when every operand carries it, and
    never set by a constructor or ``levele_elt``.  ``normal_form`` returns
    a marked element of its own presentation as it is.
    """

    __slots__ = ("pres", "level", "c2", "atoms", "e", "_eta", "_nf")

    def __init__(self, pres, level="top", c2=None, atoms=None, e=None):
        self.pres = pres
        self.level = level
        self._eta = None
        self._nf = False
        self.c2 = {}   # {monomial: PointElt}
        self.atoms = {}  # {(a, b): int} for tau(iota^a zeta^b y)
        self.e = {}    # {(a, b, d, eps): int}
        if c2:
            for m, v in c2.items():
                if isinstance(v, int):
                    v = PointElt.from_int(v)
                if v.c:
                    self.c2[m] = v
        if atoms:
            self.atoms = {k: v for k, v in atoms.items() if v}
        if e:
            self.e = {k: v for k, v in e.items() if v}

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        """An int, BurnsideElt or PointElt operand as an element of this
        presentation; None for an operand of any other type."""
        if isinstance(other, int):
            return self.pres.scalar(other)
        if isinstance(other, BurnsideElt):
            other = PointElt.from_burnside(other)
        if isinstance(other, PointElt):
            return self.pres.coeff_elt(other)
        return None

    def __add__(self, other, _minus=False):
        """self + other.  ``__sub__`` passes ``_minus``: other's terms are
        then negated on their way into the copy of self's, so a difference
        is one pass as well, and ``perfbench/tracer.py``, which wraps this
        method, times sums and differences together."""
        if not isinstance(other, RingElement):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if self.level != other.level:
            raise NotAClassError(
                "cannot add level-%s and level-%s elements" % (self.level, other.level)
            )
        out = RingElement(self.pres, self.level)
        c2 = out.c2 = dict(self.c2)
        for m, v in other.c2.items():
            _add_term(c2, m, -v if _minus else v)
        atoms = out.atoms = dict(self.atoms)
        for k, v in other.atoms.items():
            _add_count(atoms, k, -v if _minus else v)
        e = out.e = dict(self.e)
        for k, v in other.e.items():
            _add_count(e, k, -v if _minus else v)
        out._nf = self._nf and other._nf and other.pres is self.pres
        return out

    __radd__ = __add__

    def __neg__(self):
        out = RingElement(self.pres, self.level)
        out.c2 = {m: -v for m, v in self.c2.items()}
        out.atoms = {k: -v for k, v in self.atoms.items()}
        out.e = {k: -v for k, v in self.e.items()}
        out._nf = self._nf
        return out

    def __sub__(self, other):
        return self.__add__(other, True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, coeff):
        """Multiply by a point-ring coefficient (or int).  A marked top-level
        element without atoms is scaled termwise: its canonical monomials
        stay canonical under any coefficient (on the free orbit, where no
        monomial is canonical, it is 0)."""
        if isinstance(coeff, int):
            out = RingElement(
                self.pres,
                self.level,
                c2={m: v * coeff for m, v in self.c2.items()},
                atoms={k: v * coeff for k, v in self.atoms.items()},
                e={k: v * coeff for k, v in self.e.items()},
            )
            out._nf = self._nf
            return out
        if self._nf and self.level == "top" and not self.atoms and isinstance(coeff, PointElt):
            out = RingElement(self.pres, "top", c2={m: v * coeff for m, v in self.c2.items()})
            out._nf = True
            return out
        return self.pres.mul(self.pres.coeff_elt(coeff), self)

    def __mul__(self, other):
        if isinstance(other, RingElement):
            return self.pres.mul(self, other)
        if isinstance(other, BurnsideElt):
            other = PointElt.from_burnside(other)
        if isinstance(other, (int, PointElt)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def int_split(self):
        """(v, u) with self = v*u: for one term whose coefficient is v times a
        point monomial e^a xi^b, u is the term with coefficient e^a xi^b.  An
        atom or level-e term has an integer v, and its u has coefficient 1."""
        if len(self.c2) + len(self.atoms) + len(self.e) == 1:
            if not self.c2:
                v, = (self.atoms or self.e).values()
                ones = (dict.fromkeys(terms, 1) for terms in (self.atoms, self.e))
                return v, RingElement(self.pres, self.level, None, *ones)
            (mono, c), = self.c2.items()
            if len(c.c) == 1:
                (key, v), = c.c.items()
                if key[0] == "p":
                    return v, RingElement(self.pres, self.level, {mono: PointElt.monomial(key)})
        return 1, self  # any other element

    def __pow__(self, n):
        """self^n, the one implementation of powers: 1 + m with m*m = 0 gives
        1 + n*m, else x^n = v^n * u^n for x = v*u (``int_split``).  u^n is
        built from exponents for e^a xi^b times a monomial whose n-th power
        has no x or is canonical (x^n takes n rewrite steps in type DB) and
        for iota^a zeta^b c^d y^eps at level e, eps <= 1.  Any other u is
        multiplied in until u*out == out (0, 1, or the free orbit's unit
        t(y)), faster here than square-and-multiply."""
        if n < 0:
            raise ValueError("negative powers only via divided classes")
        pres = self.pres
        if not n:
            return pres.scalar(1)
        x = pres.normal_form(self)
        if n > 1 and x.c2.get(MONO_ONE) == 1:
            m = x - 1
            if pres.mul(m, m).is_zero():
                return x + m.scale(n - 1)
        v, u = x.int_split()
        out, steps = pres.scalar(1), n
        if u is not x and u.c2:
            (mono, c), = u.c2.items()
            mono = tuple(e * n for e in mono)
            if not mono[4] or pres.canonical(mono):
                _, a, b = next(iter(c.c))
                out, steps = pres.monomial_elt(mono, PointElt.monomial(pos(a * n, b * n))), 0
        elif u is not x and u.e:
            (a, b, d, eps), = u.e
            if eps < 2:  # the binate model's t(y) is multiplied out
                out, steps = pres.levele_elt({(n * a, n * b, n * d, 0): 1}), n * eps
                u = pres.levele_elt({(0, 0, 0, 1): 1}) if eps else u
        for _ in range(steps):
            nxt = pres.mul(out, u)
            if nxt == out:
                break
            out = nxt
        return out if v == 1 or out.is_zero() else out.scale(v ** n)

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        pres = self.pres
        a, b = pres.normal_form(self), pres.normal_form(other)
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
            atom = "t(%s)" % "*".join(iota_zeta_names(a, b) + ["y"])
            parts.append(atom if v == 1 else "%d*%s" % (v, atom))
        if self.e:
            parts.append(levele_str(self.e))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class Derived:
    """The tables a presentation derives from ``canonical_fn`` and ``rules``
    together: ``classes`` {class key: True | (rule index, ...)} of
    ``rule_class``, ``strips`` {(coset, p, q): canonical strips} of
    catalog._enumerate_coset_monomials, and ``pool``, the tuple of
    ``_sample_monomials`` (None before first use)."""

    __slots__ = ("canonical_fn", "rules", "classes", "strips", "pool")

    def __init__(self, canonical_fn, rules):
        self.canonical_fn = canonical_fn
        self.rules = list(rules)
        self.classes = {}
        self.strips = {}
        self.pool = None


class Presentation:
    """A finitely presented graded algebra over the point ring.

    Configured by the catalog; carries the rewrite rules, the basis
    descriptor, the level-e model, and the homomorphism data.

    Its caches are filled on first use and live as long as it does:
    ``eta_images`` (catalog._eta_base), the divided-class data of the two
    ``eta_sides`` (catalog._fill_divided, at the first divided
    restriction), and the tables derived from ``rules`` and
    ``canonical_fn`` together, in one ``Derived`` record (``_derived``):
    the class table of ``rule_class``, the canonical strips of the basis
    enumeration and the pool of ``_sample_monomials``.  The record is
    replaced whole when ``canonical_fn`` is replaced or ``rules`` changes
    (a rule may be replaced in place).  The caches live in the 26
    attributes that __init__ sets: on CPython 3.11 a 30th gives each
    instance dict its own keys, and every attribute load gets slower, so
    ``max_steps`` is a class attribute (an instance may shadow it).
    """

    max_steps = 200000                       # the step bound of normal_form

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
        # (A, B, C): rho(x) = iota^A zeta^B c^C y; None: rho(x) = 0 (the
        # free orbit, where x itself is 0, and the decks without x)
        self.rho_x = cfg.get("rho_x")
        self.xsq_terms = cfg.get("xsq_terms")    # list of (PointElt, mono)
        self.corrw = cfg.get("corrw", [])   # cw^p - divw as [(PointElt, mono)]
        self.corrx = cfg.get("corrx", [])
        self.top_terms = cfg.get("top_terms")    # cw^p cx^q as [(coeff|"atom", mono|(a,b))]
        self.divdiv_terms = cfg.get("divdiv_terms")
        self.eta_sides = ()                  # one catalog.EtaSide per fixed component
        self.eta_images = {}                 # filled by catalog._eta_base on first use
        # [(name, (coeff, mono), terms)]: each relation's left side as one
        # unreduced term, its right side as terms (``_terms_elt``)
        self.relations = cfg.get("relations", [])
        self.rules = []                      # [(name, guard, rhs)], set by the catalog
        # None, or a test of the monomials M with e*xi*M = 0, set with the
        # rules (catalog._build_rules); normal_form drops a term there whose
        # coefficient is mixed e^a xi^b (a, b >= 1) alone
        self.mixed_dies = None
        self.canonical_fn = cfg["canonical"]
        # {relation name: (coeff, mono)}, read by solver.verify_relations
        self.raw_lhs = {name: raw for name, raw, _ in self.relations}
        self._tables = Derived(self.canonical_fn, [])   # see _derived
        self.warnings = []

    # -- element constructors ---------------------------------------------

    def zero(self, level="top"):
        return RingElement(self, level)

    def scalar(self, n):
        return self.normal_form(RingElement(self, "top", c2={MONO_ONE: n}))

    def coeff_elt(self, coeff):
        return self.normal_form(RingElement(self, "top", c2={MONO_ONE: coeff}))

    def monomial_elt(self, mono, coeff=1):
        return self.normal_form(RingElement(self, "top", c2={mono: coeff}))

    def gen(self, name):
        return self.monomial_elt(gen_mono(name))

    def tau_atom(self, a, b, coeff=1):
        if not self.has_atoms:
            raise ValueError("%s has no free-orbit summand" % self.name)
        return RingElement(self, "top", atoms={(a, b): coeff})

    def levele_elt(self, e):
        out = RingElement(self, "e")
        out.e = self.levele.reduce(dict(e))
        return out

    def _levele_nf(self, e):
        """The marked level-e element of a dict that a ``LevelEModel``
        operation has already reduced."""
        out = RingElement(self, "e")
        out.e = e
        out._nf = True
        return out

    # -- gradings -----------------------------------------------------------

    def mono_grading(self, m):
        """The grading g of the monomial m = (s, t, i, j, d, w0, w1), one
        closed form that builds one ``Grading``.

        g = s*OMEGA0 + t*OMEGA1 + i*W + j*XW + d*nu + (w0*p)*W + (w1*q)*XW,
        with nu the x grading (divw sits in the grading of cw^p, divx in
        that of cx^q).  In canonical coordinates OMEGA0 = (0, 2, -1),
        OMEGA1 = (-2, 0, 1), W = (0, 0, 1) and XW = (2, 2, -1), so with
        I = i + w0*p and J = j + w1*q:

            g.a = 2J - 2t + d*nu.a
            g.b = 2s + 2J + d*nu.b
            g.m = t - s + I - J + d*nu.m

        p, q and nu are read only when w0, w1 or d is nonzero: bu1 has no
        p, q, and the decks without x have no nu.
        """
        s, t, i, j, d, w0, w1 = m
        if w0:
            i += w0 * self.p
        if w1:
            j += w1 * self.q
        a, b, n = 2 * (j - t), 2 * (s + j), t - s + i - j
        if d:
            nu = self.x_grading
            a += d * nu.a
            b += d * nu.b
            n += d * nu.m
        return Grading(a, b, n)

    def atom_grading(self, a, b):
        return a * IOTA_DEG + b * OMEGA1 + Grading(self.levele.y_degree())

    # -- normal form ---------------------------------------------------------

    def canonical(self, mono):
        return self.canonical_fn(mono)

    def rule_class(self, mono):
        """True if mono is canonical, else the indices into ``rules`` of the
        rules whose guards hold on mono, in rule order.

        Every guard and the canonical test compare each exponent only with
        fixed thresholds (s, t, d, w0, w1 with -1..2; i with 0, 1, p-1, p;
        j with 0, 1, q-1, q), so the answer depends on the threshold class of
        mono alone (``_class_key``), and is kept per class, in the record of
        ``_derived``."""
        key = _class_key(mono, self.p, self.q)
        entry = self._derived().classes.get(key)
        if entry is None:
            entry = self._classify(mono, key)
        return entry

    def _derived(self):
        """The ``Derived`` record of the current ``rules`` and
        ``canonical_fn``: a new, empty one if ``canonical_fn`` is not the
        function the kept record was built with, or ``rules`` no longer
        equals its copy of them (a rule may be replaced in place)."""
        d = self._tables
        if d.canonical_fn is not self.canonical_fn or d.rules != self.rules:
            d = self._tables = Derived(self.canonical_fn, self.rules)
        return d

    def _classify(self, mono, key):
        """Fill the entry of mono's class by one ordered guard scan, in the
        class table that ``_derived`` last returned."""
        if self.canonical_fn(mono):
            entry = True
        else:
            entry = tuple(k for k, (_, guard, _) in enumerate(self.rules) if guard(mono))
        self._tables.classes[key] = entry
        return entry

    def normal_form(self, x, rule_order=None, _fallbacks=(), _seen=None):
        """The canonical form of x; a marked x of this presentation is
        returned as it is.

        Each non-canonical monomial is rewritten by the first rule, in
        ``rules`` order or in ``rule_order`` (a permutation of the rule
        indices), whose guard holds on it.  The rule's rhs data (see the
        module docstring; a function of the monomial is called first) is
        applied in one way.  Its transfer terms come first, each in one
        Frobenius step as in ``mul``: coeff * mono * delta * n * tau(w) =
        tau(rho(coeff) * rho(mono * delta) * n * w) by ``_frobenius``, into
        the work set.  Then coeff * c goes to mono * delta for each pair
        (c, delta), straight into the work set.  The work set is reduced
        first in, first out.  A popped term with a mixed coefficient e^a
        xi^b alone (a, b >= 1) on a monomial of ``mixed_dies`` is 0 and
        is dropped; the drop counts as a step.  Both orders read the per-class
        table of ``rule_class``, keyed by ``_class_key``, which is exact
        only while every guard and the canonical test compare exponents with
        the class thresholds alone.  ``_fallbacks`` holds the monomials whose
        transfer-witness fallback is under way in an enclosing call; meeting
        one again would recurse without end, so it is not a class.

        The work set holds every coefficient as a raw {point monomial: int}
        dict that the loop owns and changes in place through
        ``coefficients._mul_into``.  Each ``PointElt`` of x is copied on the
        way in; a plain dict among x's coefficients is a raw one that
        ``mul`` hands over, and is taken as it is.  A coefficient is wrapped
        in a ``PointElt`` only where it leaves the work set: into ``done``
        (the result), and on the way to ``transfer_witness``, ``point_rho``
        and ``_frobenius``.

        A set passed as ``_seen`` receives every table entry with two or
        more rules that this loop fires, so with the default order it lists
        the only steps at which another order could choose differently.
        Nested reductions (through ``tau_of_levele``) always take the
        default order and are not recorded."""
        if x._nf and x.pres is self:
            return x
        if x.level == "e":
            return self._levele_nf(self.levele.reduce(x.e))
        rules = self.rules
        rank = None if rule_order is None else {k: n for n, k in enumerate(rule_order)}
        table = self._derived().classes
        p, q = self.p, self.q
        max_steps = self.max_steps
        dies = self.mixed_dies
        work = {}
        for m, v in x.c2.items():
            if isinstance(v, PointElt):
                v = dict(v.c)
            if v:
                work[m] = v
        atoms = {k: v for k, v in x.atoms.items() if v}
        done = {}
        steps = 0
        # first in, first out through a snapshot of work's keys, skipping a
        # key that a cancellation removed (one that comes back before its
        # turn keeps its old place); next(iter(work)) would rescan the
        # deleted slots at the front of the dict on every pop
        keys, pos = (), 0

        while work:
            if pos == len(keys):
                keys, pos = list(work), 0
            mono = keys[pos]
            pos += 1
            coeff = work.pop(mono, None)
            if coeff is None:
                continue
            steps += 1
            if steps > max_steps:
                try:
                    what = str(x)
                except ValueError:  # the int-to-str digit limit
                    what = "an element with coefficients too large to print"
                raise NonTerminatingError(
                    "step budget exceeded in %s while reducing %s" % (self.name, what)
                )
            cls = _class_key(mono, p, q)
            entry = table.get(cls)
            if entry is None:
                entry = self._classify(mono, cls)
            if entry is True:
                _add_term(done, mono, _point(coeff))
                continue
            if dies is not None and mono[5] + mono[6] == 1 and dies(mono) and all(map(_mixed, coeff)):
                continue  # e*xi*mono = 0 (``mixed_dies``), never canonical
            if not entry:
                # products of divided classes from opposite sides carry
                # transfer (or kappa-killed) coefficients; absorb them by
                # Frobenius reciprocity, M*tau(w) = tau(rho(M)*w), which
                # inverts the zeta powers at level e
                wit = None if mono in _fallbacks else transfer_witness(_point(coeff))
                if wit is not None:
                    w = self._frobenius(mono, wit, {(0, 0, 0, 0): 1}, _fallbacks + (mono,))
                    _add_raw(work, atoms, w)
                    continue
                raise NotAClassError("no rule rewrites %s in %s" % (mono_str(mono), self.name))
            first = entry[0] if rank is None else min(entry, key=rank.__getitem__)
            if _seen is not None and len(entry) > 1:
                _seen.add(entry)
            rhs = rules[first][2]
            pairs, transfers = rhs(mono) if callable(rhs) else rhs
            items = coeff.items()
            if transfers:
                # coeff * mono * delta * n * tau(w) = tau(rho(coeff * mono * delta) * n * w)
                rc = point_rho(_point(coeff))
                for (a, b), n, delta in transfers:
                    w = self._frobenius(mono_mul(mono, delta), rc, {(a, b, 0, 1): n}, _fallbacks)
                    _add_raw(work, atoms, w)
            # coeff * c at mono * delta, added as _mul_term does, without a
            # call per pair
            s, t, i, j, d, w0, w1 = mono
            for c, (s2, t2, i2, j2, d2, w02, w12) in pairs:
                m2 = (s + s2, t + t2, i + i2, j + j2, d + d2, w0 + w02, w1 + w12)
                w = work.get(m2)
                if w is None:
                    w = work[m2] = {}
                _mul_into(w, items, c)
                if not w:
                    del work[m2]
        out = RingElement(self, "top")
        out.c2 = done
        out.atoms = atoms
        out._nf = True
        return out

    # -- multiplication -------------------------------------------------------

    def mul(self, x, y):
        if x.level == "e" or y.level == "e":
            # top * level-e acts through rho
            ex = x.e if x.level == "e" else self.rho(x).e
            ey = y.e if y.level == "e" else self.rho(y).e
            return self._levele_nf(self.levele.mul(ex, ey))
        # the cross terms, as raw coefficients inside the element that
        # normal_form takes over (see its docstring)
        terms = RingElement(self, "top")
        c2, atoms = terms.c2, terms.atoms
        for m1, v1 in x.c2.items():
            a1 = v1.c.items()
            for m2, v2 in y.c2.items():
                _mul_term(c2, mono_mul(m1, m2), a1, v2.c.items())
            for (a, b), v2 in y.atoms.items():
                _add_raw(c2, atoms, self._frobenius(m1, point_rho(v1 * v2), {(a, b, 0, 1): 1}))
        for (a, b), v1 in x.atoms.items():
            for m2, v2 in y.c2.items():
                _add_raw(c2, atoms, self._frobenius(m2, point_rho(v2 * v1), {(a, b, 0, 1): 1}))
            for (a2, b2), v2 in y.atoms.items():
                # tau(w) tau(w') = tau(w * (1+t) w')
                w2 = self.levele.one_plus_t({(a2, b2, 0, 1): v2})
                prod = self.levele.mul({(a, b, 0, 1): v1}, w2)
                _add_raw(c2, atoms, self.tau_of_levele(prod))
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
        if not d:
            return {(a, b, deg_c, 0): 1}
        if self.rho_x is None:
            return {}
        # rho(x)^d = iota^(dA) zeta^(dB) c^(dC) y^d, reduced once
        A, B, C = self.rho_x
        return self.levele.reduce({(a + d * A, b + d * B, deg_c + d * C, d): 1})

    def _rho_mono_times(self, m, rc):
        """rho(m) times rc, a level-e dict {(n, 0, 0, 0): int} such as
        ``point_rho`` returns, reduced: rho of a monomial without x is
        c^(i+j), which can leave the basis."""
        return self.levele.mul(rc, self._rho_mono(m))

    def rho(self, x):
        x = self.normal_form(x)
        if x.level == "e":
            return x
        # a sum of reduced images is reduced once its zero terms are gone
        out = {}
        for m, v in x.c2.items():
            for k, n in self._rho_mono_times(m, point_rho(v)).items():
                out[k] = out.get(k, 0) + n
        for (a, b), v in x.atoms.items():
            w = self.levele.one_plus_t({(a, b, 0, 1): v})
            for k, n in w.items():
                out[k] = out.get(k, 0) + n
        return self._levele_nf({k: n for k, n in out.items() if n})

    def _frobenius(self, mono, rc, w, fallbacks=()):
        """tau(rho(M)*rc*w) for a monomial M and level-e dicts rc and w: by
        Frobenius reciprocity M*c*tau(w) when rc = rho(c) (``point_rho``),
        and M*c when w = 1 and rc is a transfer witness of c.  ``fallbacks``
        is passed on to ``tau_of_levele``."""
        return self.tau_of_levele(self.levele.mul(self._rho_mono_times(mono, rc), w), fallbacks)

    def t_act(self, x):
        if x.level != "e":
            raise ValueError("t acts on level-e elements")
        return self._levele_nf(self.levele.t_act(x.e))

    def tau_of_levele(self, w, _fallbacks=()):
        """Transfer: level-e element (raw dict or RingElement) to level top,
        y and t(y) terms as atoms where the deck has them, the rest lifted
        through ``_tau_lift`` and ``normal_form`` (on the free orbit its rule
        ``unit``, 1 = tau(y), makes atoms of them).  ``_fallbacks`` is passed
        on."""
        if isinstance(w, RingElement):
            w = w.e
        w = self.levele.reduce(w)
        out = RingElement(self, "top")
        c2, atoms = out.c2, out.atoms
        for (a, b, d, eps), v in w.items():
            if eps == 0:
                _add_elt(c2, atoms, self._tau_lift(a, b, d, 0, v, _fallbacks))
            elif eps == 2:
                # binate t(y): tau(iota^a zeta^b ty) = (-1)^a tau(iota^a zeta^b y)
                _add_count(atoms, (a, b), -v if a % 2 else v)
            else:
                if self.has_atoms and d == 0:
                    _add_count(atoms, (a, b), v)
                else:
                    A, B, C = self.rho_x
                    if d < C:
                        raise ValueError("cannot lift %s along rho(x)" % ((a, b, d, eps),))
                    _add_elt(c2, atoms, self._tau_lift(a - A, b - B, d - C, 1, v, _fallbacks))
        return out

    def _tau_lift(self, a, b, d, xexp, v, fallbacks):
        """tau(iota^a zeta^b c^d) * x^xexp via Frobenius reciprocity."""
        tb = b - d
        if tb >= 0:
            coeff = point_tau(a) * v
            mono = (0, tb, d, 0, xexp, 0, 0)
        else:
            coeff = point_tau(a + 2 * tb) * v
            mono = (-tb, 0, d, 0, xexp, 0, 0)
        if coeff.is_zero():
            return RingElement(self, "top")
        return self.normal_form(RingElement(self, "top", c2={mono: coeff}), None, fallbacks)

    # -- homomorphisms -------------------------------------------------------

    def eta(self, x):
        """Restriction to the two fixed-set components.  The images are
        kept on x when x belongs to this presentation and handed out as
        fresh dicts, so a caller may change what it gets."""
        img = x._eta if x.pres is self else None
        if img is None:
            # a lazy import: catalog imports this module
            from .catalog import eta_of_element

            img = eta_of_element(self, self.normal_form(x))
            if x.pres is self:
                x._eta = img
        return dict(img[0]), dict(img[1])

    def phi(self, x):
        """Fixed-point map: collapse eta through the point ring."""
        return tuple(S.R.phi(img) for S, img in zip(self.eta_sides, self.eta(x)))

    # -- misc ------------------------------------------------------------------

    def identities(self):
        """The shipped relation deck: list of (name, lhs, rhs).  Each of
        ``relations`` as coeff * the generator powers of mono = the normal
        form of its terms, then rho(x) where the deck has it and the
        nonequivariant relation at level e: c^P = 2y (B), 2cy (D, P > 1)."""
        out = []
        for name, (coeff, mono), terms in self.relations:
            lhs = self.coeff_elt(coeff)
            for g, e in zip(GENERATORS, mono):
                if e:
                    lhs = lhs * self.gen(g) ** e
            out.append((name, lhs, self.normal_form(_terms_elt(self, terms))))
        if self.rho_x is not None:
            A, B, C = self.rho_x
            out.append(("rho(x)", self.rho(self.gen("x")), self.levele_elt({(A, B, C, 1): 1})))
        kind, P = self.levele.kind, self.levele.size
        if kind == "B" or (kind == "D" and P > 1):
            d = int(kind == "D")
            out.append((
                "c^%d = 2%sy" % (P, "c" if d else ""),
                self.levele_elt({(0, 0, P, 0): 1}),
                self.levele_elt({(0, 0, d, 1): 2}),
            ))
        return out

    def __repr__(self):
        return "Presentation(%s)" % self.name


def confluence_probe(pres, samples=100, seed=0):
    """Reduce random products along shuffled rule orders; report mismatches.

    Returns {"samples": n, "mismatches": [...]}; an empty mismatch list is
    the pass condition.  Every order reads the same class table
    (``Presentation.rule_class``), so the probe checks that the rule order
    does not change a normal form; that the table agrees with a direct
    guard scan is checked by the exhaustive class-table test.

    The reference reduction records the table entries with two or more
    rules that it fires (``normal_form``'s ``_seen``).  A shuffled order
    that ranks each such entry's first rule before the others fires the
    same rule as the reference at every step: the work set then evolves
    identically, so the reduction retraces the reference and ends at the
    same normal form.  Such an order is drawn as always but not reduced, and
    the report is the one that reducing it would give, for any rule set.

    The draws are those of ``random.Random(seed)``'s ``choice`` and
    ``shuffle``, written out on its ``getrandbits`` (``_below`` and
    ``_shuffled``): the same stream, samples and orders, without a method
    call per index.  An order is tested through its rank array, which is
    filled only when the reference fired a table entry of two or more
    rules: otherwise every order retraces it.
    """
    rng = random.Random(seed)
    report = {"space": pres.name, "samples": samples, "mismatches": []}
    pool = _sample_monomials(pres)
    if not pool:
        return report
    bits = rng.getrandbits
    n_rules = len(pres.rules)
    steps = _shuffle_steps(n_rules)
    for k in range(samples):
        n_factors = (2, 2, 3)[_below(bits, 3)]
        monos = [pool[_below(bits, len(pool))] for _ in range(n_factors)]
        coeff = (1, 1, 1, -1, 2)[_below(bits, 5)]
        raw = RingElement(pres, "top", c2={_mono_product(monos): coeff})
        seen = set()
        try:
            ref = pres.normal_form(raw, _seen=seen)
        except (NonTerminatingError, NotAClassError) as exc:
            report["mismatches"].append({"sample": k, "error": str(exc)})
            continue
        for _ in range(3):
            order = _shuffled(bits, n_rules, steps)
            if not seen:
                continue
            rank = [0] * n_rules
            for place, r in enumerate(order):
                rank[r] = place
            if all(min(entry, key=rank.__getitem__) == entry[0] for entry in seen):
                continue
            try:
                alt = pres.normal_form(raw, rule_order=order)
            except (NonTerminatingError, NotAClassError) as exc:
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


def _below(getrandbits, n):
    """The index that ``random.Random.choice`` draws from n > 0 items:
    getrandbits(n.bit_length()), drawn again until it is below n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle_steps(n):
    """(i, (i + 1).bit_length()) for i from n - 1 down to 1: the places of
    ``random.Random.shuffle``'s swaps on n items, with the bit width of
    each draw."""
    return [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]


def _shuffled(getrandbits, n, steps):
    """list(range(n)) after ``random.Random.shuffle``, given
    ``_shuffle_steps(n)``: at each i, the j <= i that ``_below(i + 1)``
    draws swaps places with i."""
    order = list(range(n))
    for i, k in steps:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return order


def _mono_product(monos):
    out = MONO_ONE
    for m in monos:
        out = mono_mul(out, m)
    return out


def _sample_monomials(pres):
    """A pool of canonical monomials of small exponents, as a tuple built
    once per ``Presentation._derived`` record.  The box is scanned in
    lexicographic order, past the cells that ``canonical`` never accepts:
    s and t both nonzero, or both divided flags set (see
    ``_make_canonical``)."""
    tables = pres._derived()
    if tables.pool is None:
        p = pres.p if pres.p is not None else 3
        q = pres.q if pres.q is not None else 3
        st = [(s, t) for s in range(-2, 3) for t in range(-2, 3) if not (s and t)]
        box = itertools.product(
            st, range(p + 2), range(q + 2), range(2 if pres.has_x else 1), ((0, 0), (0, 1), (1, 0)),
        )
        pool = []
        for (s, t), i, j, d, (w0, w1) in box:
            m = (s, t, i, j, d, w0, w1)
            if pres.canonical(m) and m != MONO_ONE:
                pool.append(m)
        tables.pool = tuple(pool)
    return tables.pool
