"""Constructors for every space in the calculation.

Spaces and their space-id grammar:

    point            the point ring (coefficient arithmetic, wrapped)
    bu1              the classifying space BU(1)
    proj:p,q         finite projective space X^{p,q} = P(C^p + C_sigma^q)
    binate:p,q       the binate subvariety P u tP (proj basis + free-orbit line)
    quadric:m,n      the symmetric quadric Q^{m,n}, of a type by parity:
                       (odd, odd) -> BB(p,q), (even, odd) -> DB, (odd, even) -> BD,
                       (even, even) -> DD
    neq:n,B|D        the nonequivariant ring Z[c,y]/(...) of the n-quadric

Every presentation uses the same orientation of the e^2-relation

    e^2 = z0*cw - (1-k)*z1*cx,

rewriting z0*cw downward, so canonical monomials never contain z0
together with cw.  Divided classes (negative z0/z1 powers) are carried
either directly on x-monomials or through the divw/divx flags.
"""

from __future__ import annotations

import warnings

from .coefficients import (
    ONE,
    UNIT_1MK,
    XI_PT,
    PointElt,
    negkappa,
    pos,
    trans,
)
# eta_of_element is also read here, as the catalog name perfbench/tracer.py times
from .component import E2, ComponentRing, _build_eta, _divided, eta_of_element
from .grading import Grading, W, XW, coset_index, underlying_degree
from .levele import LevelEModel
from .noneq import InvalidSizeError, NoneqQuadricRing
from .rewrite import MONO_ONE, Presentation, RingElement, _places, mono_mul


class RestrictedGradingWarning(UserWarning):
    """The grading lattice of this space is larger than RO(Pi BU(1))."""


class InvalidWindowError(ValueError):
    """A grading window with reversed bounds."""


TRANS_M1 = PointElt.monomial(trans(-1))


def nk(n):
    """e^{-n} kappa as a point element (n = 0 is kappa)."""
    return PointElt.monomial(negkappa(n))


# ---------------------------------------------------------------------------
# space ids


def parse_space(text):
    text = text.strip()
    if text == "point":
        return ("point",)
    if text == "bu1":
        return ("bu1",)
    try:
        for tag in ("proj", "binate", "quadric"):
            if text.startswith(tag + ":"):
                nums = text[len(tag) + 1 :].split(",")
                if len(nums) != 2:
                    raise InvalidSizeError("bad space id %r" % text)
                return (tag, int(nums[0]), int(nums[1]))
        if text.startswith("neq:"):
            n, kind = text[4:].split(",")
            return ("neq", int(n), kind.strip())
    except ValueError:
        raise InvalidSizeError("bad space id %r" % text) from None
    raise InvalidSizeError("unknown space id %r" % text)


def make_space(space_id):
    sid = parse_space(space_id) if isinstance(space_id, str) else space_id
    tag = sid[0]
    if tag == "point":
        return make_point()
    if tag == "bu1":
        return make_bu1()
    if tag == "proj":
        return make_projective(sid[1], sid[2])
    if tag == "binate":
        return make_binate(sid[1], sid[2])
    if tag == "quadric":
        return make_quadric(sid[1], sid[2])
    if tag == "neq":
        return make_nonequiv_quadric(sid[1], sid[2])
    raise InvalidSizeError("unknown space %r" % (sid,))


# ---------------------------------------------------------------------------
# rule helpers


def _mono(s=0, t=0, i=0, j=0, d=0, w0=0, w1=0):
    return (s, t, i, j, d, w0, w1)


def _swap_mono(m):
    """The swap Q^{m,n} -> Q^{n,m} on a monomial: (z0, cw, divw) <-> (z1, cx, divx)."""
    s, t, i, j, d, w0, w1 = m
    return (t, s, j, i, d, w1, w0)


def _swap_key(a, b):
    """The swap on a level-e key iota^a zeta^b: zeta = rho(z1) goes to
    rho(z0) = iota^2 zeta^-1."""
    return (a + 2 * b, -b)


def _rhs(pairs=(), terms=(), delta=MONO_ONE):
    """A right-hand side as data, ``(pairs, atoms)`` (see rewrite.py): the
    mono entries of the deck ``terms`` shifted by ``delta``, then the
    (coeff, delta) ``pairs``, each coefficient as its raw (point monomial,
    int) pairs; the atom entries of ``terms`` as transfer terms at ``delta``."""
    mono = [(c, mono_mul(x, delta)) for kind, c, x in terms if kind == "mono"]
    atoms = tuple((x, c, delta) for kind, c, x in terms if kind == "atom")
    return tuple((tuple(c.c.items()), d) for c, d in mono + list(pairs)), atoms


def _powers(step):
    """The one-step right-hand side ``step``, (coeff, delta) pairs, as the
    function n -> that rhs fired n >= 1 times in one firing, as rhs data.

    One term c*delta, with c = e^a xi^b: c^n at n*delta, built at every
    firing.  Two terms a + b with 2ab = 0: a^K + b^K for K the largest
    power of two <= n, since (a + b)^2 = a^2 + b^2; each square is built
    once and kept in this function's own list, and K = 1 is ``step``.  Any
    other step raises ``ValueError`` here, where the deck is built."""
    if len(step) == 1:
        ((c, delta),) = step
        ((key, value),) = c.c.items()
        if key[0] != "p" or value != 1:
            raise ValueError("a one-term power needs a coefficient e^a xi^b: %r" % (c.c,))
        _, a, b = key
        return lambda n: (((((pos(n * a, n * b), 1),), tuple(n * k for k in delta)),), ())
    (a, _), (b, _) = step
    if not (a * b * 2).is_zero():
        raise ValueError("a two-term power needs 2ab = 0")
    squares, rhs = [step], [_rhs(step)]

    def power(n):
        k = n.bit_length() - 1
        while len(rhs) <= k:
            squares.append([(c * c, mono_mul(d, d)) for c, d in squares[-1]])
            rhs.append(_rhs(squares[-1]))
        return rhs[k]

    return power


# fixed right-hand sides as (coeff, delta) lists, named after a rule
# that uses them: the e^2-relation e^2 = z0*cw - (1-k)*z1*cx and its
# consequences under zeta0*zeta1 = xi
_E2 = [(E2, _mono(s=-1, i=-1)), (UNIT_1MK, _mono(s=-1, t=1, i=-1, j=1))]
_W0_CW = ((E2, _mono(s=-1, i=-1)), (UNIT_1MK * XI_PT, _mono(s=-2, i=-1, j=1)))
_W1_CX = ((E2, _mono(t=-1, j=-1)), (UNIT_1MK * XI_PT, _mono(t=-2, i=1, j=-1)))
_CX_TAIL = (UNIT_1MK * E2 * -1, _mono(t=-1, j=-1))
# t2's xi z1^-2 cw cx^-1 - (1-k) e^2 z1^-1 cx^-1 is _W1_CX with its terms
# in the other order: (1-k)xi = xi, and -(1-k)e^2 = e^2 as k e^2 = 2e^2
_T2 = _W1_CX[::-1]
_CX_ELIM = [(UNIT_1MK, _mono(s=1, t=-1, i=1, j=-1)), _CX_TAIL]
_DIV_S = [(XI_PT, _mono(s=-1, t=-1))]


# ---------------------------------------------------------------------------
# generic quadric-family presentation builder

# deck: dict with p, q, has_x, has_atoms, corrw, corrx, xsq_terms,
# top_terms, divdiv_terms, rho_x, levele, x_grading, relations (each as
# (name, raw left side (coeff, mono), right-side terms), read by
# Presentation.identities), and for eta (component._build_eta)
# components; _finish adds z0_inv and z1_inv.  _quadric derives a
# quadric's deck from (m, n): only xsq_terms and divdiv_terms depend on
# the type


def _build_rules(pres):
    """The rewrite rules [(name, guard, rhs)] of a finished presentation.

    Contract of every guard (and of ``_make_canonical``): it compares each
    exponent only with fixed thresholds, s, t, d, w0, w1 with -1..2, i with
    0, 1, p-1, p and j with 0, 1, q-1, q, so that its value depends only on
    the threshold class of the monomial (``rewrite._class_key``).
    ``normal_form`` keeps one answer per class; a guard that compares with
    anything else breaks it, and the exhaustive class-table test fails.

    Every right-hand side is data, ``(pairs, atoms)`` from ``_rhs``; a rule
    whose right-hand side depends on the monomial holds a plain function of
    the monomial that returns it.

    Every closed-form rule names its one-step right-hand side and its
    reach n, and fires that rhs n times in one firing through ``_powers``:
    ``xi_mix``, ``z0_pos`` and ``z1_pos`` fire ``_DIV_S``, ``w0_cw`` and
    ``ihigh`` ``_W0_CW``, ``w1_cx`` ``_W1_CX``, ``t2`` and the t2 branch of
    ``jhigh`` ``_T2``, the tail branch of ``jhigh`` ``_CX_TAIL`` and, where
    x^2 has its one term, ``x_power`` the deck's x^2.  A one-term rhs takes
    all its n steps at once; a two-term one takes K, the largest power of
    two <= n.  The normal forms are those of the one-step rules (the tests
    keep those as the reference).  A firing still adds at most two pairs,
    so ``max_steps`` keeps its meaning.

    On a quadric deck with x where neither zeta is invertible it also sets
    ``pres.mixed_dies``: a guard-style test of the monomials M with
    e*xi*M = 0, where ``normal_form`` drops a term with a mixed coefficient
    e^a xi^b (a, b >= 1).  On side 0 they are divw*cx^q times any class:
    w0 = 1, w1 = 0, j >= q, save t <= -1 with d = 0 (not a class); side 1
    is the swap.  One ``w0_cx`` step gives divw*cx^q = corrx*divw + divdiv
    terms; xi kills corrx's e^-n k, and e kills the transfers of divdiv.
    So the mixed branches of a cw chain die where they arise.
    """
    p, q = pres.p, pres.q
    has_x, z0_inv, z1_inv = pres.has_x, pres.z0_inv, pres.z1_inv
    infinite = p is None  # BU(1)

    def ge_p(i):
        return False if infinite else i >= p

    def ge_q(j):
        return False if infinite else j >= q

    w0_cw, w1_cx, t2, div_s = (_powers(step) for step in (_W0_CW, _W1_CX, _T2, _DIV_S))
    rules = []

    # ---- x powers and div flags -----------------------------------------

    if has_x:
        # x^d lands on d = 1 in one firing
        xsq = [(c, mono_mul(delta, _mono(d=-2))) for c, delta in pres.xsq_terms]
        x_power = _powers(xsq) if xsq else None
        rules.append(("x_power", lambda m: m[4] >= 2, (lambda m: x_power(m[4] - 1)) if xsq else _rhs()))

        def g_topx(m):
            s, t, i, j, d, w0, w1 = m
            return d >= 1 and w0 == 0 and w1 == 0 and ge_p(i) and ge_q(j)

        rules.append(("top_x", g_topx, _rhs()))

    def g_top(m):
        s, t, i, j, d, w0, w1 = m
        # at negative powers of a non-invertible zeta the termwise division
        # of the top value is not valid (its kappa term need not be
        # divisible); repl0/repl1 convert those monomials to div-flag form
        if has_x and s <= -1 and not z0_inv:
            return False
        if has_x and t <= -1 and not z1_inv:
            return False
        return d == 0 and w0 == 0 and w1 == 0 and ge_p(i) and ge_q(j)

    if not infinite:
        rules.append(("top", g_top, _rhs((), pres.top_terms, _mono(i=-p, j=-q))))

    if has_x:
        # divw and divx written out (_divided), times divw^-1 and divx^-1
        divw = [(c, mono_mul(delta, _mono(w0=-1))) for c, delta in _divided(pres, 0)]
        divx = [(c, mono_mul(delta, _mono(w1=-1))) for c, delta in _divided(pres, 1)]
        corrw_low = [(c, mono_mul(delta, _mono(i=-p))) for c, delta in pres.corrw]
        corrx_low = [(c, mono_mul(delta, _mono(j=-q))) for c, delta in pres.corrx]

        rules.append((
            "divdiv",
            lambda m: m[5] >= 1 and m[6] >= 1,
            _rhs((), pres.divdiv_terms, _mono(w0=-1, w1=-1)),
        ))
        rules.append(("w0_square", lambda m: m[5] >= 2, _rhs(divw)))
        rules.append(("w1_square", lambda m: m[6] >= 2, _rhs(divx)))

        # the divx guards are the divw guards on the swapped monomial, with
        # the sizes p and q exchanged (``other`` is the size of the other side)
        def g_wexp(m, other):
            s, t, i, j, d, w0, w1 = m
            if w0 != 1 or w1 != 0:
                return False
            if z1_inv or z0_inv:
                return True
            if d >= 1:
                return True
            if t != 0 or i != 0:
                return False
            return s >= 1 or (s == 0 and j <= other - 1)

        rules.append(("w0_expand", lambda m: g_wexp(m, q), _rhs(divw)))
        rules.append(("w1_expand", lambda m: g_wexp(_swap_mono(m), p), _rhs(divx)))

        def g_w0cw(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w0 == 1 and w1 == 0 and d == 0 and i >= 1 and t == 0
            )

        rules.append(("w0_cw", g_w0cw, lambda m: w0_cw(m[2])))
        rules.append(("w1_cx", lambda m: g_w0cw(_swap_mono(m)), lambda m: w1_cx(m[3])))

        def g_w0cx(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w0 == 1 and w1 == 0 and d == 0 and i == 0 and ge_q(j)
                and s <= 0 and t == 0
            )

        rules.append(("w0_cx", g_w0cx, _rhs(corrx_low, pres.divdiv_terms, _mono(j=-q, w0=-1))))

        def g_w1cw(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w1 == 1 and w0 == 0 and d == 0 and j == 0 and ge_p(i)
                and s == 0
            )

        rules.append(("w1_cw", g_w1cw, _rhs(corrw_low, pres.divdiv_terms, _mono(i=-p, w1=-1))))

    # ---- zeta bookkeeping -------------------------------------------------

    if z0_inv:
        def g_z1pos(m):
            return m[1] >= 1 and m[5] == 0 and m[6] == 0

        rules.append(("z1_pos", g_z1pos, lambda m: div_s(m[1])))
        rules.append(("cw_elim", lambda m: m[2] >= 1, _rhs(_E2)))
    elif z1_inv:
        def g_z0pos(m):
            return m[0] >= 1 and m[5] == 0 and m[6] == 0

        rules.append(("z0_pos", g_z0pos, lambda m: div_s(m[0])))
        rules.append(("cx_elim", lambda m: m[3] >= 1, _rhs(_CX_ELIM)))
    else:
        def g_ximix(m):
            s, t, i, j, d, w0, w1 = m
            if s > 0 and (t != 0 or w1 >= 1):
                return True
            if t > 0 and (s != 0 or w0 >= 1):
                return True
            return False

        def r_ximix(m):
            s, t = m[0], m[1]
            if s > 0:
                return div_s(min(s, t) if t > 0 else s)
            return div_s(t)

        rules.append(("xi_mix", g_ximix, r_ximix))

        def g_e2(m):
            s, t, i, j, d, w0, w1 = m
            return s >= 1 and i >= 1 and t == 0 and w0 == 0 and w1 == 0

        rules.append(("e2", g_e2, _rhs(_E2)))

        def g_divs(m):
            s, t, i, j, d, w0, w1 = m
            return (
                s >= 1 and i == 0 and ge_q(j) and t == 0 and w0 == 0 and w1 == 0
                and (not has_x or d >= 1)
            )

        rules.append(("div_s", g_divs, _rhs(_DIV_S)))

        def g_t2(m):
            s, t, i, j, d, w0, w1 = m
            return t >= 2 and j >= 1 and w0 == 0 and w1 == 0

        rules.append(("t2", g_t2, lambda m: t2(min(m[1] // 2, m[3]))))

        if not infinite:
            def g_jhigh(m):
                s, t, i, j, d, w0, w1 = m
                if not (s == 0 and t <= 1 and i < p and j >= q + 1 and w0 == 0 and w1 == 0):
                    return False
                # in the quadric decks, dividing a d = 0 monomial by zeta1
                # is only valid through the divx substitution (the kappa
                # correction survives otherwise), so repl1 owns that case
                if has_x and d == 0:
                    return False
                return True

            cx_tail = _powers([_CX_TAIL])
            # z0 cw X contains the top monomial cw^p cx^q: the tail plus
            # (1-k) times top at z0*cw*m/(z1*cx), where rho(1-k) = 1 leaves
            # the transfer terms as they are
            head = [(k, c * UNIT_1MK if k == "mono" else c, x) for k, c, x in pres.top_terms]
            top_tail = _rhs([_CX_TAIL], head, _mono(s=1, t=-1, i=1 - p, j=-1 - q))

            def r_jhigh(m):
                i, n = m[2], m[3] - q
                if i + 1 < p:
                    return t2(min(p - 1 - i, n))
                if m[4] == 0:
                    return top_tail
                # top times x vanishes, so the tail alone goes on down to cx^q
                return cx_tail(n)

            rules.append(("jhigh", g_jhigh, r_jhigh))

            def g_ihigh(m):
                s, t, i, j, d, w0, w1 = m
                if has_x and d == 0:
                    return False
                return s <= 0 and t == 0 and i >= p + 1 and j <= q - 1 and w0 == 0 and w1 == 0

            rules.append(("ihigh", g_ihigh, lambda m: w0_cw(m[2] - p)))

            def g_tpos_ihigh(m):
                s, t, i, j, d, w0, w1 = m
                return (
                    t >= 1 and ge_p(i) and j <= q - 1 and w0 == 0 and w1 == 0
                    and (not has_x or d >= 1)
                )

            rules.append(("tpos_ihigh", g_tpos_ihigh, _rhs(_DIV_S)))

    # ---- conversion of bare divided d0-monomials in quadrics --------------

    if has_x and not z1_inv and not z0_inv:
        def g_repl0(m):
            s, t, i, j, d, w0, w1 = m
            if not (d == 0 and w0 == 0 and w1 == 0 and i >= p):
                return False
            if s <= -1:
                return True
            if t >= 1 and j < q:
                return True
            return s == 0 and t == 0 and i >= p + 1 and j < q

        rules.append(("repl0", g_repl0, _rhs([(ONE, _mono(i=-p, w0=1))] + corrw_low)))

        def g_repl1(m):
            s, t, i, j, d, w0, w1 = m
            if not (d == 0 and w0 == 0 and w1 == 0 and j >= q):
                return False
            if t <= -1 and s == 0:
                return True
            return i < p and (s >= 1 or (t in (0, 1) and s == 0 and j >= q + 1))

        rules.append(("repl1", g_repl1, _rhs([(ONE, _mono(j=-q, w1=1))] + corrx_low)))

        def mixed_dies(m):
            s, t, i, j, d, w0, w1 = m
            if w0 == 1 and w1 == 0:
                return j >= q and (t >= 0 or d >= 1)
            if w1 == 1 and w0 == 0:
                return i >= p and (s >= 0 or d >= 1)
            return False

        pres.mixed_dies = mixed_dies

    return rules


def _make_canonical(deck):
    p, q = deck["p"], deck["q"]
    has_x, z0_inv, z1_inv = deck["has_x"], deck["z0_inv"], deck["z1_inv"]
    infinite = p is None

    # Every branch below accepts only s == 0 or t == 0, and compares each
    # exponent only with the thresholds of rewrite._class_key; the basis
    # enumeration (_enumerate_coset_monomials) depends on both.
    def canonical(m):
        s, t, i, j, d, w0, w1 = m
        if i < 0 or j < 0 or d < 0 or w0 < 0 or w1 < 0:
            return False
        if d > (1 if has_x else 0):
            return False
        if (w0 or w1) and not has_x:
            return False
        if w0 and w1:
            return False
        if infinite:
            if s < 0 or t < 0 or w0 or w1:
                return False
            if s and t:
                return False
            if s > 0:
                return i == 0
            if t >= 2:
                return j == 0
            return True
        if z1_inv:
            if j != 0 or w0 or w1 or s != 0:
                return False
            return i <= p - 1
        if z0_inv:
            if i != 0 or w0 or w1 or t != 0:
                return False
            return j <= q - 1
        if w0:
            return w0 == 1 and s <= -1 and t == 0 and i == 0 and j <= q - 1 and d == 0
        if w1:
            return w1 == 1 and t <= -1 and s == 0 and j == 0 and i <= p - 1 and d == 0
        if s and t:
            return False
        if s > 0:
            return i == 0 and j <= q - 1
        if t > 0:
            return i <= p - 1 and (j <= q if t == 1 else j == 0)
        if s < 0:
            if has_x and d == 0:
                return False
            return i == p and j <= q - 1
        if t < 0:
            if has_x and d == 0:
                return False
            return j == q and i <= p - 1
        return i <= p and j <= q and not (i >= p and j >= q)

    return canonical


# ---------------------------------------------------------------------------
# deck constructors


def _finish(name, space, deck):
    """The presentation of a deck.  A zeta is invertible exactly when its
    side has size 0 (never on BU(1), whose p is None).  A deck that states
    its rules keeps them; every other deck gets ``_build_rules``."""
    cfg = dict(deck, z0_inv=deck["p"] == 0, z1_inv=deck["q"] == 0)
    cfg["canonical"] = _make_canonical(cfg)
    pres = Presentation(name, space, cfg)
    pres.rules = deck["rules"] if "rules" in deck else _build_rules(pres)
    pres.eta_sides = _build_eta(pres, deck["components"])
    return pres


def make_point():
    """The point ring, wrapped as a trivial presentation."""
    deck = {
        "p": 0,
        "q": 0,
        "has_x": False,
        "levele": LevelEModel("free"),
    }
    cfg = dict(deck)
    cfg["canonical"] = lambda m: m == MONO_ONE
    pres = Presentation("point", ("point",), cfg)
    pres.eta_sides = (ComponentRing(0, "free", 0), ComponentRing(1, "zero", 0))
    return pres


def make_bu1():
    deck = {
        "p": None,
        "q": None,
        "has_x": False,
        "levele": LevelEModel("free"),
        "components": (("free", 0), ("free", 0)),
        "relations": [
            ("zeta0*zeta1 = xi", (ONE, _mono(s=1, t=1)), [("mono", XI_PT, MONO_ONE)]),
            ("e^2 = z0*cw - (1-k)*z1*cx", (E2, MONO_ONE),
             [("mono", ONE, _mono(s=1, i=1)), ("mono", -UNIT_1MK, _mono(t=1, j=1))]),
            # consequence: t(iota^-2) z0 cw = t(iota^-2) z1 cx
            ("t(iota^-2)*z0*cw = t(iota^-2)*z1*cx", (TRANS_M1, _mono(s=1, i=1)),
             [("mono", TRANS_M1, _mono(t=1, j=1))]),
        ],
    }
    return _finish("bu1", ("bu1",), deck)


def make_projective(p, q):
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidSizeError("proj needs p, q >= 0 and p + q >= 1")
    deck = {
        "p": p,
        "q": q,
        "has_x": False,
        "levele": LevelEModel("proj", p + q),
        "top_terms": [],
        "components": tuple(("proj", k) if k else ("zero", 0) for k in (p, q)),
        "relations": [("cw^p*cx^q = 0", (ONE, _mono(i=p, j=q)), [])],
    }
    return _finish("proj:%d,%d" % (p, q), ("proj", p, q), deck)


def make_binate(p, q):
    if p < 0 or q < 0:
        raise InvalidSizeError("binate needs p, q >= 0")
    if p == 0 and q == 0:
        return _make_free_orbit("binate:0,0", ("binate", 0, 0))
    top = [("atom", 1, (2 * q, p - q))]
    deck = {
        "p": p,
        "q": q,
        "has_x": False,
        "has_atoms": True,
        "levele": LevelEModel("binate", p + q),
        "top_terms": top,
        "components": tuple(("proj", k) if k else ("zero", 0) for k in (p, q)),
        "relations": [("cw^p*cx^q = z0^q*z1^p*t(y)", (ONE, _mono(i=p, j=q)), top)],
    }
    return _finish("binate:%d,%d" % (p, q), ("binate", p, q), deck)


def _make_free_orbit(name, space):
    """The free orbit C2 (the quadric Q^{1,1} and the binate S^{0,0}), where
    no monomial is canonical.  Its rules: x = 0 (so rho(x) = 0 and there is
    no rho_x), and 1 = tau(y), one transfer term: M*c = tau(rho(M*c)*y)."""
    deck = {
        "p": 0,
        "q": 0,
        "has_x": True,
        "has_atoms": True,
        "free_orbit": True,
        "levele": LevelEModel("D", 1),
        "x_grading": W + XW - Grading(2),
        "xsq_terms": [],
        "components": (("zero", 0), ("zero", 0)),
        "rules": [
            ("x_zero", lambda m: m[4] >= 1, _rhs()),
            ("unit", lambda m: m[4] == 0, ((), (((0, 0), 1, MONO_ONE),))),
        ],
        "relations": [
            ("x = 0", (ONE, _mono(d=1)), []),
            ("1 = t(y)", (ONE, MONO_ONE), [("atom", 1, (0, 0))]),
        ],
    }
    return _finish(name, space, deck)


def _xsq_terms(m, n):
    """x^2 in Q^{m,n} as [(coeff, mono)], by the parities of m and n."""
    p, q = m // 2, n // 2
    if m % 2 and n % 2:  # BB: x^2 = 0
        return []
    if n % 2:  # DB: e^2 cw^{p-1} cx^q x when p is odd
        return [(E2, _mono(i=p - 1, j=q, d=1))] if p % 2 else []
    if m % 2:  # BD: the swap of DB
        return [(E2, _mono(i=p, j=q - 1, d=1))] if q % 2 else []
    # DD: by the parities of p and q
    if p % 2 and q % 2:
        return [(E2, _mono(i=p - 1, j=q - 1, d=1))]
    if q % 2:
        return [(ONE, _mono(s=1, i=p, j=q - 1, d=1))]
    if p % 2:
        return [(ONE, _mono(t=1, i=p - 1, j=q, d=1))]
    return []


def _divdiv_terms(m, n):
    """divw*divx in Q^{m,n} as deck terms, by the parities of m and n."""
    p, q = m // 2, n // 2
    if m % 2 and n % 2:  # BB: t(iota^2q zeta^(p-q) y)
        return [("atom", 1, (2 * q, p - q))]
    if n % 2:  # DB: t(iota^-2) z1 x
        return [("mono", TRANS_M1, _mono(t=1, d=1))]
    if m % 2:  # BD: t(iota^-2) z0 x, the swap of DB
        return [("mono", TRANS_M1, _mono(s=1, d=1))]
    # DD: t(iota^-2) z0 cw x, equal to t(iota^-2) z1 cx x
    return [("mono", TRANS_M1, _mono(s=1, i=1, d=1))]


def _quadric(m, n):
    """The presentation of Q^{m,n}, all of it from (m, n).

    p = m // 2 and q = n // 2; em = 1 when m is even and en = 1 when n is
    even.  (m, n) decides the x grading ceil(m/2) w + ceil(n/2) xw - 2, the
    level-e model (the nonequivariant quadric in C^{m+n}: B when m + n is
    odd, D otherwise; t fixes y when m and n are even), the two fixed
    components (the quadrics in C^m and C^n, empty when m or n <= 1, where
    zeta0 or zeta1 is invertible), whether there is a free-orbit summand
    (m and n both odd), the restricted-grading warning (m or n = 2), and
    rho(x) = iota^A zeta^B c^C y, the only y-monomial in the grading of x
    (iota and zeta have underlying degree 0).  The grading also fixes the
    corrections of the divided classes, divw = cw^p - corrw and
    divx = cx^q - corrx with

        corrw = e^{-2(q+1-en)} k z1^{q-en} cw^em x   (none if em and p <= 1)
        corrx = e^{-2(p+1-em)} k z0^{p-em} cx^en x   (none if en and q <= 1)

    and cw^p cx^q = divw divx + e^-2 k cw^em cx^en x.  Only x^2 and
    divw*divx depend on the type (``_xsq_terms``, ``_divdiv_terms``);
    eta(x) and eta(y) follow from rho(x) and the models
    (``component.ComponentRing``).
    """
    p, q = m // 2, n // 2
    em, en = 1 - m % 2, 1 - n % 2
    g = (m + 1) // 2 * W + (n + 1) // 2 * XW - Grading(2)
    levele = LevelEModel("B" if (m + n) % 2 else "D", (m + n) // 2, t_fixes_y=bool(em and en))
    xsq, divdiv = _xsq_terms(m, n), _divdiv_terms(m, n)
    top = divdiv + [("mono", nk(2), _mono(i=em, j=en, d=1))]
    deck = {
        "p": p,
        "q": q,
        "has_x": True,
        "has_atoms": not (em or en),
        "x_grading": g,
        "levele": levele,
        "rho_x": (g.b, coset_index(g), (underlying_degree(g) - levele.y_degree()) // 2),
        "components": tuple(("B" if k % 2 else "D", k // 2) if k > 1 else ("zero", 0) for k in (m, n)),
        "corrw": [] if em and p <= 1 else [(nk(2 * (q + 1 - en)), _mono(t=q - en, i=em, d=1))],
        "corrx": [] if en and q <= 1 else [(nk(2 * (p + 1 - em)), _mono(s=p - em, j=en, d=1))],
        "xsq_terms": xsq,
        "divdiv_terms": divdiv,
        "top_terms": top,
        "relations": [
            ("x^2", (ONE, _mono(d=2)), [("mono", c, x) for c, x in xsq]),
            ("divw*divx", (ONE, _mono(w0=1, w1=1)), divdiv),
            ("cw^p*cx^q", (ONE, _mono(i=p, j=q)), top),
        ],
    }
    pres = _finish("quadric:%d,%d" % (m, n), ("quadric", m, n), deck)
    if m == 2 or n == 2:
        warn = "grading restricted: RO(Pi Q^{%d,%d}) is larger than RO(Pi BU(1))" % (m, n)
        pres.warnings.append(warn)
        warnings.warn(warn, RestrictedGradingWarning, stacklevel=2)
    return pres


def make_quadric(m, n):
    if m < 0 or n < 0 or m + n < 2:
        raise InvalidSizeError("quadric needs m, n >= 0 with m + n >= 2")
    if m == 1 and n == 1:
        return _make_free_orbit("quadric:1,1", ("quadric", 1, 1))
    return _quadric(m, n)


def make_nonequiv_quadric(n, kind=None):
    if n < 1:
        raise InvalidSizeError("need n >= 1")
    return NoneqQuadricRing(n, kind)


# ---------------------------------------------------------------------------
# swap symmetry


def swap_space(space):
    tag = space[0]
    if tag in ("point", "bu1"):
        return space
    if tag in ("proj", "binate", "quadric"):
        return (tag, space[2], space[1])
    raise InvalidSizeError("cannot swap %r" % (space,))


def swap_involution(pres):
    """The presentation of the swapped space Q^{n,m} (or X^{q,p})."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_space(swap_space(pres.space))


def swap_element(pres, target, x):
    """Push an element through the swap homeomorphism."""
    x = pres.normal_form(x)
    # the swap maps are bijections, so no two terms meet
    out = RingElement(target, x.level)
    out.c2 = {_swap_mono(m): v for m, v in x.c2.items()}
    out.atoms = {_swap_key(*k): v for k, v in x.atoms.items()}
    out.e = {_swap_key(a, b) + (dd, eps): v for (a, b, dd, eps), v in x.e.items()}
    return target.normal_form(out)


def swap_grading(g):
    """The involution w <-> xw on the grading lattice."""
    # in canonical coordinates (a, b, m): m*w + rest -> m*xw + rest
    rest_a, rest_b = g.a, g.b
    return Grading(rest_a, rest_b, 0) + g.m * XW


# ---------------------------------------------------------------------------
# basis enumeration


def basis_slice(pres, coset, window):
    """Canonical basis classes with the given coset index inside the window.

    window is ((a0, a1), (b0, b1)); gradings are reported relative to
    coset * OMEGA1, i.e. as the a + b*sigma offsets the dot diagrams plot.
    Returns a sorted list of (Grading, "C2/C2" | "C2/e") pairs; the C2/e
    entries are the free-orbit line representatives (one per coset,
    position along the line a + b = const arbitrary).

    The classes come from ``_enumerate_coset_monomials`` as runs already
    cut to the window: the first slice of a coset on a presentation makes a
    fixed number of canonical tests and stores the coset's canonical
    strips, and every later slice of it, at any window, makes none until
    ``canonical_fn`` or ``rules`` changes (``Presentation._derived``).  The
    presentation keeps one entry per coset asked for (per coset and reach on
    bu1), each O(1) in p and q.  A run's gradings step by (2, 2), so they
    are read as two ``range``s: a slice costs O(strips + rows in the window)
    at every p and q, and an offset ``Grading`` is built only for the rows
    returned.
    """
    (a0, a1), (b0, b1) = window
    if a0 > a1 or b0 > b1:
        raise InvalidWindowError("window bounds are reversed: %r" % (window,))
    # coset * OMEGA1 = (-2 coset, 0, coset), and the grading g of every
    # monomial of the coset has g.m == coset, so its offset is
    # (g.a + 2 coset, g.b, 0)
    da = 2 * coset
    kept = []
    for _, n, a, b in _enumerate_coset_monomials(pres, coset, window):
        a += da
        kept += zip(range(a, a + 2 * n, 2), range(b, b + 2 * n, 2))
    kept.sort()
    out = [(Grading(a, b), "C2/C2") for a, b in kept]
    if pres.has_atoms:
        # the free-orbit line a + b = line meets the window in the points
        # (line - b, b) with max(b0, line - a1) <= b <= min(b1, line - a0);
        # (line, 0) stands for the line when it is one of them, else the
        # point of least b does
        line = pres.levele.y_degree()
        first = max(b0, line - a1)
        if first <= min(b1, line - a0):
            visible = a0 <= line <= a1 and b0 <= 0 <= b1
            out.append((Grading(line) if visible else Grading(line - first, first), "C2/e"))
    return out


def _pieces(n, top):
    """Split the exponents 0..top into runs on which ``_class_key`` places
    an i exponent the same way for p = n (a j exponent for q = n): each of
    ``_places(n)`` alone, and the runs between them and above the last."""
    out, lo = [], 0
    for c in sorted({c for c in _places(n) if 0 <= c <= top}):
        if lo < c:
            out.append((lo, c - 1))
        out.append((c, c))
        lo = c + 1
    if lo <= top:
        out.append((lo, top))
    return out


def _enumerate_coset_monomials(pres, coset, window):
    """The canonical monomials of one coset whose offset gradings (as in
    ``basis_slice``) lie in the window, as a fresh list of runs
    (mono, n, a, b): the monomials mono * (cw*cx)^k for 0 <= k < n, whose
    gradings are (a + 2k, b + 2k, coset).

    Every canonical monomial has s == 0 or t == 0 (see _make_canonical), and
    inside one coset t = t0 + s with t0 = shift - i + j fixed by the cell
    (d, w0, w1) and (i, j).  So each (i, j) holds at most the two candidates
    (0, t0) and (-t0, 0).  ``canonical`` depends on a monomial only through
    ``_class_key``, so it is tested once per box (an i piece times a j
    piece, see ``_pieces``), band of t0 and candidate, on one member, and a
    canonical box and band is a strip (see ``_canonical_strips``).  Nothing
    in those tests depends on the window but the stand-ins for p and q, so
    the strips are kept on the presentation under (coset, p, q), in the
    ``strips`` of ``Presentation._derived``, which are emptied with the
    class table when ``canonical_fn`` or ``rules`` changes.  The first
    enumeration of a coset makes a fixed number of
    ``Presentation.canonical`` tests, and a later one makes none.  The table
    holds one entry per coset asked for, and on bu1, whose stand-ins grow
    with the window's reach, one per coset and reach; each entry is O(1) in
    p and q.

    A strip's gradings are affine in (i, j): a = 2i + ca and b = 2j + cb
    on the t candidate, a = 2j + ca and b = 2i + cb on the s candidate.  So
    two floor divisions per axis cut its i and j ranges to the window, and
    each diagonal j - i = e of the cut box that the strip's band meets is
    one run, its t0 = shift + e fixed.  The cost is O(strips + runs), and
    every run holds at least one row of the window.
    """
    (a0, a1), (b0, b1) = window
    span = max(abs(a0), abs(a1), abs(b0), abs(b1)) + abs(coset)
    p = pres.p if pres.p is not None else span + 2
    q = pres.q if pres.q is not None else span + 2
    table = pres._derived().strips
    strips = table.get((coset, p, q))
    if strips is None:
        strips = table[coset, p, q] = _canonical_strips(pres, coset, p, q)
    # the window on absolute gradings: g.a is the offset less 2 coset
    a0 -= 2 * coset
    a1 -= 2 * coset
    out = []
    for fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi, dlo, dhi, ca, cb in strips:
        # lo <= 2x + c <= hi  <=>  -((c - lo) // 2) <= x <= (hi - c) // 2
        if ft:
            il, ih, jl, jh = -((ca - a0) // 2), (a1 - ca) // 2, -((cb - b0) // 2), (b1 - cb) // 2
        else:
            il, ih, jl, jh = -((cb - b0) // 2), (b1 - cb) // 2, -((ca - a0) // 2), (a1 - ca) // 2
        if il < ilo:
            il = ilo
        if ih > ihi:
            ih = ihi
        if jl < jlo:
            jl = jlo
        if jh > jhi:
            jh = jhi
        if il > ih or jl > jh:
            continue
        # diagonal e of the cut box holds max(il, jl - e) <= i <= min(ih, jh - e),
        # and the box meets diagonals jl - ih..jh - il
        elo, ehi = jl - ih, jh - il
        if elo < dlo:
            elo = dlo
        if ehi > dhi:
            ehi = dhi
        for e in range(elo, ehi + 1):
            i = il if il > jl - e else jl - e
            n = (ih if ih < jh - e else jh - e) - i + 1
            j, t0 = i + e, shift + e
            a, b = (2 * i + ca, 2 * j + cb) if ft else (2 * j + ca, 2 * i + cb)
            out.append(((fs * t0, ft * t0, i, j, d, w0, w1), n, a, b))
    return out


def _canonical_strips(pres, coset, p, q):
    """The canonical strips of one coset, with p and q the enumeration's
    stand-ins: a tuple of (fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi,
    dlo, dhi, ca, cb), one per cell, box, band and candidate whose member
    passes ``Presentation.canonical``, in emission order.  Its monomials are
    (fs * t0, ft * t0, i, j, d, w0, w1) with ilo <= i <= ihi, jlo <= j <=
    jhi, dlo <= j - i <= dhi and t0 = shift - i + j.  The bands are
    t0 <= -2, -1, 0, 1 and >= 2: the s and t clamps of the key, seen from
    both candidates (in band 0 the two are one).  That is one test per box,
    band and candidate, a fixed number per coset.  (ca, cb) are the grading
    offsets of the strip, read off ``Presentation.mono_grading`` at the
    tested member (i, j): a = 2i + ca and b = 2j + cb when ft == 1,
    a = 2j + ca and b = 2i + cb when fs == -1."""
    ipieces, jpieces = _pieces(pres.p, p + 1), _pieces(pres.q, q + 1)
    cells = [(0, 0, 0)]
    if pres.has_x:
        cells += [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
    out = []
    for d, w0, w1 in cells:
        shift = coset - (coset_index(pres.x_grading) if d else 0) - w0 * p + w1 * q
        for ilo, ihi in ipieces:
            for jlo, jhi in jpieces:
                # t0 runs over tlo..thi in the box; its band k is t0 clamped
                # to -2..2, so bands -1, 0 and 1 hold one value each
                tlo, thi = shift - ihi + jlo, shift - ilo + jhi
                klo = -2 if tlo < -2 else 2 if tlo > 2 else tlo
                khi = -2 if thi < -2 else 2 if thi > 2 else thi
                for k in range(klo, khi + 1):
                    lo = tlo if k == klo else k
                    hi = thi if k == khi else k
                    dlo, dhi = lo - shift, hi - shift
                    # the member (i, j) of the box with t0 == lo stands for
                    # the band: the least i >= ilo with j = i + dlo >= jlo
                    ri = jlo - dlo
                    if ri < ilo:
                        ri = ilo
                    rj = ri + dlo
                    # (fs, ft) puts t0 into s = fs * t0, t = ft * t0
                    for fs, ft in ((0, 1),) if k == 0 else ((0, 1), (-1, 0)):
                        member = (fs * lo, ft * lo, ri, rj, d, w0, w1)
                        if pres.canonical(member):
                            g = pres.mono_grading(member)
                            ca, cb = (g.a - 2 * ri, g.b - 2 * rj) if ft else (g.a - 2 * rj, g.b - 2 * ri)
                            out.append((fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi, dlo, dhi, ca, cb))
    return tuple(out)
