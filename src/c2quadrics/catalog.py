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
    _add_term,
    negkappa,
    pos,
    trans,
)
from .component import ComponentRing
from .grading import Grading, W, XW, coset_index, underlying_degree
from .levele import LevelEModel, add_elts
from .noneq import InvalidSizeError, NoneqQuadricRing
from .rewrite import MONO_ONE, Presentation, RingElement, _places, mono_mul


class RestrictedGradingWarning(UserWarning):
    """The grading lattice of this space is larger than RO(Pi BU(1))."""


class InvalidWindowError(ValueError):
    """A grading window with reversed bounds."""


E2 = PointElt.monomial(pos(2, 0))
TRANS_M1 = PointElt.monomial(trans(-1))


def nk(n):
    """e^{-n} kappa as a point element (n = 0 is kappa)."""
    return PointElt.monomial(negkappa(n))


def _xi_pow(n):
    return PointElt.monomial(pos(0, n)) if n else ONE


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


def _divided(pres, side):
    """The divided class of a side as (coefficient, monomial) pairs:
    divw = cw^p - corrw on side 0, divx = cx^q - corrx on side 1."""
    top = (_mono(i=pres.p), _mono(j=pres.q))[side]
    return [(ONE, top)] + [(-c, delta) for c, delta in (pres.corrw, pres.corrx)[side]]


def _rhs(pairs=(), terms=(), delta=MONO_ONE):
    """A right-hand side as data, ``(pairs, atoms)`` (see rewrite.py): the
    mono entries of the deck ``terms`` shifted by ``delta``, then the
    (coeff, delta) ``pairs``, each coefficient as its raw (point monomial,
    int) pairs; the atom entries of ``terms`` as transfer terms at ``delta``."""
    mono = [(c, mono_mul(x, delta)) for kind, c, x in terms if kind == "mono"]
    atoms = tuple((x, c, delta) for kind, c, x in terms if kind == "atom")
    return tuple((tuple(c.c.items()), d) for c, d in mono + list(pairs)), atoms


def _xi_shift(n):
    """xi^n / (z0*z1)^n, from zeta0*zeta1 = xi, with xi^n written as its
    raw pairs: it is built at every firing."""
    return ((((pos(0, n), 1),), _mono(s=-n, t=-n)),), ()


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

# {(id of a one-step tuple above, k): its rhs squared k times}; keyed by
# identity, because hashing the PointElt coefficients at every firing costs
# more than the lookup saves
_JUMPS = {}


def _jump(pairs, k):
    """The one-step right-hand side ``pairs`` (``_W0_CW``, ``_W1_CX`` or
    ``_T2``) raised to the power K = 2^k, as one right-hand side (k = 0
    gives the one-step rhs); for ``_W0_CW`` e^{2K} z0^-K cw^-K + xi^K
    z0^-2K cw^-K cx^K.  Each of the k
    squarings squares the two terms alone, since (a + b)^2 = a^2 + b^2 when
    2ab = 0, and here ab carries the mixed, 2-torsion coefficient e^2 xi."""
    key = (id(pairs), k)
    rhs = _JUMPS.get(key)
    if rhs is None:
        power = pairs
        for _ in range(k):
            power = tuple((c * c, mono_mul(d, d)) for c, d in power)
        rhs = _JUMPS[key] = _rhs(power)
    return rhs


# ---------------------------------------------------------------------------
# generic quadric-family presentation builder

# deck: dict with p, q, has_x, has_atoms, corrw, corrx, xsq_terms,
# top_terms, divdiv_terms, rho_x, levele, x_grading, relations (each as
# (name, raw left side (coeff, mono), right-side terms), read by
# Presentation.identities), and for eta (_build_eta) components; _finish
# adds z0_inv and z1_inv.  _quadric derives a quadric's deck from (m, n):
# only xsq_terms and divdiv_terms depend on the type


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

    Every e^2-chain fires in closed form.  ``w0_cw``, ``w1_cx``, ``ihigh``,
    ``t2`` and the t2 branch of ``jhigh`` apply their one-step right-hand
    side K times in one firing, K the largest power of two <= n, for n = i,
    j, i - p, min(t // 2, j) and min(p - 1 - i, j - q): the K-th power keeps
    two terms (``_jump``), and K = 1 is the one-step rhs.  The
    tail branch of ``jhigh`` has one term and takes all its j - q steps at
    once.  The normal forms are those of the one-step rules (the tests keep
    those as the reference).  A firing still adds at most two pairs, so
    ``max_steps`` keeps its meaning.

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

    rules = []

    # ---- x powers and div flags -----------------------------------------

    if has_x:
        xsq = [(c, mono_mul(delta, _mono(d=-2))) for c, delta in pres.xsq_terms]
        rules.append(("x_power", lambda m: m[4] >= 2, _rhs(xsq)))

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

        def r_w0cw(m):
            return _jump(_W0_CW, m[2].bit_length() - 1)

        def r_w1cx(m):
            return _jump(_W1_CX, m[3].bit_length() - 1)

        rules.append(("w0_cw", g_w0cw, r_w0cw))
        rules.append(("w1_cx", lambda m: g_w0cw(_swap_mono(m)), r_w1cx))

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

        rules.append(("z1_pos", g_z1pos, lambda m: _xi_shift(m[1])))
        rules.append(("cw_elim", lambda m: m[2] >= 1, _rhs(_E2)))
    elif z1_inv:
        def g_z0pos(m):
            return m[0] >= 1 and m[5] == 0 and m[6] == 0

        rules.append(("z0_pos", g_z0pos, lambda m: _xi_shift(m[0])))
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
                return _xi_shift(min(s, t) if t > 0 else s)
            return _xi_shift(t)

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

        def r_t2(m):
            return _jump(_T2, min(m[1] // 2, m[3]).bit_length() - 1)

        rules.append(("t2", g_t2, r_t2))

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

            tail = _rhs([_CX_TAIL])
            # z0 cw X contains the top monomial cw^p cx^q: the tail plus
            # (1-k) times top at z0*cw*m/(z1*cx), where rho(1-k) = 1 leaves
            # the transfer terms as they are
            head = [(k, c * UNIT_1MK if k == "mono" else c, x) for k, c, x in pres.top_terms]
            top_tail = _rhs([_CX_TAIL], head, _mono(s=1, t=-1, i=1 - p, j=-1 - q))

            def r_jhigh(m):
                i, n = m[2], m[3] - q
                if i + 1 < p:
                    return _jump(_T2, min(p - 1 - i, n).bit_length() - 1)
                if m[4] == 0:
                    return top_tail
                if n < 2:
                    return tail
                # top times x vanishes, so the tail alone goes on down to
                # cx^q: e^{2L} z1^-L cx^-L for L = j - q
                return (((((pos(2 * n, 0), 1),), _mono(t=-n, j=-n)),), ())

            rules.append(("jhigh", g_jhigh, r_jhigh))

            def g_ihigh(m):
                s, t, i, j, d, w0, w1 = m
                if has_x and d == 0:
                    return False
                return s <= 0 and t == 0 and i >= p + 1 and j <= q - 1 and w0 == 0 and w1 == 0

            def r_ihigh(m):
                return _jump(_W0_CW, (m[2] - p).bit_length() - 1)

            rules.append(("ihigh", g_ihigh, r_ihigh))

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
# eta machinery
#
# eta restricts to the two fixed-set components.  Both restrictions are one
# construction with the roles of (zeta0, cw, divw) and (zeta1, cx, divx)
# exchanged: over component 0 zeta1 is invertible and zeta0 maps to
# xi * zeta1^-1, over component 1 the other way round.  An EtaSide holds
# what one component reads; eta_of_element runs the same code on each.

# monomial slots per side: (invertible zeta, non-invertible zeta, own c,
# own divided flag, other divided flag)
_SIDE_SLOTS = ((1, 0, 2, 5, 6), (0, 1, 3, 6, 5))
# zeta = rho(z1) restricts to iota^a zc^b: zc over component 0, and
# iota^2 zc^-1 (from rho(z0) = iota^2 zeta^-1) over component 1
_ZETA_IMAGE = ((0, 1), (2, -1))


class EtaSide:
    """The restriction eta to one fixed component (``side`` 0 or 1).

    ``R`` is the component ring; ``inv``, ``non``, ``c``, ``own_w`` and
    ``other_w`` are the monomial slots of the invertible zeta, the
    non-invertible zeta, this side's c (cw on side 0, cx on side 1) and the
    two divided flags; ``size`` is p on side 0 and q on side 1 (None for
    BU(1) and the point, which have no divided classes).  ``cw``, ``cx``
    and ``x`` are the images of the generators and ``y`` is the level-e
    image of y.  ``div_other`` is the image of the other side's divided
    class; ``w_div`` and ``w_xcore`` are level-e witnesses of the own
    divided class and of the x-core c^size x as transfers.  These three
    are None until ``_fill_divided`` sets them on first use.  Images that
    a space does not have are zero.
    """

    __slots__ = (
        "side", "R", "inv", "non", "c", "own_w", "other_w", "zeta", "size",
        "cw", "cx", "x", "div_other", "w_div", "w_xcore", "y",
    )

    def __init__(self, side, component, size):
        self.side = side
        self.R = R = ComponentRing(*component, ("z1", "z0")[side])
        self.inv, self.non, self.c, self.own_w, self.other_w = _SIDE_SLOTS[side]
        self.zeta = _ZETA_IMAGE[side]
        self.size = size
        # the own c restricts to zc*c, the other one to (e^2 + xi c) * zc^-1
        own = R.monomial(1, 1, 0)
        other = add_elts(R.monomial(-1, 0, 0, E2), R.monomial(-1, 1, 0, XI_PT))
        self.cw, self.cx = (own, other) if side == 0 else (other, own)
        self.x, self.y = {}, {}
        self.div_other = self.w_div = self.w_xcore = None


def _eta_base(pres, S, i, j, d, w):
    """eta_S(cw^i cx^j x^d div^w), div the other side's divided class,
    computed once per presentation.

    ``pres.eta_images`` holds these products keyed (side, i, j, d, w).  On
    spaces with finite p, q the arguments come from canonical monomials
    (or their divided cores): i <= p, j <= q, d <= 1, w <= 1, so the table
    never exceeds 2*(p+1)*(q+1)*2*2 entries and lives as long as the
    presentation.  BU(1) has no such bound, so its products are not kept.
    Only the factors with a nonzero exponent are multiplied, and a divided
    factor fills the divided-class data first (``_fill_divided``).
    """
    key = (S.side, i, j, d, w)
    img = pres.eta_images.get(key)
    if img is None:
        R = S.R
        if w and S.div_other is None:
            _fill_divided(pres)
        for gen, e in zip((S.cw, S.cx, S.x, S.div_other), (i, j, d, w)):
            if e:
                img = R.power(gen, e) if img is None else R.mul(img, R.power(gen, e))
        if img is None:
            img = R.one()
        if pres.p is not None:
            pres.eta_images[key] = img
    return img


def _eta_direct_mono(pres, S, mono, coeff):
    """Image of coeff*mono under eta_S, valid when the non-invertible
    zeta exponent is >= 0 and the own divided flag is absent."""
    if S.R.empty:
        return {}
    non_exp = mono[S.non]
    assert non_exp >= 0 and mono[S.own_w] == 0
    # the non-invertible zeta maps to xi * zc^-1, so the rest of the
    # monomial maps to the single term coeff*xi^non_exp * zc^shift at
    # c^0 y^0, which commutes with the quotient: apply it termwise
    scale = coeff * _xi_pow(non_exp) if non_exp else coeff
    shift = mono[S.inv] - non_exp
    out = {}
    for (u, d2, eps), v in _eta_base(pres, S, mono[2], mono[3], mono[4], mono[S.other_w]).items():
        v = v * scale
        if v.c:
            out[(u + shift, d2, eps)] = v
    return out


def eta_of_element(pres, x):
    """Restriction of a normal-form element to the two fixed components."""
    outs = []
    for S in pres.eta_sides:
        R = S.R
        acc = {}
        outs.append(acc)
        if R.empty:
            continue
        for mono, coeff in x.c2.items():
            k = -mono[S.non]
            if k <= 0 and not mono[S.own_w]:
                for key, v in _eta_direct_mono(pres, S, mono, coeff).items():
                    _add_term(acc, key, v)
                continue
            # divided class: tau(shift of a witness) times the direct rest
            if S.w_div is None:
                _fill_divided(pres)
            rest = list(mono)
            rest[S.non] = 0
            if mono[S.own_w]:
                core_w = S.w_div
                rest[S.own_w] = 0
            else:
                core_w = S.w_xcore
                rest[S.c] -= S.size
                if pres.has_x:
                    rest[4] -= 1
            rest_img = _eta_direct_mono(pres, S, tuple(rest), coeff)
            w = R.shift_noninvertible(core_w, k) if k else core_w
            for term, val in R.tau(R.model.mul(w, R.rho(rest_img))).items():
                _add_term(acc, term, val)
        ia, zb = S.zeta
        for (a, b), v in x.atoms.items():
            for term, val in R.tau(R.model.mul({(a + ia * b, zb * b, 0, 0): v}, S.y)).items():
                _add_term(acc, term, val)
    return tuple(outs)


def _divided_image(pres, S, T):
    """eta_S of the divided class of side T (``_divided``)."""
    img = {}
    for coeff, mono in _divided(pres, T.side):
        img = add_elts(img, _eta_direct_mono(pres, S, mono, coeff))
    return img


def _witness(pres, S, img, what):
    w = S.R.transfer_witness(img)
    assert w is not None, "%s image is not a transfer in %s" % (what, pres.name)
    return w


def _fill_divided(pres):
    """Set both sides' divided-class data: the image of the other side's
    divided class (``div_other``) and the witnesses of the own divided class
    and x-core (``w_div``, ``w_xcore``).  Called the first time a divided
    class or a negative power of a non-invertible zeta is restricted.
    BU(1) and the point (size None) have no divided classes, so theirs are
    zero."""
    sides = pres.eta_sides
    for S in sides:
        if S.size is None:
            S.div_other = S.w_div = S.w_xcore = {}
            continue
        S.div_other = _divided_image(pres, S, sides[1 - S.side])
        S.w_div = _witness(pres, S, _divided_image(pres, S, S), "divided class")
        # witnesses for divided x-monomials (and bare divided cores in the
        # projective/binate rings)
        core = [0] * 7
        core[S.c], core[4] = S.size, int(pres.has_x)
        S.w_xcore = _witness(pres, S, _eta_direct_mono(pres, S, tuple(core), ONE), "x-core")


def _build_eta(pres, deck):
    """The two EtaSide records of a deck (``Presentation.eta_sides``), with
    the generator images.

    The deck gives each component's ring kind and size.  Where rho(x) =
    iota^A zeta^B y^C (the quadrics), x -> (e^2 + xi c)^a zc^u y with
    (a, u) = (A/2, B) on side 0 and, through the swap (``_swap_key``),
    (A/2 + B, -B) on side 1; y -> c^d y, d half the y degree of the
    level-e model less that of the side's model.  The divided-class data
    are left to ``_fill_divided``, which the first divided restriction
    calls.
    """
    sizes = (pres.p, pres.q)
    sides = tuple(
        EtaSide(side, comp, sizes[side]) for side, comp in enumerate(deck["components"])
    )
    if pres.rho_x is not None:
        A, B, _ = pres.rho_x
        for S, (a, u) in zip(sides, ((A // 2, B), (A // 2 + B, -B))):
            R = S.R
            E = add_elts(R.monomial(0, 0, 0, E2), R.monomial(0, 1, 0, XI_PT))
            S.x = R.mul(R.power(E, a), R.monomial(u, 0, 1))
            S.y = {(0, 0, (pres.levele.y_degree() - R.model.y_degree()) // 2, 1): 1}
    return sides


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
    pres.eta_sides = _build_eta(pres, deck)
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
    pres.eta_sides = (EtaSide(0, ("free", 0), None), EtaSide(1, ("zero", 0), None))
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
    eta(x) and eta(y) follow from rho(x) and the models (``_build_eta``).
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

    The monomials come from ``_enumerate_coset_monomials``: the first slice
    of a coset on a presentation makes a fixed number of canonical tests
    and stores the coset's canonical strips, and every later slice of it,
    at any window, makes none until ``canonical_fn`` or ``rules`` changes
    (``Presentation._derived``).  The presentation keeps one entry per
    coset asked for (per coset and reach on bu1), each O(1) in p and q.  Each
    enumerated monomial costs one closed-form grading
    (``Presentation.mono_grading``); the window test and the sort run on
    its integers, and an offset ``Grading`` is built only for the rows
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
    for mono in _enumerate_coset_monomials(pres, coset, window):
        g = pres.mono_grading(mono)
        a, b = g.a + da, g.b
        if a0 <= a <= a1 and b0 <= b <= b1:
            kept.append((a, b))
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
    """Canonical monomials of one coset whose gradings can meet the window,
    as a fresh list.

    Every canonical monomial has s == 0 or t == 0 (see _make_canonical), and
    inside one coset t = t0 + s with t0 = shift - i + j fixed by the cell
    (d, w0, w1) and (i, j).  So each (i, j) holds at most the two candidates
    (0, t0) and (-t0, 0).  ``canonical`` depends on a monomial only through
    ``_class_key``, so it is tested once per box (an i piece times a j
    piece, see ``_pieces``), band of t0 and candidate, on one member, and a
    canonical box and band (a strip, see ``_canonical_strips``) is emitted
    whole.  Nothing in those tests depends on the window but the stand-ins
    for p and q, so the strips are kept on the presentation under
    (coset, p, q), in the ``strips`` of ``Presentation._derived``, which
    are emptied with the class table when ``canonical_fn`` or ``rules``
    changes.  The first enumeration of a coset makes a fixed number of
    ``Presentation.canonical`` tests, and a later one makes none and walks
    only its strips.  The table holds one
    entry per coset asked for, and on bu1, whose stand-ins grow with the
    window's reach, one per coset and reach; each entry is O(1) in p and q.
    The rest of the cost is O(p + q), the size of the output.
    """
    (a0, a1), (b0, b1) = window
    span = max(abs(a0), abs(a1), abs(b0), abs(b1)) + abs(coset)
    p = pres.p if pres.p is not None else span + 2
    q = pres.q if pres.q is not None else span + 2
    table = pres._derived().strips
    strips = table.get((coset, p, q))
    if strips is None:
        strips = table[coset, p, q] = _canonical_strips(pres, coset, p, q)
    out = []
    for fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi, dlo, dhi in strips:
        # row i of the strip holds jlo..jhi cut to i + dlo..i + dhi
        for i in range(ilo, ihi + 1):
            jl, jh = i + dlo, i + dhi
            if jl < jlo:
                jl = jlo
            if jh > jhi:
                jh = jhi
            for j in range(jl, jh + 1):
                t0 = shift - i + j
                out.append((fs * t0, ft * t0, i, j, d, w0, w1))
    return out


def _canonical_strips(pres, coset, p, q):
    """The canonical strips of one coset, with p and q the enumeration's
    stand-ins: a tuple of (fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi,
    dlo, dhi), one per cell, box, band and candidate whose member passes
    ``Presentation.canonical``, in emission order.  Its monomials are
    (fs * t0, ft * t0, i, j, d, w0, w1) with ilo <= i <= ihi, jlo <= j <=
    jhi, dlo <= j - i <= dhi and t0 = shift - i + j.  The bands are
    t0 <= -2, -1, 0, 1 and >= 2: the s and t clamps of the key, seen from
    both candidates (in band 0 the two are one).  That is one test per box,
    band and candidate, a fixed number per coset."""
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
                        if pres.canonical((fs * lo, ft * lo, ri, rj, d, w0, w1)):
                            out.append((fs, ft, d, w0, w1, shift, ilo, ihi, jlo, jhi, dlo, dhi))
    return tuple(out)
