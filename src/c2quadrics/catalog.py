"""Constructors for every space in the calculation.

Spaces and their space-id grammar:

    point            the point ring (coefficient arithmetic, wrapped)
    bu1              the classifying space BU(1)
    proj:p,q         finite projective space X^{p,q} = P(C^p + C_sigma^q)
    binate:p,q       the binate subvariety P u tP (proj basis + free-orbit line)
    quadric:m,n      the symmetric quadric Q^{m,n}, dispatched by parity:
                       (odd, odd) -> BB(p,q), (even, odd) -> DB, (odd, even) -> BD,
                       (even, even) -> DD
    neq:n,B|D        the nonequivariant oracle ring

Every presentation uses the same orientation of the e^2-relation

    e^2 = z0*cw - (1-k)*z1*cx,

rewriting z0*cw downward, so canonical monomials never contain z0
together with cw.  Divided classes (negative z0/z1 powers) are carried
either directly on x-monomials or through the divw/divx flags.
"""

from __future__ import annotations

import warnings

from .coefficients import (
    KAPPA_PT,
    ONE,
    PointElt,
    negkappa,
    pos,
    trans,
)
from .component import ComponentRing
from .grading import Grading, OMEGA1, W, XW, coset_index
from .levele import LevelEModel
from .noneq import InvalidSizeError, NoneqQuadricRing
from .rewrite import MONO_ONE, Presentation, RingElement, mono_mul


class RestrictedGradingWarning(UserWarning):
    """The grading lattice of this space is larger than RO(Pi BU(1))."""


class InvalidWindowError(ValueError):
    """A grading window with reversed bounds."""


E2 = PointElt.monomial(pos(2, 0))
XI = PointElt.monomial(pos(0, 1))
ONE_MINUS_K = ONE - KAPPA_PT
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


def _terms_elt(pres, terms, rest=MONO_ONE):
    """Assemble sum(entry * rest) as a raw RingElement.

    terms entries are ("mono", point_coeff, mono) or ("atom", int, (a, b));
    atom entries are multiplied by the rest monomial through Frobenius.
    """
    out = RingElement(pres, "top")
    for kind, c, payload in terms:
        if kind == "mono":
            out = out + RingElement(pres, "top", c2={mono_mul(payload, rest): c})
        else:
            a, b = payload
            w = pres.levele.mul(pres._rho_mono(rest), {(a, b, 0, 1): c})
            out = out + pres.tau_of_levele(w)
    return out


def _delta(m, ds=0, dt=0, di=0, dj=0, dd=0, dw0=0, dw1=0):
    s, t, i, j, d, w0, w1 = m
    return (s + ds, t + dt, i + di, j + dj, d + dd, w0 + dw0, w1 + dw1)


def _elt(pres, *pairs):
    """pairs of (coeff, mono) -> raw element."""
    out = RingElement(pres, "top")
    for coeff, mono in pairs:
        out = out + RingElement(pres, "top", c2={mono: coeff})
    return out


# ---------------------------------------------------------------------------
# generic quadric-family presentation builder

# deck: dict with p, q, has_x, has_atoms, z0_inv, z1_inv, corrw, corrx,
# xsq_terms, top_terms, divdiv_terms, rho_x, levele, x_grading


def _build_rules(deck):
    p, q = deck["p"], deck["q"]
    has_x = deck["has_x"]
    z0_inv = deck.get("z0_inv", False)
    z1_inv = deck.get("z1_inv", False)
    corrw = deck.get("corrw", [])
    corrx = deck.get("corrx", [])
    xsq_terms = deck.get("xsq_terms", [])
    top_terms = deck.get("top_terms", [])
    divdiv_terms = deck.get("divdiv_terms", [])
    infinite = p is None  # BU(1)

    def ge_p(i):
        return False if infinite else i >= p

    def ge_q(j):
        return False if infinite else j >= q

    rules = []

    def rule(name, guard, rhs):
        rules.append((name, guard, rhs))

    def expand_corr(pres, m, corr, sign=-1, extra=()):
        """sum of sign * corr-term * m (corr terms carry their own deltas)."""
        out = RingElement(pres, "top")
        for coeff, delta in corr:
            mono = mono_mul(m, delta)
            out = out + RingElement(pres, "top", c2={mono: coeff * sign})
        return out

    # ---- x powers and div flags -----------------------------------------

    if has_x:
        def g_xpow(m):
            return m[4] >= 2

        def r_xpow(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dd=-2)
            out = RingElement(pres, "top")
            for coeff, delta in xsq_terms:
                out = out + RingElement(pres, "top", c2={mono_mul(rest, delta): coeff})
            return out

        rules.append(("x_power", g_xpow, r_xpow))

        def g_topx(m):
            s, t, i, j, d, w0, w1 = m
            return d >= 1 and w0 == 0 and w1 == 0 and ge_p(i) and ge_q(j)

        rules.append(("top_x", g_topx, lambda m, _p=[None]: RingElement(_p[0], "top")))

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

    def r_top(m, _pres_ref=[None]):
        pres = _pres_ref[0]
        rest = _delta(m, di=-p, dj=-q)
        return _terms_elt(pres, top_terms, rest)

    if not infinite:
        rules.append(("top", g_top, r_top))

    if has_x:
        def g_divdiv(m):
            return m[5] >= 1 and m[6] >= 1

        def r_divdiv(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dw0=-1, dw1=-1)
            return _terms_elt(pres, divdiv_terms, rest)

        rules.append(("divdiv", g_divdiv, r_divdiv))

        def g_w0sq(m):
            return m[5] >= 2

        def r_w0sq(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dw0=-1)
            out = RingElement(pres, "top", c2={_delta(rest, di=p): ONE})
            return out + expand_corr(pres, rest, corrw, sign=-1)

        rules.append(("w0_square", g_w0sq, r_w0sq))

        def g_w1sq(m):
            return m[6] >= 2

        def r_w1sq(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dw1=-1)
            out = RingElement(pres, "top", c2={_delta(rest, dj=q): ONE})
            return out + expand_corr(pres, rest, corrx, sign=-1)

        rules.append(("w1_square", g_w1sq, r_w1sq))

        def g_w0exp(m):
            s, t, i, j, d, w0, w1 = m
            if w0 != 1 or w1 != 0:
                return False
            if z1_inv or z0_inv:
                return True
            if d >= 1:
                return True
            if t != 0 or i != 0:
                return False
            return s >= 1 or (s == 0 and j <= q - 1)

        def r_w0exp(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dw0=-1)
            out = RingElement(pres, "top", c2={_delta(rest, di=p): ONE})
            return out + expand_corr(pres, rest, corrw, sign=-1)

        rules.append(("w0_expand", g_w0exp, r_w0exp))

        def g_w1exp(m):
            s, t, i, j, d, w0, w1 = m
            if w1 != 1 or w0 != 0:
                return False
            if z1_inv or z0_inv:
                return True
            if d >= 1:
                return True
            if s != 0 or j != 0:
                return False
            return t >= 1 or (t == 0 and i <= p - 1)

        def r_w1exp(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dw1=-1)
            out = RingElement(pres, "top", c2={_delta(rest, dj=q): ONE})
            return out + expand_corr(pres, rest, corrx, sign=-1)

        rules.append(("w1_expand", g_w1exp, r_w1exp))

        def g_w0cw(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w0 == 1 and w1 == 0 and d == 0 and i >= 1 and t == 0
            )

        def r_w0cw(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (E2, _delta(m, ds=-1, di=-1)),
                (ONE_MINUS_K * XI, _delta(m, ds=-2, di=-1, dj=1)),
            )

        rules.append(("w0_cw", g_w0cw, r_w0cw))

        def g_w1cx(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w1 == 1 and w0 == 0 and d == 0 and j >= 1 and s == 0
            )

        def r_w1cx(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (E2, _delta(m, dt=-1, dj=-1)),
                (ONE_MINUS_K * XI, _delta(m, dt=-2, dj=-1, di=1)),
            )

        rules.append(("w1_cx", g_w1cx, r_w1cx))

        def g_w0cx(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w0 == 1 and w1 == 0 and d == 0 and i == 0 and ge_q(j)
                and s <= 0 and t == 0
            )

        def r_w0cx(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, dj=-q, dw0=-1)
            out = _terms_elt(pres, divdiv_terms, rest)
            for coeff, delta in corrx:
                out = out + RingElement(
                    pres, "top", c2={mono_mul(_delta(m, dj=-q), delta): coeff}
                )
            return out

        rules.append(("w0_cx", g_w0cx, r_w0cx))

        def g_w1cw(m):
            s, t, i, j, d, w0, w1 = m
            return (
                not (z0_inv or z1_inv)
                and w1 == 1 and w0 == 0 and d == 0 and j == 0 and ge_p(i)
                and s == 0
            )

        def r_w1cw(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            rest = _delta(m, di=-p, dw1=-1)
            out = _terms_elt(pres, divdiv_terms, rest)
            for coeff, delta in corrw:
                out = out + RingElement(
                    pres, "top", c2={mono_mul(_delta(m, di=-p), delta): coeff}
                )
            return out

        rules.append(("w1_cw", g_w1cw, r_w1cw))

    # ---- zeta bookkeeping -------------------------------------------------

    if z0_inv:
        def g_z1pos(m):
            return m[1] >= 1 and m[5] == 0 and m[6] == 0

        def r_z1pos(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            t = m[1]
            return _elt(pres, (_xi_pow(t), _delta(m, ds=-t, dt=-t)))

        rules.append(("z1_pos", g_z1pos, r_z1pos))

        def g_cwelim(m):
            return m[2] >= 1

        def r_cwelim(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (E2, _delta(m, ds=-1, di=-1)),
                (ONE_MINUS_K, _delta(m, ds=-1, dt=1, di=-1, dj=1)),
            )

        rules.append(("cw_elim", g_cwelim, r_cwelim))
    elif z1_inv:
        def g_z0pos(m):
            return m[0] >= 1 and m[5] == 0 and m[6] == 0

        def r_z0pos(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            s = m[0]
            return _elt(pres, (_xi_pow(s), _delta(m, ds=-s, dt=-s)))

        rules.append(("z0_pos", g_z0pos, r_z0pos))

        def g_cxelim(m):
            return m[3] >= 1

        def r_cxelim(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (ONE_MINUS_K, _delta(m, ds=1, dt=-1, di=1, dj=-1)),
                (ONE_MINUS_K * E2 * -1, _delta(m, dt=-1, dj=-1)),
            )

        rules.append(("cx_elim", g_cxelim, r_cxelim))
    else:
        def g_ximix(m):
            s, t, i, j, d, w0, w1 = m
            if s > 0 and (t != 0 or w1 >= 1):
                return True
            if t > 0 and (s != 0 or w0 >= 1):
                return True
            return False

        def r_ximix(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            s, t = m[0], m[1]
            if s > 0 and t > 0:
                mu = min(s, t)
                return _elt(pres, (_xi_pow(mu), _delta(m, ds=-mu, dt=-mu)))
            if s > 0:
                return _elt(pres, (_xi_pow(s), _delta(m, ds=-s, dt=-s)))
            return _elt(pres, (_xi_pow(t), _delta(m, ds=-t, dt=-t)))

        rules.append(("xi_mix", g_ximix, r_ximix))

        def g_e2(m):
            s, t, i, j, d, w0, w1 = m
            return s >= 1 and i >= 1 and t == 0 and w0 == 0 and w1 == 0

        def r_e2(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (E2, _delta(m, ds=-1, di=-1)),
                (ONE_MINUS_K, _delta(m, ds=-1, dt=1, di=-1, dj=1)),
            )

        rules.append(("e2", g_e2, r_e2))

        def g_divs(m):
            s, t, i, j, d, w0, w1 = m
            return (
                s >= 1 and i == 0 and ge_q(j) and t == 0 and w0 == 0 and w1 == 0
                and (not has_x or d >= 1)
            )

        def r_divs(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(pres, (XI, _delta(m, ds=-1, dt=-1)))

        rules.append(("div_s", g_divs, r_divs))

        def g_t2(m):
            s, t, i, j, d, w0, w1 = m
            return t >= 2 and j >= 1 and w0 == 0 and w1 == 0

        def r_t2(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            return _elt(
                pres,
                (ONE_MINUS_K * XI, _delta(m, dt=-2, di=1, dj=-1)),
                (ONE_MINUS_K * E2 * -1, _delta(m, dt=-1, dj=-1)),
            )

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

            def r_jhigh(m, _pres_ref=[None]):
                pres = _pres_ref[0]
                tail = _elt(pres, (ONE_MINUS_K * E2 * -1, _delta(m, dt=-1, dj=-1)))
                if m[2] + 1 < p:
                    head = _elt(pres, (ONE_MINUS_K * XI, _delta(m, dt=-2, di=1, dj=-1)))
                    return head + tail
                # z0 cw X contains the top monomial cw^p cx^q
                lead = _delta(m, ds=1, dt=-1, di=1, dj=-1)
                if lead[4] >= 1:
                    return tail  # top times x vanishes
                rest = _delta(lead, di=-p, dj=-q)
                head = _terms_elt(pres, top_terms, rest)
                return head.scale(ONE_MINUS_K) + tail

            rules.append(("jhigh", g_jhigh, r_jhigh))

            def g_ihigh(m):
                s, t, i, j, d, w0, w1 = m
                if has_x and d == 0:
                    return False
                return s <= 0 and t == 0 and i >= p + 1 and j <= q - 1 and w0 == 0 and w1 == 0

            def r_ihigh(m, _pres_ref=[None]):
                pres = _pres_ref[0]
                return _elt(
                    pres,
                    (E2, _delta(m, ds=-1, di=-1)),
                    (ONE_MINUS_K * XI, _delta(m, ds=-2, di=-1, dj=1)),
                )

            rules.append(("ihigh", g_ihigh, r_ihigh))

            def g_tpos_ihigh(m):
                s, t, i, j, d, w0, w1 = m
                return (
                    t >= 1 and ge_p(i) and j <= q - 1 and w0 == 0 and w1 == 0
                    and (not has_x or d >= 1)
                )

            def r_tpos_ihigh(m, _pres_ref=[None]):
                pres = _pres_ref[0]
                return _elt(pres, (XI, _delta(m, ds=-1, dt=-1)))

            rules.append(("tpos_ihigh", g_tpos_ihigh, r_tpos_ihigh))

    # ---- conversion of bare divided d0-monomials in quadrics --------------

    if has_x:
        def r_repl0(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            out = RingElement(pres, "top", c2={_delta(m, di=-p, dw0=1): ONE})
            for coeff, delta in corrw:
                out = out + RingElement(
                    pres, "top", c2={mono_mul(_delta(m, di=-p), delta): coeff}
                )
            return out

        def r_repl1(m, _pres_ref=[None]):
            pres = _pres_ref[0]
            out = RingElement(pres, "top", c2={_delta(m, dj=-q, dw1=1): ONE})
            for coeff, delta in corrx:
                out = out + RingElement(
                    pres, "top", c2={mono_mul(_delta(m, dj=-q), delta): coeff}
                )
            return out

        if not z1_inv and not z0_inv:
            def g_repl0(m):
                s, t, i, j, d, w0, w1 = m
                if not (d == 0 and w0 == 0 and w1 == 0 and i >= p):
                    return False
                if s <= -1:
                    return True
                if t >= 1 and j < q:
                    return True
                return s == 0 and t == 0 and i >= p + 1 and j < q

            rules.append(("repl0", g_repl0, r_repl0))

            def g_repl1(m):
                s, t, i, j, d, w0, w1 = m
                if not (d == 0 and w0 == 0 and w1 == 0 and j >= q):
                    return False
                if t <= -1 and s == 0:
                    return True
                return i < p and (s >= 1 or (t in (0, 1) and s == 0 and j >= q + 1))

            rules.append(("repl1", g_repl1, r_repl1))

    return rules


def _bind_rules(pres):
    """Close each rule's rhs over the finished presentation."""
    for name, guard, rhs in pres.rules:
        cell = rhs.__defaults__[0]
        cell[0] = pres


def _make_canonical(deck):
    p, q = deck["p"], deck["q"]
    has_x = deck["has_x"]
    z0_inv = deck.get("z0_inv", False)
    z1_inv = deck.get("z1_inv", False)
    infinite = p is None

    # Every branch below accepts only s == 0 or t == 0; the basis
    # enumeration (_enumerate_coset_monomials) depends on this.
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


def _eta_direct_mono(pres, side, mono, coeff):
    """Image of coeff*mono under eta_side, valid when the non-invertible
    zeta exponent is >= 0 and the div flag for this side is absent."""
    R = pres.eta_data["R0"] if side == 0 else pres.eta_data["R1"]
    if R.empty:
        return {}
    data = pres.eta_data
    s, t, i, j, d, w0, w1 = mono
    if side == 0:
        inv_exp, non_exp = t, s
        own_w, other_w = w0, w1
        div_other = data.get("eta0_divx")
        imgs = (data["eta0_cw"], data["eta0_cx"], data.get("eta0_x"))
    else:
        inv_exp, non_exp = s, t
        own_w, other_w = w1, w0
        div_other = data.get("eta1_divw")
        imgs = (data["eta1_cw"], data["eta1_cx"], data.get("eta1_x"))
    assert non_exp >= 0 and own_w == 0
    out = R.monomial(inv_exp, 0, 0, coeff)
    if non_exp:
        out = R.mul(out, R.power(R.monomial(-1, 0, 0, XI), non_exp))
    for img, e in zip(imgs, (i, j, d)):
        if e:
            out = R.mul(out, R.power(img, e))
    if other_w:
        out = R.mul(out, R.power(div_other, other_w))
    return out


def eta_of_element(pres, x):
    """Restriction of a normal-form element to the two fixed components."""
    data = pres.eta_data
    outs = []
    for side in (0, 1):
        R = data["R0"] if side == 0 else data["R1"]
        acc = R.zero()
        if R.empty:
            outs.append(acc)
            continue
        for mono, coeff in x.c2.items():
            s, t, i, j, d, w0, w1 = mono
            neg = s if side == 0 else t
            own_w = w0 if side == 0 else w1
            if neg >= 0 and own_w == 0:
                acc = R.add(acc, _eta_direct_mono(pres, side, mono, coeff))
                continue
            # divided class: tau(shift of a witness) times the direct rest
            rest = list(mono)
            rest[0 if side == 0 else 1] = 0
            k = -neg
            if own_w:
                core_w = data["w_div0"] if side == 0 else data["w_div1"]
                rest[5 if side == 0 else 6] = 0
            else:
                core_w = data["w_xcore0"] if side == 0 else data["w_xcore1"]
                if side == 0:
                    rest[2] -= pres.p
                else:
                    rest[3] -= pres.q
                if pres.has_x:
                    rest[4] -= 1
            rest_img = _eta_direct_mono(pres, side, tuple(rest), coeff)
            w = dict(core_w)
            if k:
                w = R.shift_noninvertible(w, k)
            acc = R.add(acc, R.tau(R.model.mul(w, R.rho(rest_img))))
        for (a, b), v in x.atoms.items():
            ye = data["eta0e_y"] if side == 0 else data["eta1e_y"]
            if side == 0:
                key = (a, b, 0, 0)
            else:
                # zeta = rho(z1) restricts over component 1 to iota^2/zeta
                key = (a + 2 * b, -b, 0, 0)
            w = R.model.mul({key: v}, ye)
            acc = R.add(acc, R.tau(w))
        outs.append(acc)
    return tuple(outs)


# ---------------------------------------------------------------------------
# deck constructors


def _finish(name, space, deck, identities=()):
    cfg = dict(deck)
    cfg["rules"] = _build_rules(deck)
    cfg["canonical"] = _make_canonical(deck)
    cfg["identities"] = list(identities)
    pres = Presentation(name, space, cfg)
    _bind_rules(pres)
    pres.eta_data = _build_eta(pres, deck)
    return pres


def _build_eta(pres, deck):
    spec = deck.get("components")
    if spec is None:
        return None
    (k0, n0), (k1, n1) = spec
    R0 = ComponentRing(k0, n0, "z1")
    R1 = ComponentRing(k1, n1, "z0")
    data = {"R0": R0, "R1": R1}
    # generator images: zc is invertible, the other Euler class maps to
    # xi * zc^{-1}; cw and cx restrict to zc*c over their own component and
    # to (e^2 + xi c) * zc^{-1} over the other one
    data["eta0_cw"] = R0.monomial(1, 1, 0)
    data["eta0_cx"] = R0.add(R0.monomial(-1, 0, 0, E2), R0.monomial(-1, 1, 0, XI))
    data["eta1_cx"] = R1.monomial(1, 1, 0)
    data["eta1_cw"] = R1.add(R1.monomial(-1, 0, 0, E2), R1.monomial(-1, 1, 0, XI))
    if deck.get("eta_x") is not None:
        (a0, u0), (a1, u1) = deck["eta_x"]
        E0 = R0.add(R0.monomial(0, 0, 0, E2), R0.monomial(0, 1, 0, XI))
        E1 = R1.add(R1.monomial(0, 0, 0, E2), R1.monomial(0, 1, 0, XI))
        data["eta0_x"] = R0.mul(R0.power(E0, a0), R0.monomial(u0, 0, 1))
        data["eta1_x"] = R1.mul(R1.power(E1, a1), R1.monomial(u1, 0, 1))
    if deck.get("eta_y") is not None:
        d0, d1 = deck["eta_y"]
        data["eta0e_y"] = {(0, 0, d0, 1): 1}
        data["eta1e_y"] = {(0, 0, d1, 1): 1}
    pres.eta_data = data
    p, q = deck["p"], deck["q"]
    has_x = deck["has_x"]
    # images of the corrected divisible classes and their witnesses
    if p is not None:
        corrw, corrx = deck.get("corrw", []), deck.get("corrx", [])
        if not R1.empty:
            img = _eta_direct_mono(pres, 1, (0, 0, 0, q, 0, 0, 0), ONE)
            for coeff, delta in corrx:
                img = R1.add(img, _eta_direct_mono(pres, 1, delta, coeff * -1))
            data["eta1_divx"] = img
            w = R1.transfer_witness(img)
            assert w is not None, "div_chi image is not a transfer in %s" % pres.name
            data["w_div1"] = w
        else:
            data["eta1_divx"] = R1.zero()
            data["w_div1"] = {}
        if not R0.empty:
            img = _eta_direct_mono(pres, 0, (0, 0, p, 0, 0, 0, 0), ONE)
            for coeff, delta in corrw:
                img = R0.add(img, _eta_direct_mono(pres, 0, delta, coeff * -1))
            data["eta0_divw"] = img
            w = R0.transfer_witness(img)
            assert w is not None, "div_w image is not a transfer in %s" % pres.name
            data["w_div0"] = w
        else:
            data["eta0_divw"] = R0.zero()
            data["w_div0"] = {}
        # eta0_divx is the direct image of divx (divisible side is z1,
        # invertible in R0), and mirror for eta1_divw
        if not R0.empty:
            img = _eta_direct_mono(pres, 0, (0, 0, 0, q, 0, 0, 0), ONE)
            for coeff, delta in corrx:
                img = R0.add(img, _eta_direct_mono(pres, 0, delta, coeff * -1))
            data["eta0_divx"] = img
        if not R1.empty:
            img = _eta_direct_mono(pres, 1, (0, 0, p, 0, 0, 0, 0), ONE)
            for coeff, delta in corrw:
                img = R1.add(img, _eta_direct_mono(pres, 1, delta, coeff * -1))
            data["eta1_divw"] = img
        # witnesses for divided x-monomials (and bare divided cores in the
        # projective/binate rings)
        core0 = (0, 0, p, 0, 1 if has_x else 0, 0, 0)
        core1 = (0, 0, 0, q, 1 if has_x else 0, 0, 0)
        if not R0.empty and not deck.get("z0_inv"):
            img = _eta_direct_mono(pres, 0, core0, ONE)
            w = R0.transfer_witness(img)
            assert w is not None, "x-core image not a transfer in %s" % pres.name
            data["w_xcore0"] = w
        if not R1.empty and not deck.get("z1_inv"):
            img = _eta_direct_mono(pres, 1, core1, ONE)
            w = R1.transfer_witness(img)
            assert w is not None, "x-core image not a transfer in %s" % pres.name
            data["w_xcore1"] = w
    return data


def make_point():
    """The point ring, wrapped as a trivial presentation."""
    deck = {
        "p": 0,
        "q": 0,
        "has_x": False,
        "levele": LevelEModel("free"),
        "rules": [],
    }
    cfg = dict(deck)
    cfg["canonical"] = lambda m: m == MONO_ONE
    cfg["identities"] = []
    pres = Presentation("point", ("point",), cfg)
    pres.eta_data = {
        "R0": ComponentRing("free", 0, "z1"),
        "R1": ComponentRing("zero", 0, "z0"),
        "eta0_cw": None,
        "eta0_cx": None,
        "eta1_cw": None,
        "eta1_cx": None,
        "eta0e_y": {},
        "eta1e_y": {},
    }
    return pres


def make_bu1():
    deck = {
        "p": None,
        "q": None,
        "has_x": False,
        "levele": LevelEModel("free"),
        "components": (("free", 0), ("free", 0)),
        "eta_x": None,
    }

    def identities(label):
        def bu1_idents(P):
            z0, z1, cw, cx = P.gen("z0"), P.gen("z1"), P.gen("cw"), P.gen("cx")
            if label == "zeta":
                return (z0 * z1, P.scalar(1) * XI)
            if label == "esq":
                return (P.scalar(1) * E2, z0 * cw - (z1 * cx) * ONE_MINUS_K)
            # consequence: t(iota^-2) z0 cw = t(iota^-2) z1 cx
            return ((z0 * cw) * TRANS_M1, (z1 * cx) * TRANS_M1)

        return bu1_idents

    idents = [
        ("zeta0*zeta1 = xi", identities("zeta")),
        ("e^2 = z0*cw - (1-k)*z1*cx", identities("esq")),
        ("t(iota^-2)*z0*cw = t(iota^-2)*z1*cx", identities("trans")),
    ]
    return _finish("bu1", ("bu1",), deck, idents)


def make_projective(p, q):
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidSizeError("proj needs p, q >= 0 and p + q >= 1")
    deck = {
        "p": p,
        "q": q,
        "has_x": False,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "levele": LevelEModel("proj", p + q),
        "top_terms": [],
        "components": (
            ("proj", p) if p else ("zero", 0),
            ("proj", q) if q else ("zero", 0),
        ),
        "eta_x": None,
    }

    def top_ident(P):
        return ((P.gen("cw") ** p) * (P.gen("cx") ** q), P.zero())

    return _finish("proj:%d,%d" % (p, q), ("proj", p, q), deck, [("cw^p*cx^q = 0", top_ident)])


def make_binate(p, q):
    if p < 0 or q < 0:
        raise InvalidSizeError("binate needs p, q >= 0")
    if p == 0 and q == 0:
        return _make_free_orbit("binate:0,0", ("binate", 0, 0))
    deck = {
        "p": p,
        "q": q,
        "has_x": False,
        "has_atoms": True,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "levele": LevelEModel("binate", p + q),
        "top_terms": [("atom", 1, (2 * q, p - q))],
        "components": (
            ("proj", p) if p else ("zero", 0),
            ("proj", q) if q else ("zero", 0),
        ),
        "eta_x": None,
        "eta_y": None,
    }

    def top_ident(P):
        lhs = (P.gen("cw") ** p) * (P.gen("cx") ** q)
        return (lhs, P.tau_atom(2 * q, p - q))

    pres = _finish("binate:%d,%d" % (p, q), ("binate", p, q), deck, [
        ("cw^p*cx^q = z0^q*z1^p*t(y)", top_ident)
    ])
    pres.eta_data["eta0e_y"] = {}
    pres.eta_data["eta1e_y"] = {}
    return pres


def _make_free_orbit(name, space):
    """The free orbit C2 (the quadric Q^{1,1} and the binate S^{0,0})."""
    deck = {
        "p": 0,
        "q": 0,
        "has_x": True,
        "has_atoms": True,
        "free_orbit": True,
        "levele": LevelEModel("D", 1),
        "x_grading": W + XW - Grading(2),
        "rho_x": (0, 0, 0),
        "xsq_terms": [],
        "components": (("zero", 0), ("zero", 0)),
        "eta_x": None,
        "eta_y": None,
    }
    cfg = dict(deck)
    cfg["canonical"] = lambda m: False
    cfg["rules"] = [
        ("x_zero", lambda m: m[4] >= 1, lambda m, _p=[None]: RingElement(_p[0], "top"))
    ]
    cfg["identities"] = [
        ("x = 0", lambda P: (P.gen("x"), P.zero())),
        ("1 = t(y)", lambda P: (P.scalar(1), P.tau_atom(0, 0))),
    ]
    pres = Presentation(name, space, cfg)
    _bind_rules(pres)
    pres.eta_data = {
        "R0": ComponentRing("zero", 0, "z1"),
        "R1": ComponentRing("zero", 0, "z0"),
        "eta0e_y": {},
        "eta1e_y": {},
    }
    return pres


def _div_elements(P):
    """divw and divx assembled from their defining expressions."""
    p, q = P.p, P.q
    divw = P.monomial_elt((0, 0, p, 0, 0, 0, 0))
    for coeff, delta in P.corrw:
        divw = divw - P.monomial_elt(delta, coeff)
    divx = P.monomial_elt((0, 0, 0, q, 0, 0, 0))
    for coeff, delta in P.corrx:
        divx = divx - P.monomial_elt(delta, coeff)
    return divw, divx


def _quad_identities(kind):
    def idents(P):
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

    return idents


def _make_quad_deck(name, space, deck, warn=None):
    deck.setdefault("has_x", True)
    pres = _finish(name, space, deck, [])
    builder = _quad_identities(deck["kind"])
    pres.identities = lambda: builder(pres)
    if warn:
        pres.warnings.append(warn)
        warnings.warn(warn, RestrictedGradingWarning, stacklevel=3)
    return pres


def _bb(p, q):
    if p == 0 and q == 0:
        return _make_free_orbit("quadric:1,1", ("quadric", 1, 1))
    deck = {
        "kind": "BB",
        "p": p,
        "q": q,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "has_atoms": True,
        "x_grading": (p + 1) * W + (q + 1) * XW - Grading(2),
        "rho_x": (2 * (q + 1), p - q, 1),
        "levele": LevelEModel("D", p + q + 1),
        "corrw": [(nk(2 * (q + 1)), (0, q, 0, 0, 1, 0, 0))],
        "corrx": [(nk(2 * (p + 1)), (p, 0, 0, 0, 1, 0, 0))],
        "xsq_terms": [],
        "divdiv_terms": [("atom", 1, (2 * q, p - q))],
        "top_terms": [("atom", 1, (2 * q, p - q)), ("mono", nk(2), (0, 0, 0, 0, 1, 0, 0))],
        "components": (("B", p) if p else ("zero", 0), ("B", q) if q else ("zero", 0)),
        "eta_x": ((q + 1, p - q), (p + 1, q - p)),
        "eta_y": (q, p),
    }
    return _make_quad_deck(
        "quadric:%d,%d" % (2 * p + 1, 2 * q + 1),
        ("quadric", 2 * p + 1, 2 * q + 1),
        deck,
    )


def _db(p, q):
    deck = {
        "kind": "DB",
        "p": p,
        "q": q,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "x_grading": p * W + (q + 1) * XW - Grading(2),
        "rho_x": (2 * (q + 1), p - q - 1, 0),
        "levele": LevelEModel("B", p + q),
        "corrw": [] if p <= 1 else [(nk(2 * (q + 1)), (0, q, 1, 0, 1, 0, 0))],
        "corrx": [(nk(2 * p), (p - 1, 0, 0, 0, 1, 0, 0))],
        "xsq_terms": [] if p % 2 == 0 else [(E2, (0, 0, p - 1, q, 1, 0, 0))],
        "divdiv_terms": [("mono", TRANS_M1, (0, 1, 0, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (0, 1, 0, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 1, 0, 1, 0, 0)),
        ],
        "components": (("D", p) if p else ("zero", 0), ("B", q) if q else ("zero", 0)),
        "eta_x": ((q + 1, p - q - 1), (p, q + 1 - p)),
        "eta_y": (q + 1, p),
    }
    warn = None
    if 2 * p == 2:
        warn = "grading restricted: RO(Pi Q^{2,%d}) is larger than RO(Pi BU(1))" % (2 * q + 1)
    return _make_quad_deck(
        "quadric:%d,%d" % (2 * p, 2 * q + 1), ("quadric", 2 * p, 2 * q + 1), deck, warn
    )


def _bd(p, q):
    deck = {
        "kind": "BD",
        "p": p,
        "q": q,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "x_grading": (p + 1) * W + q * XW - Grading(2),
        "rho_x": (2 * q, p + 1 - q, 0),
        "levele": LevelEModel("B", p + q),
        "corrw": [(nk(2 * q), (0, q - 1, 0, 0, 1, 0, 0))],
        "corrx": [] if q <= 1 else [(nk(2 * (p + 1)), (p, 0, 0, 1, 1, 0, 0))],
        "xsq_terms": [] if q % 2 == 0 else [(E2, (0, 0, p, q - 1, 1, 0, 0))],
        "divdiv_terms": [("mono", TRANS_M1, (1, 0, 0, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (1, 0, 0, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 0, 1, 1, 0, 0)),
        ],
        "components": (("B", p) if p else ("zero", 0), ("D", q) if q else ("zero", 0)),
        "eta_x": ((q, p + 1 - q), (p + 1, q - p - 1)),
        "eta_y": (q, p + 1),
    }
    warn = None
    if 2 * q == 2:
        warn = "grading restricted: RO(Pi Q^{%d,2}) is larger than RO(Pi BU(1))" % (2 * p + 1)
    return _make_quad_deck(
        "quadric:%d,%d" % (2 * p + 1, 2 * q), ("quadric", 2 * p + 1, 2 * q), deck, warn
    )


def _dd(p, q):
    if p % 2 == 0 and q % 2 == 0:
        xsq = []
    elif p % 2 == 1 and q % 2 == 1:
        xsq = [(E2, (0, 0, p - 1, q - 1, 1, 0, 0))]
    elif p % 2 == 0:
        xsq = [(ONE, (1, 0, p, q - 1, 1, 0, 0))]
    else:
        xsq = [(ONE, (0, 1, p - 1, q, 1, 0, 0))]
    deck = {
        "kind": "DD",
        "p": p,
        "q": q,
        "z0_inv": p == 0,
        "z1_inv": q == 0,
        "x_grading": p * W + q * XW - Grading(2),
        "rho_x": (2 * q, p - q, 0),
        "levele": LevelEModel("D", p + q, t_fixes_y=True),
        "corrw": [] if p <= 1 else [(nk(2 * q), (0, q - 1, 1, 0, 1, 0, 0))],
        "corrx": [] if q <= 1 else [(nk(2 * p), (p - 1, 0, 0, 1, 1, 0, 0))],
        "xsq_terms": xsq,
        "divdiv_terms": [("mono", TRANS_M1, (1, 0, 1, 0, 1, 0, 0))],
        "top_terms": [
            ("mono", TRANS_M1, (1, 0, 1, 0, 1, 0, 0)),
            ("mono", nk(2), (0, 0, 1, 1, 1, 0, 0)),
        ],
        "components": (("D", p) if p else ("zero", 0), ("D", q) if q else ("zero", 0)),
        "eta_x": ((q, p - q), (p, q - p)),
        "eta_y": (q, p),
    }
    warn = None
    if 2 * p == 2 or 2 * q == 2:
        warn = "grading restricted: RO(Pi Q^{%d,%d}) is larger than RO(Pi BU(1))" % (2 * p, 2 * q)
    return _make_quad_deck(
        "quadric:%d,%d" % (2 * p, 2 * q), ("quadric", 2 * p, 2 * q), deck, warn
    )


def make_quadric(m, n):
    if m < 0 or n < 0 or m + n < 2:
        raise InvalidSizeError("quadric needs m, n >= 0 with m + n >= 2")
    if m % 2 == 1 and n % 2 == 1:
        return _bb((m - 1) // 2, (n - 1) // 2)
    if m % 2 == 0 and n % 2 == 1:
        return _db(m // 2, (n - 1) // 2)
    if m % 2 == 1 and n % 2 == 0:
        return _bd((m - 1) // 2, n // 2)
    return _dd(m // 2, n // 2)


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
    out = RingElement(target, x.level)
    for (s, t, i, j, d, w0, w1), v in x.c2.items():
        out = out + RingElement(target, "top", c2={(t, s, j, i, d, w1, w0): v})
    for (a, b), v in x.atoms.items():
        # zeta = rho(z1) maps to rho(z0) = iota^2 zeta^{-1}
        out = out + RingElement(target, "top", atoms={(a + 2 * b, -b): v})
    for (a, b, dd, eps), v in x.e.items():
        out = out + target.levele_elt({(a + 2 * b, -b, dd, eps): v})
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
    """
    (a0, a1), (b0, b1) = window
    if a0 > a1 or b0 > b1:
        raise InvalidWindowError("window bounds are reversed: %r" % (window,))
    base = coset * OMEGA1
    found = []
    for mono in _enumerate_coset_monomials(pres, coset, window):
        g = pres.mono_grading(mono)
        off = g - base
        if a0 <= off.a <= a1 and b0 <= off.b <= b1:
            found.append((off, "C2/C2", mono))
    out = [(g, label) for g, label, _ in sorted(found, key=lambda r: (r[0].a, r[0].b))]
    if pres.has_atoms:
        line = pres.levele.y_degree()
        rep = Grading(line)
        candidates = [Grading(line - a, a) for a in range(b0, b1 + 1)]
        vis = [g for g in candidates if a0 <= g.a <= a1 and b0 <= g.b <= b1]
        if vis:
            out.append((rep if (a0 <= line <= a1 and b0 <= 0 <= b1) else vis[0], "C2/e"))
    return out


def _enumerate_coset_monomials(pres, coset, window):
    """Canonical monomials of one coset whose gradings can meet the window.

    Every canonical monomial has s == 0 or t == 0 (see _make_canonical), and
    inside one coset t = t0 + s with t0 fixed by (i, j, d, w0, w1).  So each
    such cell holds at most the two candidates (0, t0) and (-t0, 0), and the
    cost is O(p*q) per coset whatever the window's reach (for bu1 the
    stand-ins for p and q grow with the reach).
    """
    (a0, a1), (b0, b1) = window
    span = max(abs(a0), abs(a1), abs(b0), abs(b1)) + abs(coset)
    p = pres.p if pres.p is not None else span + 2
    q = pres.q if pres.q is not None else span + 2
    bound = span + 2 * (p + q) + 8
    cells = [(0, 0, 0)]
    if pres.has_x:
        cells += [(0, 1, 0), (0, 0, 1), (1, 0, 0)]
    out = []
    for d, w0, w1 in cells:
        shift = coset - (coset_index(pres.x_grading) if d else 0) - w0 * p + w1 * q
        for i in range(0, p + 2):
            for j in range(0, q + 2):
                t0 = shift - i + j
                if abs(t0) > bound:
                    continue
                for s in sorted({0, -t0}):
                    m = (s, t0 + s, i, j, d, w0, w1)
                    if pres.canonical(m):
                        out.append(m)
    return out
