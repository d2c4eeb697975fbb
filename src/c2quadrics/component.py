"""The fixed-set components and the restriction eta to them.

Each fixed-set component of the spaces here (side 0 and side 1; for
Q^{m,n}, the quadrics in P(C^m) and P(C^n)) has trivial C2-action and
free nonequivariant cohomology H*, so its equivariant cohomology is

    M[zc^{+-1}] (x) H*

where zc is whichever of the two Euler-type classes is invertible over
that component (zeta1 over component 0, zeta0 over component 1) and H*
is one of: Z[c] (free), Z[c]/c^P (projective space), or a quadric ring
of type B or D (the zero ring for an empty component).  Elements are
{(u, d, eps): PointElt} with u the zc-exponent.  H* is the quotient of
the component's level-e model (levele.py): ``reduce`` and ``mul`` are
the model's, which keep u as the head of each key, and ``phi`` ends in the
model's ``reduce``.

A ``ComponentRing`` is one component: its ring, and what eta reads there.
eta is one construction on both, with the roles of (zeta0, cw, divw) and
(zeta1, cx, divx) exchanged: over component 0 zeta1 is invertible and
zeta0 maps to xi * zeta1^-1, over component 1 the other way round.

Every value that a ring operation here returns is reduced, as every value
of a ``LevelEModel`` operation is.  Only ``reduce`` and the operations whose
terms can leave the basis of H* (``monomial``, ``scale``, ``mul``) reduce;
``rho``, ``tau`` and ``transfer_witness`` map reduced input to reduced
output term by term, and ``tau`` takes the output of ``LevelEModel.mul``.

Because the action is trivial, restriction and transfer factor through
the point ring coefficientwise, which makes the divisibility check
("is this element a transfer?") elementwise as well.
"""

from __future__ import annotations

from .coefficients import ONE, XI_PT, PointElt, _add_term, point_phi, point_rho, point_tau, pos, transfer_witness
from .levele import LevelEModel, add_elts

E2 = PointElt.monomial(pos(2, 0))

# monomial slots per side: (invertible zeta, non-invertible zeta, own c,
# own divided flag, other divided flag)
_SIDE_SLOTS = ((1, 0, 2, 5, 6), (0, 1, 3, 6, 5))
# zeta = rho(z1) restricts to iota^a zc^b: zc over component 0, and
# iota^2 zc^-1 (from rho(z0) = iota^2 zeta^-1) over component 1
_ZETA_IMAGE = ((0, 1), (2, -1))


def _divided(pres, side):
    """The divided class of a side as (coefficient, monomial) pairs:
    divw = cw^p - corrw on side 0, divx = cx^q - corrx on side 1."""
    top = ((0, 0, pres.p, 0, 0, 0, 0), (0, 0, 0, pres.q, 0, 0, 0))[side]
    return [(ONE, top)] + [(-c, delta) for c, delta in (pres.corrw, pres.corrx)[side]]


class ComponentRing:
    """Fixed component ``side`` (0 or 1) and the restriction eta to it.

    ``model`` is the level-e model of H*, of kind 'B', 'D', 'proj', 'free'
    or 'zero' (``empty``).  ``inv``, ``non``, ``c``, ``own_w`` and
    ``other_w`` are the monomial slots of the invertible zeta, the
    non-invertible zeta, this side's c (cw on side 0, cx on side 1) and the
    two divided flags; ``size`` is p on side 0 and q on side 1 (None where
    there are no divided classes: BU(1), the point).  ``cw``, ``cx`` and
    ``x`` are the images of the generators and ``y`` is the level-e image
    of y; a space without x (``rho_x`` None) has zero there.  ``div_other``
    is the image of the other side's divided class; ``w_div`` and
    ``w_xcore`` are level-e witnesses of the own divided class and of the
    x-core c^size x as transfers: None until ``_fill_divided`` sets them.
    ``images`` is ``_eta_base``'s table.
    """

    __slots__ = (
        "model", "empty", "side", "inv", "non", "c", "own_w", "other_w", "zeta",
        "size", "cw", "cx", "x", "y", "div_other", "w_div", "w_xcore", "images",
    )

    def __init__(self, side, model_kind, model_size, size=None, rho_x=None, y_degree=0):
        self.model = LevelEModel(model_kind, model_size, t_fixes_y=True)
        self.empty = model_kind == "zero"
        self.side = side
        self.inv, self.non, self.c, self.own_w, self.other_w = _SIDE_SLOTS[side]
        self.zeta = _ZETA_IMAGE[side]
        self.size = size
        # the own c restricts to zc*c, the other one to (e^2 + xi c) * zc^-1
        own = self.monomial(1, 1, 0)
        other = add_elts(self.monomial(-1, 0, 0, E2), self.monomial(-1, 1, 0, XI_PT))
        self.cw, self.cx = (own, other) if side == 0 else (other, own)
        self.x, self.y = {}, {}
        if rho_x is not None:
            # rho(x) = iota^A zeta^B c^C y: x -> (e^2 + xi c)^a zc^u y with
            # (a, u) = (A/2, B), swapped (catalog._swap_key) on side 1, and
            # y -> c^d y, d half the y degree of the space's level-e model
            # (y_degree) less that of this one
            a, u = rho_x[0] // 2, rho_x[1]
            if side:
                a, u = a + u, -u
            E = add_elts(self.monomial(0, 0, 0, E2), self.monomial(0, 1, 0, XI_PT))
            self.x = self.mul(self.power(E, a), self.monomial(u, 0, 1))
            self.y = {(0, 0, (y_degree - self.model.y_degree()) // 2, 1): 1}
        self.div_other = self.w_div = self.w_xcore = None
        self.images = {}

    # -- elements: {(u, d, eps): PointElt} -------------------------------

    def one(self):
        return self.monomial(0, 0, 0)

    def monomial(self, u, d, eps, coeff=ONE):
        return self.reduce({(u, d, eps): coeff})

    def reduce(self, elt):
        return self.model.reduce(elt)

    def scale(self, x, coeff):
        return self.reduce({k: v * coeff for k, v in x.items()})

    def mul(self, x, y):
        return self.model.mul(x, y)

    def power(self, x, n):
        """x^n (n >= 0) by square-and-multiply, starting from the first
        factor, so that nothing is multiplied by one.

        x must be reduced.  Neither x nor any dict it holds is changed, but
        x^1 is x itself: the result may share x, so a caller must not
        change it in place (no ring operation here does)."""
        if not n:
            return self.one()
        out = None
        while True:
            if n & 1:
                out = x if out is None else self.mul(out, x)
            n >>= 1
            if not n:
                return out
            x = self.mul(x, x)

    # -- Mackey structure -------------------------------------------------

    def rho(self, x):
        """Level-e image: {(a, b, d, eps): int} with b the zc-exponent."""
        return {(k[0], u, d, eps): n for (u, d, eps), v in x.items() for k, n in point_rho(v).items()}

    def tau(self, w):
        """Transfer of a reduced level-e element; everything here is
        liftable."""
        out = {}
        for (a, b, d, eps), n in w.items():
            _add_term(out, (b, d, eps), point_tau(a) * n)
        return out

    def phi(self, x):
        """Collapse to the nonequivariant ring of the component:
        {(d, eps): int}, with transfers and kappa-torsion killed."""
        out = {}
        for (u, d, eps), v in x.items():
            n = point_phi(v)
            if n:
                out[(d, eps)] = out.get((d, eps), 0) + n
        return self.model.reduce(out)

    def transfer_witness(self, x):
        """If x = tau(w), return the level-e element w, else None."""
        w = {}
        for (u, d, eps), v in x.items():
            wit = transfer_witness(v)
            if wit is None:
                return None
            for k, n in wit.items():
                w[(k[0], u, d, eps)] = n
        return w

    def shift_noninvertible(self, w, k):
        """Divide a level-e element by the k-th power of the other Euler
        class, which restricts to iota^2 zeta^{-1} here."""
        return {(a - 2 * k, b + k, d, eps): n for (a, b, d, eps), n in w.items()}

    def str_elt(self, x):
        if not x:
            return "0"
        parts = []
        for (u, d, eps), v in sorted(x.items(), key=lambda t: t[0]):
            name = []
            if u:
                name.append("%s^%d" % (("z1", "z0")[self.side], u))
            if d:
                name.append("c^%d" % d if d > 1 else "c")
            if eps:
                name.append("y")
            mono = "*".join(name) if name else "1"
            parts.append("(%s)*%s" % (v, mono))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# eta


def _eta_base(pres, S, i, j, d, w):
    """eta_S(cw^i cx^j x^d div^w), div the other side's divided class,
    computed once per component.

    ``S.images`` holds these products keyed (i, j, d, w).  On spaces with
    finite p, q the arguments come from canonical monomials (or their
    divided cores): i <= p, j <= q, d <= 1, w <= 1, so the two tables never
    exceed 2*(p+1)*(q+1)*2*2 entries.  BU(1) has no such bound, so its
    products are not kept.  Only the factors with a nonzero exponent are
    multiplied, and a divided factor fills the divided-class data first
    (``_fill_divided``).
    """
    key = (i, j, d, w)
    img = S.images.get(key)
    if img is None:
        if w and S.div_other is None:
            _fill_divided(pres)
        for gen, e in zip((S.cw, S.cx, S.x, S.div_other), (i, j, d, w)):
            if e:
                img = S.power(gen, e) if img is None else S.mul(img, S.power(gen, e))
        if img is None:
            img = S.one()
        if pres.p is not None:
            S.images[key] = img
    return img


def _eta_direct_mono(pres, S, mono, coeff):
    """Image of coeff*mono under eta_S, valid when the non-invertible
    zeta exponent is >= 0 and the own divided flag is absent."""
    if S.empty:
        return {}
    non_exp = mono[S.non]
    assert non_exp >= 0 and mono[S.own_w] == 0
    # the non-invertible zeta maps to xi * zc^-1, so the rest of the
    # monomial maps to the single term coeff*xi^non_exp * zc^shift at
    # c^0 y^0, which commutes with the quotient: apply it termwise
    scale = coeff * PointElt.monomial(pos(0, non_exp)) if non_exp else coeff
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
        acc = {}
        outs.append(acc)
        if S.empty:
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
            w = S.shift_noninvertible(core_w, k) if k else core_w
            for term, val in S.tau(S.model.mul(w, S.rho(rest_img))).items():
                _add_term(acc, term, val)
        ia, zb = S.zeta
        for (a, b), v in x.atoms.items():
            for term, val in S.tau(S.model.mul({(a + ia * b, zb * b, 0, 0): v}, S.y)).items():
                _add_term(acc, term, val)
    return tuple(outs)


def _divided_image(pres, S, T):
    """eta_S of the divided class of component T (``_divided``)."""
    img = {}
    for coeff, mono in _divided(pres, T.side):
        img = add_elts(img, _eta_direct_mono(pres, S, mono, coeff))
    return img


def _witness(pres, S, img, what):
    w = S.transfer_witness(img)
    assert w is not None, "%s image is not a transfer in %s" % (what, pres.name)
    return w


def _fill_divided(pres):
    """Set both components' divided-class data: the image of the other
    side's divided class (``div_other``) and the witnesses of the own
    divided class and x-core (``w_div``, ``w_xcore``).  Called the first
    time a divided class or a negative power of a non-invertible zeta is
    restricted.  BU(1) and the point (size None) have no divided classes,
    so theirs are zero."""
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


def _build_eta(pres, components):
    """The two components (``Presentation.eta_sides``) of a presentation
    from its deck's (model kind, model size) pairs."""
    sizes, y_degree = (pres.p, pres.q), pres.levele.y_degree()
    return tuple(
        ComponentRing(side, kind, n, sizes[side], pres.rho_x, y_degree)
        for side, (kind, n) in enumerate(components)
    )
