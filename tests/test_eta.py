"""eta and phi: the cached generator-image products against the uncached
computation, multiplicativity, the bound on the cache, and the images kept
on each element."""

import random
import warnings

import pytest

from c2quadrics import component
from c2quadrics.catalog import RestrictedGradingWarning, make_space, swap_element, swap_involution
from c2quadrics.coefficients import XI_PT, PointElt, pos
from c2quadrics.rewrite import NotAClassError, RingElement, _sample_monomials
from c2quadrics.solver import POINT_COEFFS, divisibility_witness

# bu1, proj, binate, quadrics of all four parities, m or n = 2, and the
# z0/z1-invertible decks
SPACES = [
    "point", "bu1", "proj:2,1", "proj:0,3", "proj:2,0", "binate:2,1", "binate:0,2",
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "quadric:6,5",
    "quadric:2,3", "quadric:3,2", "quadric:2,2", "quadric:1,5", "quadric:5,1",
    "quadric:0,4", "quadric:4,0",
]

# the 2-torsion point classes e^i xi^j
TORSION = [PointElt.monomial(pos(i, j)) for i in (1, 2) for j in (1, 2)]


def _reference_power(R, x, n):
    out = R.one()
    for _ in range(n):
        out = R.mul(out, x)
    return out


def _reference_direct_mono(pres, S, mono, coeff):
    """The uncached image of coeff*mono: every factor multiplied out anew
    from the generator images of the component S.  The image of the other
    side's divided class is filled on first use, so a divided factor fills
    it first (the fill reaches this function only on undivided monomials)."""
    if S.empty:
        return {}
    non_exp = mono[S.non]
    assert non_exp >= 0 and mono[S.own_w] == 0
    if mono[S.other_w] and S.div_other is None:
        component._fill_divided(pres)
    out = S.monomial(mono[S.inv], 0, 0, coeff)
    if non_exp:
        out = S.mul(out, _reference_power(S, S.monomial(-1, 0, 0, XI_PT), non_exp))
    exps = (mono[2], mono[3], mono[4], mono[S.other_w])
    for img, e in zip((S.cw, S.cx, S.x, S.div_other), exps):
        if e:
            out = S.mul(out, _reference_power(S, img, e))
    return out


def _reference_images(monkeypatch, pres, x, calls):
    """(eta, phi) of x with the uncached monomial images; ``calls`` counts
    the reference's calls, so a patch that misses eta's own lookup shows."""

    def reference(*args):
        calls.append(None)
        return _reference_direct_mono(*args)

    with monkeypatch.context() as mp:
        mp.setattr(component, "_eta_direct_mono", reference)
        e0, e1 = component.eta_of_element(pres, pres.normal_form(x))
    S0, S1 = pres.eta_sides
    return (e0, e1), (S0.phi(e0), S1.phi(e1))


def _space(sid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return make_space(sid)


def _elements(pres, rng):
    """Seeded mixed-coefficient elements: POINT_COEFFS and 2-torsion
    coefficients on canonical monomials (negative zeta powers included),
    sums of those, transfers, and the divided classes divw and divx."""
    coeffs = POINT_COEFFS + TORSION
    pool = _sample_monomials(pres)
    out = [pres.scalar(1), pres.coeff_elt(rng.choice(TORSION))]
    for m in rng.sample(pool, min(len(pool), 24)):
        out.append(pres.monomial_elt(m, rng.choice(coeffs)))
    for _ in range(8 if pool else 0):
        x = pres.zero()
        for _ in range(3):
            x = x + pres.monomial_elt(rng.choice(pool), rng.choice(coeffs))
        out.append(x)
    for a, b in ((0, 0), (-2, 1), (2, -1), (1, 2)):
        if pres.has_atoms:
            out.append(pres.tau_atom(a, b, rng.choice((1, -1, 3))))
        try:
            out.append(pres.tau_of_levele({(a, b, 0, 0): rng.choice((1, 2, -3))}))
        except NotAClassError:
            pass
    if pres.has_x:
        out += [pres.gen("divw"), pres.gen("divx"), pres.gen("divw") * rng.choice(coeffs)]
        out.append(pres.gen("x") * pres.gen("divx") * rng.choice(TORSION))
    return out


@pytest.mark.parametrize("sid", SPACES)
def test_cached_images_match_uncached(monkeypatch, sid):
    pres = _space(sid)
    elts = _elements(pres, random.Random("eta " + sid))
    calls = []
    expect = [_reference_images(monkeypatch, pres, x, calls) for x in elts]
    assert calls, sid
    # a fresh presentation fills its table in this order ...
    cold = _space(sid)
    cold_elts = _elements(cold, random.Random("eta " + sid))
    for x, (eta, phi) in zip(cold_elts, expect):
        assert cold.eta(x) == eta, (sid, str(x))
        assert cold.phi(x) == phi, (sid, str(x))
    # ... and the warm table answers in another order, on copies that hold no
    # image of their own, so each answer is read from the table
    order = list(range(len(elts)))
    random.Random(sid).shuffle(order)
    for k in order:
        eta, phi = expect[k]
        assert cold.eta(_fresh(cold_elts[k])) == eta, (sid, str(cold_elts[k]))
        assert cold.phi(_fresh(cold_elts[k])) == phi, (sid, str(cold_elts[k]))
    if cold.p is not None:
        _assert_bounded(cold)


def _image_count(pres):
    return sum(len(S.images) for S in pres.eta_sides)


def _assert_bounded(pres):
    p, q = pres.p, pres.q
    for S in pres.eta_sides:
        for i, j, d, w in S.images:
            assert 0 <= i <= p and 0 <= j <= q and d in (0, 1) and w in (0, 1)
    assert _image_count(pres) <= 2 * (p + 1) * (q + 1) * 2 * 2


@pytest.mark.parametrize("sid", SPACES)
def test_eta_is_multiplicative(sid):
    pres = _space(sid)
    S0, S1 = pres.eta_sides
    rng = random.Random("mult " + sid)
    elts = _elements(pres, rng)
    for _ in range(30):
        x, y = rng.choice(elts), rng.choice(elts)
        (x0, x1), (y0, y1) = pres.eta(x), pres.eta(y)
        assert pres.eta(pres.mul(x, y)) == (S0.mul(x0, y0), S1.mul(x1, y1)), (sid, str(x), str(y))


def test_image_table_is_bounded():
    # a sweep of restrict-style products: single monomials with
    # POINT_COEFFS coefficients, their eta/phi images and the candidates'
    pres = _space("quadric:9,7")
    rng = random.Random(97)
    pool = _sample_monomials(pres)
    for _ in range(300):
        x = pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS))
        xy = pres.mul(x, pres.monomial_elt(rng.choice(pool), rng.choice(POINT_COEFFS)))
        pres.phi(xy)
        for mono, coeff in xy.c2.items():
            for pm in coeff.c:
                pres.eta(pres.monomial_elt(mono, PointElt.monomial(pm)))
    assert _image_count(pres) > 20
    _assert_bounded(pres)


def test_bu1_images_are_not_kept():
    pres = _space("bu1")
    pres.eta(pres.gen("cw") ** 5 * pres.gen("cx") ** 3)
    assert _image_count(pres) == 0


def _fresh(x):
    """A copy of x that has no eta image yet."""
    return RingElement(x.pres, x.level, c2=x.c2, atoms=x.atoms, e=x.e)


def _fresh_images(pres, x):
    """(eta, phi) of x computed anew."""
    e0, e1 = component.eta_of_element(pres, pres.normal_form(_fresh(x)))
    S0, S1 = pres.eta_sides
    return (e0, e1), (S0.phi(e0), S1.phi(e1))


def _witnesses(pres, x):
    return [divisibility_witness(pres, x, side) for side in ("z0", "z1")]


@pytest.mark.parametrize("sid", SPACES)
def test_stored_images_match_fresh(sid):
    pres = _space(sid)
    for x in _elements(pres, random.Random("stored " + sid)):
        eta, phi = _fresh_images(pres, x)
        assert pres.eta(x) == eta and pres.phi(x) == phi, (sid, str(x))
        # the witnesses read the stored images and leave them as they were
        assert _witnesses(pres, x) == _witnesses(pres, _fresh(x)), (sid, str(x))
        assert pres.eta(x) == eta and pres.phi(x) == phi, (sid, str(x))


def test_edited_image_leaves_the_next_answer():
    pres = _space("quadric:5,3")
    elts = [
        pres.gen("cw") ** 2 * pres.gen("cx"),
        pres.gen("x") * pres.gen("divx") * TORSION[0],
        pres.gen("divw") + pres.tau_atom(2, 1),
    ]
    for x in elts:
        eta, phi = _fresh_images(pres, x)
        for img in pres.eta(x):
            img.clear()
            img[(7, 0, 0)] = PointElt.from_int(1)
        assert pres.eta(x) == eta and pres.phi(x) == phi, str(x)
        assert pres.eta(x)[0] is not pres.eta(x)[0]


def test_image_is_kept_for_its_own_presentation():
    Q1, Q2 = _space("quadric:5,3"), _space("quadric:6,5")
    x = Q1.monomial_elt((0, 0, 1, 1, 0, 0, 0), POINT_COEFFS[2])
    expect2 = Q2.eta(_fresh(x))
    assert Q1.eta(x) != expect2
    assert Q2.eta(x) == expect2
    assert Q1.eta(x) == _fresh_images(Q1, x)[0]


# the four quadric parities, m or n = 2, binate, proj and bu1
SWAP_SPACES = [
    "quadric:5,3", "quadric:4,3", "quadric:3,4", "quadric:4,4", "quadric:2,3",
    "quadric:4,2", "binate:2,1", "binate:1,3", "proj:2,1", "bu1",
]


@pytest.mark.parametrize("sid", SWAP_SPACES)
def test_eta_swaps_with_the_components(sid):
    # the swap Q^{m,n} -> Q^{n,m} exchanges the fixed components, so eta
    # of a swapped element is eta of the element with its sides reversed
    pres = _space(sid)
    target = swap_involution(pres)
    elts = [
        pres.monomial_elt(m, c)
        for m in _sample_monomials(pres) for c in POINT_COEFFS + TORSION
    ]
    if pres.has_atoms:
        elts += [pres.tau_atom(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for x in elts:
        e0, e1 = target.eta(swap_element(pres, target, x))
        assert pres.eta(x) == (e1, e0), (sid, str(x))
