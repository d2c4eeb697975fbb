"""Algebraic laws on random mixed-coefficient elements (Hypothesis).

Elements are sums of canonical monomials with coefficients drawn from
``POINT_COEFFS`` and the 2-torsion classes e^i xi^j, plus transfer atoms on
the spaces that have them.  The profile is derandomized with a fixed seed,
so every run draws the same examples.
"""

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from c2quadrics.catalog import make_space
from c2quadrics.coefficients import PointElt, pos
from c2quadrics.rewrite import RingElement, _mono_product, _sample_monomials
from c2quadrics.solver import POINT_COEFFS

SPACES = ("quadric:3,3", "quadric:4,3", "quadric:5,3", "quadric:4,4", "binate:2,1", "proj:2,1")
COEFFS = tuple(POINT_COEFFS) + tuple(PointElt.monomial(pos(i, j)) for i, j in ((1, 1), (2, 1), (1, 2), (3, 2)))

settings.register_profile(
    "c2quadrics-laws",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
LAWS = settings.get_profile("c2quadrics-laws")
SEED = 20251

_PRES = {}


def _space(sid):
    if sid not in _PRES:
        _PRES[sid] = make_space(sid)
    return _PRES[sid]


def _element(draw, pres, raw=False):
    """A sum of one to three terms, each a canonical monomial (a product of
    two when ``raw``) times a drawn coefficient, plus up to one transfer
    atom; reduced to its normal form unless ``raw``."""
    pool = _sample_monomials(pres)
    mono = st.sampled_from(pool)
    if raw:
        mono = st.tuples(mono, mono).map(_mono_product)
    terms = draw(st.lists(st.tuples(mono, st.sampled_from(COEFFS)), min_size=1, max_size=3))
    c2 = {}
    for m, c in terms:
        c2[m] = c2[m] + c if m in c2 else c
    atoms = None
    if pres.has_atoms:
        ab = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
        atoms = draw(st.dictionaries(ab, st.integers(-3, 3), max_size=1))
    x = RingElement(pres, "top", c2=c2, atoms=atoms)
    return x if raw else pres.normal_form(x)


@st.composite
def triples(draw, sid):
    pres = _space(sid)
    return pres, _element(draw, pres), _element(draw, pres), _element(draw, pres)


@st.composite
def raw_elements(draw, sid):
    pres = _space(sid)
    return pres, _element(draw, pres, raw=True)


def _terms(x):
    """The terms of a normal form, as plain data."""
    return {m: v.c for m, v in x.c2.items()}, x.atoms


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_associativity(sid, data):
    pres, x, y, z = data.draw(triples(sid))
    assert _terms(pres.mul(pres.mul(x, y), z)) == _terms(pres.mul(x, pres.mul(y, z)))


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_commutativity(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    assert _terms(pres.mul(x, y)) == _terms(pres.mul(y, x))


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_distributivity(sid, data):
    pres, x, y, z = data.draw(triples(sid))
    lhs = pres.mul(x, y + z)
    rhs = pres.normal_form(pres.mul(x, y) + pres.mul(x, z))
    assert _terms(lhs) == _terms(rhs)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_normal_form_idempotent(sid, data):
    pres, raw = data.draw(raw_elements(sid))
    nf = pres.normal_form(raw)
    assert _terms(pres.normal_form(nf)) == _terms(nf)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_rho_multiplicative(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    assert pres.rho(pres.mul(x, y)).e == pres.mul(pres.rho(x), pres.rho(y)).e
