"""The component rings of eta on the one reduction and product of their
model.

``LevelEModel.reduce`` and ``mul`` take any key that ends in (d, eps), with
int or ``PointElt`` values, so a component ring's {(u, d, eps): PointElt}
elements go through them (``tests/test_levele.py`` covers the int-valued
rings).  ``_OldComponentRing`` keeps the loops they replaced, copied
verbatim: ``ComponentRing.reduce``, ``add`` and ``mul``.  Both must give
equal dicts on every component kind, and raise ``ValueError`` on the same
inputs.
"""

import random

import pytest

from c2quadrics.coefficients import E_PT, XI_PT, PointElt, _add_term
from c2quadrics.component import ComponentRing
from c2quadrics.levele import add_elts
from c2quadrics.solver import POINT_COEFFS


class _OldComponentRing(ComponentRing):
    def reduce(self, elt):
        if self.empty:
            return {}
        model = self.model
        table = model.quotients
        out = {}
        for (u, d, eps), v in elt.items():
            if not v.c:
                continue
            terms = table.get((d, eps))
            if terms is None:
                terms = model.monomial_quotient(d, eps)
            for d2, e2, n in terms:
                _add_term(out, (u, d2, e2), v if n == 1 else v * n)
        return out

    def add(self, x, y):
        """Sum of two reduced elements."""
        out = dict(x)
        for k, v in y.items():
            _add_term(out, k, v)
        return out

    def mul(self, x, y):
        out = {}
        for (u1, d1, e1), v1 in x.items():
            for (u2, d2, e2), v2 in y.items():
                _add_term(out, (u1 + u2, d1 + d2, e1 + e2), v1 * v2)
        return self.reduce(out)


# (kind, size) of every component ring: B, D with P = 1 and P > 1, proj,
# free and the zero ring of an empty component
COMPONENTS = (
    [("B", P) for P in range(1, 5)]
    + [("D", P) for P in range(1, 5)]
    + [("proj", N) for N in range(1, 5)]
    + [("free", 0), ("zero", 0)]
)


def _point_coeff(rng):
    """A random point coefficient: zero, a small multiple of one of
    ``POINT_COEFFS``, or a sum of two of them."""
    r = rng.random()
    if r < 0.1:
        return PointElt()
    c = rng.choice(POINT_COEFFS) * rng.choice((1, -1, 2, 3))
    if r < 0.3:
        c = c + rng.choice(POINT_COEFFS)
    return c


def _component_elt(rng, monos, n):
    return {(rng.randint(-2, 2),) + rng.choice(monos): _point_coeff(rng) for _ in range(n)}


@pytest.mark.parametrize("kind,size", COMPONENTS)
def test_component_ring_matches_the_old_loops(kind, size):
    rng = random.Random("%s:%d" % (kind, size))
    new, old = ComponentRing(0, kind, size), _OldComponentRing(0, kind, size)
    legal = (0,) if kind in ("proj", "free") else (0, 1)
    monos = [(d, eps) for d in range(3 * size + 3) for eps in legal]
    for _ in range(40):
        x = _component_elt(rng, monos, rng.randint(1, 6))
        y = _component_elt(rng, monos, rng.randint(1, 4))
        rx, ry = old.reduce(x), old.reduce(y)
        assert new.reduce(x) == rx
        assert new.mul(x, y) == old.mul(x, y)
        assert new.mul(rx, ry) == old.mul(rx, ry)
        assert new.power(rx, 3) == old.power(rx, 3)
        assert add_elts(rx, ry) == old.add(rx, ry)
        # a cancelling sum: an element minus its own reduction reduces to 0
        z = add_elts(x, {k: -v for k, v in rx.items()})
        assert new.reduce(z) == old.reduce(z) == {}
    if kind in ("proj", "free"):
        # y is outside the ring; a zero coefficient is skipped before the lookup
        for f in (new.reduce, old.reduce):
            with pytest.raises(ValueError):
                f({(0, 0, 1): PointElt.from_int(1)})
            assert f({(0, 0, 1): PointElt()}) == {}


def test_zero_point_elements_are_falsy():
    assert not PointElt(0)
    assert not PointElt()
    assert not 2 * E_PT * XI_PT  # a mixed e^i xi^j coefficient is 0 mod 2
    assert PointElt.from_int(2)
    assert E_PT * XI_PT


# (kind, size, legal (d, eps) range) of the models power is checked on:
# B, D, proj, free and binate, whose y and t(y) sit at c^0 only
POWER_MODELS = (
    [("B", P) for P in (1, 2, 4)]
    + [("D", P) for P in (1, 2, 3)]
    + [("proj", N) for N in (1, 3)]
    + [("free", 0)]
    + [("binate", N) for N in (1, 2, 3)]
)


@pytest.mark.parametrize("kind,size", POWER_MODELS)
def test_power_is_the_repeated_product(kind, size):
    """power(x, n) for n = 0..6 equals x multiplied n times onto one(), and
    leaves x and its coefficients as they were; x^1 is x itself."""
    R = ComponentRing(0, kind, size)
    rng = random.Random("power %s:%d" % (kind, size))
    if kind == "binate":
        monos = [(d, 0) for d in range(size + 2)] + [(0, 1), (0, 2)]
    else:
        legal = (0,) if kind in ("proj", "free") else (0, 1)
        monos = [(d, eps) for d in range(2 * size + 2) for eps in legal]
    for _ in range(12):
        x = R.reduce(_component_elt(rng, monos, rng.randint(1, 4)))
        before = {k: dict(v.c) for k, v in x.items()}
        expect = R.one()
        for n in range(7):
            assert R.power(x, n) == expect, (kind, size, n)
            assert {k: dict(v.c) for k, v in x.items()} == before
            expect = R.mul(expect, x)
        assert R.power(x, 1) is x
