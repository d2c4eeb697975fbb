"""Point-ring rule table: exhaustive homomorphism and Frobenius audits, and
the Mackey laws of a point on random sums of monomials (Hypothesis).

The level-e part of a point, Z[iota^{+-1}], is the level-e element
{(n, 0, 0, 0): int} of ``LevelEModel("free")``."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2quadrics.coefficients import (
    E_PT,
    G,
    G_PT,
    KAPPA_A,
    KAPPA_PT,
    ONE,
    UNIT_1MK,
    XI_PT,
    BurnsideElt,
    InhomogeneousError,
    PointElt,
    ONE_PAIRS,
    _mul_into,
    monomial_grading,
    negkappa,
    point_mul,
    point_phi,
    point_rho,
    point_tau,
    pos,
    trans,
    transfer_witness,
)
from c2quadrics.levele import LevelEModel
from c2quadrics.solver import POINT_COEFFS
from conftest import point_transfer as tau

FREE = LevelEModel("free")


def mono_elt(m):
    return PointElt.monomial(m)


def iota(n, v=1):
    """v*iota^n at level e."""
    return {(n, 0, 0, 0): v}


# a finite pool covering every branch of the rule table
POOL = (
    [pos(i, j) for i in range(0, 4) for j in range(0, 3)]
    + [negkappa(n) for n in range(0, 5)]
    + [trans(n) for n in range(-4, 0)]
)


def test_burnside_ring():
    assert G * G == 2 * G
    assert KAPPA_A == BurnsideElt(2, 0) - G
    assert KAPPA_A * KAPPA_A == 2 * KAPPA_A
    one_minus_k = BurnsideElt(1, 0) - KAPPA_A
    assert one_minus_k * one_minus_k == BurnsideElt(1, 0)
    assert G.cardinality() == 2 and G.fixed_mark() == 0


def test_burnside_int_operands():
    # an int operand is a Burnside element on either side; any other type
    # is left to the other operand
    x = BurnsideElt(3, -2)
    assert x == BurnsideElt(3, -2) and BurnsideElt(5) == 5 and x != 3
    assert (x + 2, 2 + x, x - 2, 2 - x) == (BurnsideElt(5, -2), BurnsideElt(5, -2), BurnsideElt(1, -2), BurnsideElt(-1, 2))
    assert x * 3 == 3 * x == BurnsideElt(9, -6)
    for op in ("__eq__", "__add__", "__sub__", "__mul__"):
        assert getattr(x, op)(1.5) is NotImplemented
        assert getattr(x, op)("g") is NotImplemented
    assert x != "g"
    with pytest.raises(TypeError):
        x + 1.5


def test_levele_taction():
    i3 = iota(3)
    assert FREE.t_act(i3) == iota(3, -1)
    i2 = iota(2)
    assert FREE.one_plus_t(i2) == iota(2, 2)
    x = {(1, 0, 0, 0): 2, (-2, 0, 0, 0): 5}
    assert FREE.t_act(FREE.t_act(x)) == x
    assert FREE.t_act(FREE.mul(x, i3)) == FREE.mul(FREE.t_act(x), FREE.t_act(i3))


def test_quoted_products():
    # e^{-2} k * xi = 0
    assert point_mul(mono_elt(negkappa(2)), XI_PT).is_zero()
    # t(iota^{-2}) * e^2 = 0
    assert point_mul(mono_elt(trans(-1)), E_PT * E_PT).is_zero()
    # k * k = 2k
    assert KAPPA_PT * KAPPA_PT == 2 * KAPPA_PT
    # e^{-4} k * e^2 = e^{-2} k
    assert point_mul(mono_elt(negkappa(4)), E_PT * E_PT) == mono_elt(negkappa(2))
    # (1 - k)^2 = 1
    assert UNIT_1MK * UNIT_1MK == ONE


def test_quoted_homomorphism_values():
    assert point_rho(E_PT * E_PT) == {}
    assert point_rho(ONE) == iota(0)
    assert point_rho(G_PT) == iota(0, 2)
    assert point_phi(UNIT_1MK) == -1
    assert point_phi(mono_elt(trans(-2))) == 0
    assert point_phi(ONE) == 1
    assert point_phi(KAPPA_PT) == 2


def test_torsion_normalization():
    # mixed monomials e^i xi^j are 2-torsion
    exi = E_PT * XI_PT
    assert not exi.is_zero()
    assert (2 * exi).is_zero()
    assert KAPPA_PT * (E_PT * XI_PT) == (KAPPA_PT * E_PT) * XI_PT
    # transfers in nonnegative degrees collapse
    assert point_tau(2) == 2 * XI_PT
    assert point_tau(0) == G_PT
    assert point_tau(3).is_zero()


def test_rho_is_ring_homomorphism_exhaustive():
    for m1, m2 in itertools.product(POOL, repeat=2):
        x, y = mono_elt(m1), mono_elt(m2)
        assert point_rho(x * y) == FREE.mul(point_rho(x), point_rho(y)), (m1, m2)


def test_phi_is_ring_homomorphism_exhaustive():
    for m1, m2 in itertools.product(POOL, repeat=2):
        x, y = mono_elt(m1), mono_elt(m2)
        assert point_phi(x * y) == point_phi(x) * point_phi(y), (m1, m2)


def test_frobenius_exhaustive():
    # t(iota^{2n}) * x = t(iota^{2n} * rho(x)) for every pool monomial
    for n in range(-4, 3):
        tn = point_tau(2 * n)
        for m in POOL:
            x = mono_elt(m)
            lhs = tn * x
            rhs = tau(FREE.mul(iota(2 * n), point_rho(x)))
            assert lhs == rhs, (n, m)


def test_mul_commutative_associative_random():
    rng = random.Random(11)
    for _ in range(300):
        m1, m2, m3 = (rng.choice(POOL) for _ in range(3))
        x, y, z = mono_elt(m1), mono_elt(m2), mono_elt(m3)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z), (m1, m2, m3)


def test_mul_grading_additive():
    for m1, m2 in itertools.product(POOL[:12], POOL[:12]):
        x, y = mono_elt(m1), mono_elt(m2)
        prod = x * y
        if not prod.is_zero():
            assert prod.grading() == monomial_grading(m1) + monomial_grading(m2)


def test_rho_tau_is_one_plus_t():
    for n in [-6, -4, -2, 0, 2, 4]:
        assert point_rho(point_tau(n)) == FREE.one_plus_t(iota(n))
    # and tau(rho(x)) = g*x on the pool
    for m in POOL:
        x = mono_elt(m)
        assert tau(point_rho(x)) == G_PT * x


def test_inhomogeneous_rejected():
    bad = ONE + E_PT
    with pytest.raises(InhomogeneousError):
        point_mul(bad, ONE)


def test_transfer_witness():
    # g is t(1)
    assert transfer_witness(G_PT) == iota(0)
    # 2 xi is t(iota^2)
    assert transfer_witness(2 * XI_PT) == iota(2)
    # 0 is t(0)
    assert transfer_witness(PointElt()) == {}
    # but 2 alone, xi alone, e, and e^{-n} k are not transfers
    assert transfer_witness(PointElt.from_int(2)) is None
    assert transfer_witness(XI_PT) is None
    assert transfer_witness(E_PT) is None
    assert transfer_witness(mono_elt(negkappa(3))) is None
    # every Trans(-n) is its own transfer
    x = 5 * mono_elt(trans(-2))
    assert transfer_witness(x) == iota(-4, 5)
    # and -v g + 2u xi^2 + Trans(-1) is t(-v + u iota^4 + iota^-2)
    x = -3 * G_PT + 4 * PointElt.monomial(pos(0, 2)) + mono_elt(trans(-1))
    assert transfer_witness(x) == {(0, 0, 0, 0): -3, (4, 0, 0, 0): 2, (-2, 0, 0, 0): 1}
    assert tau(transfer_witness(x)) == x
    # one odd xi^n or one e-term spoils it
    assert transfer_witness(x + 2 * XI_PT + XI_PT) is None
    assert transfer_witness(x + E_PT * E_PT) is None


# -- the Mackey laws on random sums of pool monomials ---------------------------

MACKEY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
# sums of pool monomials (mixed e^i xi^j, e^-n k and t(iota^2n) among them)
# with integer coefficients; the sum may cancel to 0
SUMS = st.lists(st.tuples(st.sampled_from(POOL), st.integers(-6, 6)), min_size=1, max_size=5).map(
    lambda terms: sum((PointElt.monomial(m, v) for m, v in terms), PointElt())
)
# level-e coefficients sum v iota^n
LEVELE = st.dictionaries(st.integers(-8, 8), st.integers(-6, 6), max_size=4).map(
    lambda c: {(n, 0, 0, 0): v for n, v in c.items() if v}
)


@MACKEY
@given(SUMS, SUMS)
def test_rho_multiplicative_on_sums(x, y):
    assert point_rho(x * y) == FREE.mul(point_rho(x), point_rho(y))


@MACKEY
@given(SUMS)
def test_tau_rho_is_g_on_sums(x):
    assert tau(point_rho(x)) == G_PT * x


@MACKEY
@given(LEVELE)
def test_rho_tau_is_one_plus_t_on_sums(w):
    assert point_rho(tau(w)) == FREE.one_plus_t(w)


@MACKEY
@given(st.integers(-5, 4), LEVELE, SUMS)
def test_frobenius_on_sums(n, w, x):
    # t(iota^2n) x = t(iota^2n rho(x)), and t(w) x = t(w rho(x)) for any w
    assert point_tau(2 * n) * x == tau(FREE.mul(iota(2 * n), point_rho(x)))
    assert tau(w) * x == tau(FREE.mul(w, point_rho(x)))


@MACKEY
@given(SUMS, LEVELE)
def test_transfer_witness_on_sums(x, w):
    # a witness, where there is one, transfers back to x
    wit = transfer_witness(x)
    assert wit is None or tau(wit) == x
    # and every transfer has one
    wit = transfer_witness(tau(w))
    assert wit is not None and tau(wit) == tau(w)


def test_point_json_round_trip():
    x = 3 * mono_elt(trans(-1)) - 2 * mono_elt(trans(-2))
    assert PointElt.from_json(x.to_json()) == x


# reference copy of the dict-rebuild arithmetic: every result goes through
# the validating constructor.  _mono_mul and _normalize_trans are verbatim
# copies of the monomial product that the package replaced by the kernel
# _mul_into.


def _mono_mul(m1, m2):
    """Product of two canonical monomials, as a dict {monomial: int}."""
    t1, t2 = m1[0], m2[0]
    if t1 > t2:  # orders "k" < "p" < "t"
        m1, m2 = m2, m1
        t1, t2 = t2, t1
    if t1 == "p" and t2 == "p":
        return {pos(m1[1] + m2[1], m1[2] + m2[2]): 1}
    if t1 == "k" and t2 == "p":
        n, i, j = m1[1], m2[1], m2[2]
        if j > 0:
            return {}                       # e^{-n} k * xi = 0
        if i <= n:
            return {negkappa(n - i): 1}
        return {pos(i - n, 0): 2}           # k e^m = 2 e^m for m > 0
    if t1 == "k" and t2 == "k":
        return {negkappa(m1[1] + m2[1]): 2}
    if t1 == "k" and t2 == "t":
        return {}                           # k * transfer = 0
    if t1 == "p" and t2 == "t":
        i, j, n = m1[1], m1[2], m2[1]
        if i > 0:
            return {}                       # e * t(...) = t(rho(e) ...) = 0
        return _normalize_trans(n + j, 1)
    # transfer * transfer
    return _normalize_trans(m1[1] + m2[1], 2)


def _normalize_trans(n, coeff):
    """t(iota^{2n}) for any n, as a canonical dict."""
    if n <= -1:
        return {trans(n): coeff}
    if n == 0:
        return {pos(0, 0): 2 * coeff, negkappa(0): -coeff}
    return {pos(0, n): 2 * coeff}


def ref_add(a, b):
    out = dict(a.c)
    for m, v in b.c.items():
        out[m] = out.get(m, 0) + v
    return PointElt(out)


def ref_sub(a, b):
    return ref_add(a, PointElt({m: -v for m, v in b.c.items()}))


def ref_mul(a, b):
    out = {}
    for m1, v1 in a.c.items():
        for m2, v2 in b.c.items():
            for m, w in _mono_mul(m1, m2).items():
                out[m] = out.get(m, 0) + v1 * v2 * w
    return PointElt(out)


def _kernel_pool():
    """POINT_COEFFS with the sums and products of its pairs (by the reference
    arithmetic), so that mixed e^i xi^j terms and zero meet in sums."""
    pool = {}
    for a in POINT_COEFFS:
        pool[repr(a)] = a
    for a, b in itertools.combinations_with_replacement(POINT_COEFFS, 2):
        for x in (ref_add(a, b), ref_mul(a, b)):
            pool[repr(x)] = x
    return list(pool.values())


def _is_reduced(x):
    for m, v in x.c.items():
        assert v != 0, (x, m)
        if m[0] == "p" and m[1] >= 1 and m[2] >= 1:
            assert v == 1, (x, m)


def _single_terms():
    """One-term operands of every tag (p, k, t), with the mixed e^i xi^j
    terms among them, at coefficients 1, -1 and 3 (1 mod 2 when mixed)."""
    return [PointElt.monomial(m, v) for m in POOL for v in (1, -1, 3)]


def test_kernels_match_reference_arithmetic():
    singles = _single_terms()
    pool = _kernel_pool() + singles
    # a zero (k * xi) exercises the sums that return an operand
    assert any(not x.c for x in pool)
    assert any(m[0] == "p" and m[1] >= 1 and m[2] >= 1 for x in pool for m in x.c)
    for a, b in itertools.product(pool, repeat=2):
        before = (dict(a.c), dict(b.c))
        for op, ref in ((a + b, ref_add(a, b)), (a - b, ref_sub(a, b)), (a * b, ref_mul(a, b))):
            assert op.c == ref.c, (a, b)
            _is_reduced(op)
        assert (dict(a.c), dict(b.c)) == before, (a, b)
    # single terms against single terms, integers and Burnside elements:
    # every pair of tags, zero products and mod-2 reductions among them
    ints = (-3, -2, -1, 0, 1, 2, 5)
    burnside = (G, KAPPA_A, BurnsideElt(1, 0), BurnsideElt(-1, 2), BurnsideElt(0, 0))
    zeros = tags = 0
    for a in singles:
        before = dict(a.c)
        for b in singles:
            prod = a * b
            assert prod.c == ref_mul(a, b).c, (a, b)
            _is_reduced(prod)
            zeros += not prod.c
        tags += len({next(iter(b.c))[0] for b in singles})
        for n in ints:
            for prod in (a * n, n * a):
                assert prod.c == ref_mul(a, PointElt.from_int(n)).c, (a, n)
                _is_reduced(prod)
        for g in burnside:
            prod = a * g
            assert prod.c == ref_mul(a, PointElt.from_burnside(g)).c, (a, g)
            _is_reduced(prod)
        assert dict(a.c) == before, a
    assert zeros and tags == 3 * len(singles)
    _check_mul_into(pool, singles)


def _check_mul_into(pool, singles):
    """The kernel _mul_into against ref_mul/ref_add: into a fresh dict, into
    a dict that already holds terms, and into one that the product cancels
    to zero, with its inputs left as they were."""
    tag_pairs = set()
    cancelled = mixed_sums = 0
    for a, b in itertools.product(singles, repeat=2):
        tag_pairs.add((next(iter(a.c))[0], next(iter(b.c))[0]))
    assert tag_pairs == set(itertools.product("kpt", repeat=2))
    for a, b in itertools.product(pool, repeat=2):
        before = (dict(a.c), dict(b.c))
        prod = ref_mul(a, b)
        out = {}
        _mul_into(out, a.c.items(), b.c.items())
        assert out == prod.c, (a, b)
        # into a dict that holds a*b already: the sum is 2ab, and every
        # mixed term of ab sums to 0 mod 2 and is deleted
        twice = dict(prod.c)
        _mul_into(twice, a.c.items(), b.c.items())
        assert twice == ref_add(prod, prod).c, (a, b)
        mixed_sums += any(m[0] == "p" and m[1] and m[2] for m in prod.c)
        # into a dict that holds a*b, times -b: every key cancels and goes
        neg = dict(prod.c)
        _mul_into(neg, a.c.items(), ref_sub(PointElt(), b).c.items())
        assert neg == {}, (a, b, neg)
        cancelled += bool(prod.c)
        assert (dict(a.c), dict(b.c)) == before, (a, b)
    assert cancelled and mixed_sums
    # accumulation onto unrelated terms, and the add of ONE_PAIRS
    rng = random.Random(5)
    for _ in range(2000):
        a, b, x = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        out = dict(x.c)
        _mul_into(out, a.c.items(), b.c.items())
        assert out == ref_add(x, ref_mul(a, b)).c, (x, a, b)
        out = dict(x.c)
        _mul_into(out, a.c.items(), ONE_PAIRS)
        assert out == ref_add(x, a).c, (x, a)
    # mixed e^i xi^j sums mod 2: 1 + 1 = 0 deletes the key, 1 + 2 = 1 keeps it
    exi = pos(1, 1)
    out = {exi: 1}
    _mul_into(out, ((pos(1, 0), 1),), ((pos(0, 1), 3),))
    assert out == {}
    out = {exi: 1}
    _mul_into(out, ((pos(1, 0), 1),), ((pos(0, 1), 2),))
    assert out == {exi: 1}


def test_burnside_operands_on_either_side():
    # a Burnside element meets a point element on either side of +, - and *
    # as its image under from_burnside
    burnside = (G, KAPPA_A, BurnsideElt(1, 0), BurnsideElt(-1, 2), BurnsideElt(0, 0))
    for b in burnside:
        bp = PointElt.from_burnside(b)
        for a in _kernel_pool() + _single_terms():
            assert (b + a).c == (bp + a).c, (b, a)
            assert (a + b).c == (a + bp).c, (a, b)
            assert (b - a).c == (bp - a).c, (b, a)
            assert (a - b).c == (a - bp).c, (a, b)
            assert (b * a).c == (bp * a).c, (b, a)
            assert (a * b).c == (a * bp).c, (a, b)
    assert (G * E_PT).c == {} and (G + E_PT).c == (G_PT + E_PT).c
    for op in (lambda: G + "e", lambda: G - 1.5, lambda: G * [1]):
        with pytest.raises(TypeError):
            op()
