"""The level-e quotient table against the stack interpreter it replaced.

``_Reference`` keeps ``LevelEModel.quotient``, ``reduce``,
``quotient_mul`` and the level-e ``mul`` as they were before the models
kept a table of single-monomial quotients and before ``reduce`` and
``mul`` took {(d, eps): int} as well (copied verbatim), so the inherited
``t_act`` runs through the old path.  Both must give equal dicts on every
model kind, and raise ``ValueError`` on the same inputs.
"""

import random
import warnings

import pytest

from c2quadrics.catalog import RestrictedGradingWarning, make_space
from c2quadrics.levele import LevelEModel
from c2quadrics.noneq import NoneqQuadricRing


class _Reference(LevelEModel):
    def quotient(self, elt):
        """Reduce {(d, eps): int} modulo the nonequivariant relations of
        this model: the one implementation of the quotients of Z[c, y]."""
        kind, P = self.kind, self.size
        out = {}
        if kind == "zero":
            return out
        stack = list(elt.items())
        while stack:
            (d, eps), v = stack.pop()
            if v == 0:
                continue
            if kind in ("free", "proj"):
                if eps:
                    raise ValueError("no y classes in this model")
                if kind == "proj" and d >= P:
                    continue
            elif kind == "binate":
                if eps >= 1 and d >= 1:
                    continue  # c * y = c * ty = 0
                if eps >= 3 or eps < 0:
                    raise ValueError("bad y exponent")
                if eps == 0 and d >= P:
                    if d == P:
                        stack.append(((0, 1), v))
                        stack.append(((0, 2), v))
                    continue  # c^{N+k} = c^k(y + ty) = 0 for k >= 1
            # quadric models B / D
            elif eps >= 2:
                if kind == "B":
                    continue  # y^2 = 0
                if P == 1:
                    stack.append(((d, eps - 1), v))  # y^2 = y
                elif P % 2 == 1:
                    stack.append(((d + P - 1, eps - 1), v))
                continue
            elif kind == "D" and P == 1:
                if d > 0:
                    continue  # c = 0 on two points
            elif d >= P:
                if eps == 1:
                    continue  # c^P y = 0 in both B and D
                if kind == "B":
                    stack.append(((d - P, 1), 2 * v))
                else:
                    stack.append(((d - P + 1, 1), 2 * v))
                continue
            # c^d y^eps is a basis monomial
            out[(d, eps)] = out.get((d, eps), 0) + v
        return {k: v for k, v in out.items() if v}

    def reduce(self, elt):
        """Reduce {(a, b, d, eps): int}: the quotient, one (a, b) at a time."""
        groups = {}
        for (a, b, d, eps), v in elt.items():
            g = groups.get((a, b))
            if g is None:
                g = groups[(a, b)] = {}
            g[(d, eps)] = v
        out = {}
        for (a, b), g in groups.items():
            for (d, eps), v in self.quotient(g).items():
                out[(a, b, d, eps)] = v
        return out

    def quotient_mul(self, x, y):
        """Product of two {(d, eps): int} elements in the quotient, for the
        models whose y-type products the quotient reduces (not binate)."""
        out = {}
        for (d1, e1), v1 in x.items():
            for (d2, e2), v2 in y.items():
                k = (d1 + d2, e1 + e2)
                out[k] = out.get(k, 0) + v1 * v2
        return self.quotient(out)

    def mul(self, x, y):
        out = {}
        for (a1, b1, d1, e1), v1 in x.items():
            for (a2, b2, d2, e2), v2 in y.items():
                if self.kind == "binate" and e1 >= 1 and e2 >= 1:
                    continue  # all products of y-type classes vanish
                k = (a1 + a2, b1 + b2, d1 + d2, e1 + e2)
                out[k] = out.get(k, 0) + v1 * v2
        return self.reduce(out)


# (kind, size, t_fixes_y, legal y exponents)
MODELS = (
    [("free", 0, False, (0,)), ("zero", 0, False, (0, 1))]
    + [("proj", n, False, (0,)) for n in range(1, 6)]
    + [("binate", n, False, (0, 1, 2)) for n in range(1, 6)]
    + [(kind, n, fix, (0, 1)) for kind in ("B", "D") for n in range(1, 6) for fix in (False, True)]
)
# the y exponents that raise where they are not legal
ILLEGAL = {"free": (1,), "proj": (1,), "binate": (3,)}


def _outcome(f, *args):
    """The result of f(*args), or the class of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


def _monomials(kind, size, legal):
    return [(d, eps) for d in range(3 * size + 3) for eps in legal + ILLEGAL.get(kind, ())]


def _draw(rng, monos, n, level_e):
    """n random terms with coefficients in -3..3, zeros included; illegal
    y exponents come up about once in eight draws."""
    out = {}
    for _ in range(n):
        d, eps = rng.choice(monos)
        key = (rng.randint(-2, 2), rng.randint(-2, 2), d, eps) if level_e else (d, eps)
        out[key] = rng.randint(-3, 3)
    return out


def _check_table(model):
    """No monomial in the table raises under the old interpreter, and each
    entry is the old quotient of that monomial."""
    ref = _Reference(model.kind, model.size, model.t_fixes_y)
    for (d, eps), terms in model.quotients.items():
        assert ref.quotient({(d, eps): 1}) == {(d2, e2): n for d2, e2, n in terms}


@pytest.mark.parametrize("kind,size,fix,legal", MODELS)
def test_quotient_table_matches_interpreter(kind, size, fix, legal):
    rng = random.Random("%s:%d:%d" % (kind, size, fix))
    new, ref = LevelEModel(kind, size, fix), _Reference(kind, size, fix)
    legal_monos = [(d, eps) for d in range(3 * size + 3) for eps in legal]
    monos = _monomials(kind, size, legal)
    # every single monomial of the box, one at a time
    for d, eps in monos:
        for v in (0, 1, -2):
            assert _outcome(new.reduce, {(d, eps): v}) == _outcome(ref.quotient, {(d, eps): v})
    for k in range(60):
        pool = monos if k % 2 else legal_monos
        x = _draw(rng, pool, rng.randint(1, 6), False)
        assert _outcome(new.reduce, x) == _outcome(ref.quotient, x)
        y = _draw(rng, pool, rng.randint(1, 4), False)
        if kind != "binate":
            assert _outcome(new.mul, x, y) == _outcome(ref.quotient_mul, x, y)
        X = _draw(rng, pool, rng.randint(1, 6), True)
        Y = _draw(rng, pool, rng.randint(1, 4), True)
        for name, args in (("reduce", (X,)), ("mul", (X, Y)), ("t_act", (X,)), ("one_plus_t", (X,))):
            assert _outcome(getattr(new, name), *args) == _outcome(getattr(ref, name), *args), name
        # a cancelling sum: an element minus its own quotient reduces to 0
        q = _outcome(ref.reduce, X)
        if q is not ValueError:
            z = dict(X)
            for key, v in q.items():
                z[key] = z.get(key, 0) - v
            assert new.reduce(z) == ref.reduce(z) == {}
    _check_table(new)


@pytest.mark.parametrize("size", range(1, 6))
def test_binate_mul_on_d_eps_keys_matches_the_level_e_product(size):
    """``mul`` on {(d, eps): int} keeps the binate rule that y-type
    products vanish: it equals the old level-e product at iota^0 zeta^0."""
    rng = random.Random("binate:%d" % size)
    new, ref = LevelEModel("binate", size), _Reference("binate", size)
    monos = _monomials("binate", size, (0, 1, 2))

    def lifted(x, y):
        xy = ref.mul({(0, 0) + k: v for k, v in x.items()}, {(0, 0) + k: v for k, v in y.items()})
        return {k[2:]: v for k, v in xy.items()}

    for k in range(60):
        x, y = _draw(rng, monos, rng.randint(1, 6), False), _draw(rng, monos, rng.randint(1, 4), False)
        assert _outcome(new.mul, x, y) == _outcome(lifted, x, y)


def test_illegal_monomials_raise_and_stay_out_of_the_table():
    for kind, size in (("free", 0), ("proj", 3), ("binate", 2)):
        model = LevelEModel(kind, size)
        bad = (0, 3) if kind == "binate" else (2, 1)
        for f, arg in ((model.reduce, {bad: 1}), (model.reduce, {(1, 0) + bad: 1})):
            with pytest.raises(ValueError):
                f(arg)
        assert bad not in model.quotients
        # a zero coefficient is skipped before the lookup and never raises
        assert model.reduce({bad: 0, (0, 0): 0}) == {}
        assert model.reduce({(0, 0) + bad: 0}) == {}
        assert bad not in model.quotients
    # c^d ty^3 with d >= 1 is 0 in binate (c * y = 0), before the exponent check
    model = LevelEModel("binate", 2)
    assert model.reduce({(1, 3): 5}) == {}


def _old_noneq_t_act(R, x):
    """NoneqQuadricRing.t_act as the ring wrote it before it went through
    the level-e model."""
    out = {}
    for (d, eps), v in x.items():
        if eps == 0 or R.kind == "B":
            out[(d, eps)] = out.get((d, eps), 0) + v
        else:
            # type D: t(y) = c^{p-1} - y
            out[(d + R.p - 1, 0)] = out.get((d + R.p - 1, 0), 0) + v
            out[(d, 1)] = out.get((d, 1), 0) - v
    return R.reduce(out)


@pytest.mark.parametrize("n", range(13))
def test_noneq_t_act_matches_ruling_swap(n):
    R = NoneqQuadricRing(n)
    rng = random.Random(n)
    monos = [(d, eps) for d in range(2 * R.p + 3) for eps in (0, 1)]
    for d, eps in monos:
        x = {(d, eps): 1}
        assert R.t_act(x) == _old_noneq_t_act(R, x)
    for _ in range(40):
        x = _draw(rng, monos, rng.randint(1, 5), False)
        t = R.t_act(x)
        assert t == _old_noneq_t_act(R, x)
        assert R.t_act(t) == R.reduce(x)  # t is an involution


def _fixed_euler(k):
    """r(k), the Euler characteristic of the quadric of dimension k - 2 in
    CP^(k-1), one fixed component of t on Q^{m,n} (empty for k <= 1)."""
    if k <= 1:
        return 0
    return k - 1 if k % 2 else k


def _quadric_decks():
    """(m, n, levele) for every quadric with 0 <= m, n <= 15 and m + n >= 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        return [
            (m, n, make_space("quadric:%d,%d" % (m, n)).levele)
            for m in range(16) for n in range(16) if m + n >= 2
        ]


def _lefschetz_holds(m, n, model):
    """The trace of t on the underlying ring, over the basis keys
    (0, 0, d, eps) at iota^0 zeta^0, equals r(m) + r(n), the Euler
    characteristic of the fixed set."""
    keys = [(0, 0, d, eps) for d in range(m + n) for eps in (0, 1)
            if model.monomial_quotient(d, eps) == ((d, eps, 1),)]
    # the rank of the underlying ring, the Euler characteristic of Q^{m+n-2}
    assert len(keys) == (m + n - 1 if (m + n) % 2 else m + n)
    trace = sum(model.t_act({k: 1}).get(k, 0) for k in keys)
    return trace == _fixed_euler(m) + _fixed_euler(n)


def test_lefschetz_number_of_t():
    decks = _quadric_decks()
    assert len(decks) == 253
    for m, n, model in decks:
        assert _lefschetz_holds(m, n, model), (m, n)


def test_lefschetz_number_catches_a_flipped_ruling_swap():
    # on type D (m + n even) t fixes the rulings or swaps them, and the
    # trace reads which: flipping t_fixes_y moves it by 2
    caught = 0
    for m, n, model in _quadric_decks():
        if (m + n) % 2:
            continue
        model.t_fixes_y = not model.t_fixes_y
        try:
            caught += not _lefschetz_holds(m, n, model)
        finally:
            model.t_fixes_y = not model.t_fixes_y
    assert caught == 127
