"""Algebraic laws on random mixed-coefficient elements (Hypothesis).

Elements are sums of canonical monomials with coefficients drawn from
``POINT_COEFFS`` and the 2-torsion classes e^i xi^j, plus transfer atoms on
the spaces that have them.  The profile is derandomized with a fixed seed,
so every run draws the same examples.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from c2quadrics.atlas import SCHEMA, atlas_document, dump_atlas, element_from_doc, element_to_doc
from c2quadrics.catalog import make_space, swap_element, swap_involution
from c2quadrics.cli import main
from c2quadrics.coefficients import G, PointElt, pos
from c2quadrics.expressions import LEVELE
from c2quadrics.rewrite import GENERATORS, MONO_ONE, RingElement, _mono_product, _sample_monomials
from c2quadrics.solver import POINT_COEFFS

SPACES = (
    "quadric:3,3", "quadric:4,3", "quadric:5,3", "quadric:4,4", "binate:2,1", "proj:2,1",
    "quadric:1,1", "binate:0,0", "quadric:7,5",
)
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
    two when ``raw``; the unit on the free orbit, which has no canonical
    monomial) times a drawn coefficient, plus up to one transfer atom;
    reduced to its normal form unless ``raw``."""
    pool = _sample_monomials(pres) or (MONO_ONE,)
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


@pytest.mark.parametrize("sid", ["quadric:3,3", "quadric:4,4", "binate:2,1", "quadric:1,1"])
@seed(SEED)
@LAWS
@given(data=st.data(), n=st.integers(0, 5))
def test_power_is_the_repeated_product(sid, data, n):
    # ** takes closed forms and stops once x*out == out; the product of n
    # copies does neither.  Bases: a sum, one term with an integer
    # coefficient, or 1 + c*M, unipotent when (c*M)^2 = 0
    pres = _space(sid)
    kind = data.draw(st.sampled_from(("sum", "term", "one plus")))
    if kind == "sum":
        x = _element(data.draw, pres)
    else:
        mono = data.draw(st.sampled_from(_sample_monomials(pres) or (MONO_ONE,)))
        c = data.draw(st.sampled_from((1, -1, 2, -3) + COEFFS))
        x = pres.monomial_elt(mono, c)
        if kind == "one plus":
            x = 1 + x
    prod = pres.scalar(1)
    for _ in range(n):
        prod = pres.mul(prod, x)
    assert _terms(x ** n) == _terms(prod)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_normal_form_idempotent(sid, data):
    pres, raw = data.draw(raw_elements(sid))
    nf = pres.normal_form(raw)
    assert _terms(pres.normal_form(_unmarked(nf))) == _terms(nf)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_rho_multiplicative(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    assert pres.rho(pres.mul(x, y)).e == pres.mul(pres.rho(x), pres.rho(y)).e


def _structure(x):
    """An element's terms as plain data, without normalising it."""
    return x.level, {m: v.c for m, v in x.c2.items()}, x.atoms, x.e


def _unmarked(x):
    """A copy of x without the normal-form mark, which normal_form reduces
    in full."""
    return RingElement(x.pres, x.level, c2=x.c2, atoms=x.atoms, e=x.e)


def _levele_terms(draw, pres):
    """A level-e element of one to three drawn terms, reduced."""
    eps = {"free": (0,), "proj": (0,), "binate": (0, 1, 2)}.get(pres.levele.kind, (0, 1))
    key = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.sampled_from(eps))
    return pres.levele_elt(draw(st.dictionaries(key, st.integers(-3, 3), min_size=1, max_size=3)))


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_normal_form_mark(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    _, raw = data.draw(raw_elements(sid))
    c = data.draw(st.sampled_from(COEFFS))
    n = data.draw(st.integers(-3, 3))
    mono = data.draw(st.sampled_from(_sample_monomials(pres) or (MONO_ONE,)))
    w = _levele_terms(data.draw, pres)
    assert not raw._nf and not w._nf
    ex, ey = pres.rho(x), pres.rho(y)
    marked = [pres.normal_form(raw), x, y, ex, pres.mul(x, y), pres.mul(ex, ey), pres.mul(x, ey),
              pres.mul(x, w), pres.t_act(ex), pres.t_act(w), pres.normal_form(w),
              pres.monomial_elt(mono, c), pres.monomial_elt(mono)]
    assert not (x + raw)._nf and not (raw - y)._nf and not (-raw)._nf and not raw.scale(n)._nf
    derived = [x + y, x - y, -x, x.scale(n), x.scale(c), c * x, n * y,
               ex + ey, ex - ey, -ex, ex.scale(n)]
    # a marked element is its own normal form, which normal_form returns as it is
    for z in marked + derived:
        assert z._nf and pres.normal_form(z) is z
        assert _structure(z) == _structure(pres.normal_form(_unmarked(z)))
    # the termwise scaling is the product with the coefficient's element
    for z in (x, y):
        assert _structure(z.scale(c)) == _structure(pres.mul(pres.coeff_elt(c), z))


_OTHER = {}


def _other(sid):
    """A second presentation of the same space."""
    if sid not in _OTHER:
        _OTHER[sid] = make_space(sid)
    return _OTHER[sid]


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_mark_is_trusted_only_in_its_presentation(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    other = _other(sid)
    z = other.monomial_elt(data.draw(st.sampled_from(_sample_monomials(other) or (MONO_ONE,))))
    assert x._nf and z._nf
    assert not (x + z)._nf and not (z - y)._nf
    seen = []
    reduce = other.normal_form
    other.normal_form = lambda w, *a, **k: seen.append(w) or reduce(w, *a, **k)
    try:
        other.rho(x)
        other.eta(x)
        nf = other.normal_form(x)
        assert (z == x) == (_structure(nf) == _structure(z))
    finally:
        del other.normal_form
    # rho, eta, == and the check itself each reduce x again, into other
    assert sum(w is x for w in seen) == 4
    assert nf is not x and nf.pres is other and nf._nf and _structure(nf) == _structure(x)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_level_e_results_are_reduced(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    w = _levele_terms(data.draw, pres)
    model = pres.levele
    ex, ey = pres.rho(x), pres.rho(y)
    for z in (ex, pres.mul(ex, ey), pres.mul(y, w), pres.mul(w, w), pres.t_act(ex), pres.t_act(w)):
        assert model.reduce(z.e) == z.e
    g_pt = PointElt.from_burnside(G)
    for R, img_x, img_y in zip(pres.eta_sides, pres.eta(x), pres.eta(y)):
        rx, ry = R.rho(img_x), R.rho(img_y)
        assert R.model.reduce(rx) == rx and R.model.reduce(ry) == ry
        t = R.tau(R.model.mul(rx, ry))
        assert R.reduce(t) == t
        assert t == R.mul(R.scale(img_x, g_pt), img_y)  # tau rho = g.
        for z in (t, R.scale(img_x, g_pt)):
            wit = R.transfer_witness(z)
            assert wit is not None and R.model.reduce(wit) == wit


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_eta_and_phi_multiplicative(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    xy = pres.mul(x, y)
    for S, ex, ey, exy in zip(pres.eta_sides, pres.eta(x), pres.eta(y), pres.eta(xy)):
        assert exy == S.mul(ex, ey)
    for S, px, py, pxy in zip(pres.eta_sides, pres.phi(x), pres.phi(y), pres.phi(xy)):
        assert S.model.mul(px, py) == pxy


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_normal_form_preserves_grading(sid, data):
    pres, raw = data.draw(raw_elements(sid))
    # split the raw element by the grading of each point-ring term
    parts = {}
    for m, v in raw.c2.items():
        for pm, k in v.c.items():
            coeff = PointElt({pm: k})
            c2, _ = parts.setdefault(pres.mono_grading(m) + coeff.grading(), ({}, {}))
            c2[m] = c2[m] + coeff if m in c2 else coeff
    for (a, b), k in raw.atoms.items():
        parts.setdefault(pres.atom_grading(a, b), ({}, {}))[1][(a, b)] = k
    total = pres.zero()
    for g, (c2, atoms) in parts.items():
        nf = pres.normal_form(RingElement(pres, "top", c2=c2, atoms=atoms))
        assert nf.grading() in (None, g)
        total = total + nf
    assert _terms(total) == _terms(pres.normal_form(raw))


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_mackey_axioms(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    # tau rho = g., on a top-level element
    assert pres.tau_of_levele(pres.rho(x)) == x.scale(PointElt.from_burnside(G))
    # rho tau = 1 + t, on a level-e element: drawn terms plus rho(y) times them
    w = _levele_terms(data.draw, pres)
    w = w + pres.mul(pres.rho(y), w)
    assert pres.rho(pres.tau_of_levele(w)) == w + pres.t_act(w)


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_frobenius_reciprocity(sid, data):
    # x * tau(w) = tau(rho(x) * w), the step that normal_form takes for
    # every transfer term of a rule
    pres, x, y, _ = data.draw(triples(sid))
    w = _levele_terms(data.draw, pres)
    w = w + pres.mul(pres.rho(y), w)
    assert pres.mul(x, pres.tau_of_levele(w)) == pres.tau_of_levele(pres.mul(pres.rho(x), w))


_SWAPPED = {}


def _swapped(sid):
    """The presentation of the swapped space."""
    if sid not in _SWAPPED:
        _SWAPPED[sid] = swap_involution(_space(sid))
    return _SWAPPED[sid]


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_swap_laws(sid, data):
    pres, x, y, _ = data.draw(triples(sid))
    T = _swapped(sid)
    sx, sy = swap_element(pres, T, x), swap_element(pres, T, y)
    # multiplicative, commutes with rho, and an involution
    assert swap_element(pres, T, pres.mul(x, y)) == T.mul(sx, sy)
    assert swap_element(pres, T, pres.rho(x)) == T.rho(sx)
    assert swap_element(T, pres, sx) == x


@pytest.mark.parametrize("sid", SPACES)
@seed(SEED)
@LAWS
@given(data=st.data())
def test_atlas_element_round_trip(sid, data):
    pres, x, _, _ = data.draw(triples(sid))
    for z in (x, pres.rho(x)):
        assert element_from_doc(pres, json.loads(json.dumps(element_to_doc(z)))) == z


# -- the command line: an answer or one line, never a traceback ---------------

CLI_SPACES = (
    "point", "bu1", "proj:2,1", "proj:0,3", "binate:2,1", "binate:0,0", "quadric:1,1",
    "quadric:2,2", "quadric:3,3", "quadric:4,3", "quadric:3,4", "quadric:2,3",
    "quadric:0,3", "quadric:5,2", "neq:5,B", "quadric:100000000000,3",
)
SYMBOLS = GENERATORS + ("e", "xi", "k", "g") + tuple(LEVELE)
POWERS = ("", "", "", "^-2", "^-1", "^0", "^2", "^3")


@st.composite
def _expressions(draw, depth=0):
    """A grammar-shaped expression: one to three signed terms of one to
    three factors, each a symbol, an integer, t(...) or (...) (nested at
    most twice), with an optional power; it may start with '-'."""
    out = draw(st.sampled_from(("", "", "-")))
    for n in range(draw(st.integers(1, 3))):
        if n:
            out += draw(st.sampled_from("+-"))
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.integers(0, 9 if depth < 2 else 7))
            if kind <= 5:
                f = draw(st.sampled_from(SYMBOLS))
            elif kind <= 7:
                f = str(draw(st.integers(0, 4)))
            else:
                f = ("t(%s)", "(%s)")[kind - 8] % draw(_expressions(depth + 1))
            factors.append(f + draw(st.sampled_from(POWERS)))
        out += "*".join(factors)
    return out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_POINT_ATLAS = dump_atlas(atlas_document(["point"]))
_ATLAS_TEXTS = st.one_of(
    _JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"schema": st.sampled_from((SCHEMA, "other/1")), "spaces": _JSON | st.lists(
            st.dictionaries(st.sampled_from(("space", "kind", "basis")), _JSON, max_size=2),
            max_size=2,
        )},
    ).map(json.dumps),
    st.text(max_size=12),
).map(str.encode) | st.binary(max_size=12)


def _cli(argv):
    """main(argv) in-process: its exit status and its stderr lines other than
    warnings; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if not line.startswith("warning:")]


@seed(SEED)
@settings(LAWS, max_examples=300)
@given(st.sampled_from(CLI_SPACES), _expressions(), st.booleans())
def test_reduce_answers_or_prints_one_line(sid, expr, dashes):
    code, err = _cli(["reduce", sid] + ["--"] * dashes + [expr])
    assert code in (0, 1, 2)
    assert len(err) <= 1, err


@seed(SEED)
@settings(LAWS, max_examples=100)
@given(_ATLAS_TEXTS, st.booleans())
def test_atlas_load_answers_or_prints_one_line(text, missing):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "atlas.json")
        if not missing:
            with open(path, "wb") as fh:
                fh.write(text)
        code, err = _cli(["atlas", "load", path])
    assert code in (0, 1, 2)
    assert len(err) <= 1, err


# an atlas load command line: the atlas file, a missing one, -o and the
# options that only emit reads, in any order
_LOAD_TOKENS = st.lists(st.sampled_from((
    "FILE", "FILE", "MISSING", "-o", "--coset", "5", "--window=0:1,0:1", "--seed", "3", "--audit", "--",
)), max_size=6)


@seed(SEED)
@settings(LAWS, max_examples=100)
@given(_LOAD_TOKENS)
def test_atlas_load_command_lines_answer_or_print_one_line(tokens):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "atlas.json")
        with open(path, "w") as fh:
            fh.write(_POINT_ATLAS)
        names = {"FILE": path, "MISSING": os.path.join(tmp, "missing.json")}
        code, err = _cli(["atlas", "load"] + [names.get(t, t) for t in tokens])
    assert code in (0, 1, 2)
    assert len(err) <= 1, (tokens, err)
    # load reads one file and no option
    if code == 0:
        assert [t for t in tokens if t != "--"] == ["FILE"], tokens


# space ids, windows, cosets and formats for basis, diagram, verify and atlas
# emit, each example in milliseconds: a space id builds at once and a basis
# slice makes a fixed number of canonical tests per coset, with the rest of
# its cost O(p + q), so basis and diagram also draw sizes up to 300; verify
# and atlas stay at m, n <= 6, because they take cw^p and run the audit.
# The window reach stays at 6.
_SIZE = st.integers(-1, 6)
_LARGE_SIZE = _SIZE | st.integers(7, 300)
_MALFORMED = st.sampled_from((
    "quadric:3", "quadric:3,x", "quadric:3,3,3", "proj:1,2,3", "binate:", "neq:5", "neq:x,B",
    "quadric", ":3,3", "", " ", "-", "-3", "--", "-x", "x\ny",
)) | st.text(max_size=8)


@st.composite
def _space_ids(draw, size=_SIZE):
    """A space id: well formed (sizes from ``size``, maybe out of range) or
    malformed."""
    kind = draw(st.sampled_from(("point", "bu1", "proj", "binate", "quadric", "quadric", "neq", "bad")))
    if kind in ("point", "bu1"):
        return kind
    if kind == "neq":
        return "neq:%d,%s" % (draw(size), draw(st.sampled_from("BDX")))
    if kind == "bad":
        return draw(_MALFORMED)
    return "%s:%d,%d" % (kind, draw(size), draw(size))


_BOUND = st.integers(-6, 6)
_WELL_FORMED = st.builds("{}:{},{}:{}".format, _BOUND, _BOUND, _BOUND, _BOUND)
_WINDOWS = st.one_of(_WELL_FORMED, _WELL_FORMED, _WELL_FORMED, st.sampled_from(
    ("1:2", "a:b,c:d", "1:2,3", "1:2,3:4:5", "", ",", "1:2;3:4")
), st.text(max_size=6))
_COSETS = st.integers(-3, 3).map(str) | st.sampled_from(("x", "1.5", "", "--"))


@st.composite
def _slice_calls(draw):
    """A basis, diagram, verify or atlas emit command line."""
    command = draw(st.sampled_from(("basis", "diagram", "verify", "atlas")))
    several = command in ("verify", "atlas")
    ids = _space_ids() if several else _space_ids(_LARGE_SIZE)
    spaces = draw(st.lists(ids, min_size=1 - several, max_size=1 + several))
    options = []
    if command == "verify":
        options += draw(st.sampled_from(([], ["--full"], ["--seed", "3"])))
    else:
        if draw(st.booleans()):
            options += ["--coset", draw(_COSETS)]
        if draw(st.booleans()):
            window = draw(_WINDOWS)
            options += draw(st.sampled_from((["--window=" + window], ["--window", window])))
    if command == "diagram" and draw(st.booleans()):
        options += ["--format", draw(st.sampled_from(("ascii", "svg", "png")))]
    argv = [command] + (["emit"] if command == "atlas" else [])
    # '--' before the space ids, so that one that starts with '-' is read as one
    return argv + (options + ["--"] + spaces if draw(st.booleans()) else spaces + options)


@seed(SEED)
@settings(LAWS, max_examples=200)
@given(_slice_calls())
def test_slice_commands_answer_or_print_one_line(argv):
    code, err = _cli(argv)
    assert code in (0, 1, 2)
    assert len(err) <= 1, (argv, err)
