import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c2quadrics.atlas import (
    SCHEMA,
    SchemaError,
    _hom_tables,
    atlas_document,
    dump_atlas,
    element_from_doc,
    element_to_doc,
    load_atlas,
)
from c2quadrics.catalog import RestrictedGradingWarning, basis_slice, make_quadric, make_space
from c2quadrics.rewrite import NonTerminatingError

warnings.simplefilter("ignore", RestrictedGradingWarning)


def test_atlas_basis_rows_are_the_slice_rows():
    # the atlas builds its basis rows from the slice's points; they are the
    # rows of basis_slice, grading by grading
    ids = ["quadric:11,11", "quadric:1,1", "binate:0,0", "bu1", "proj:3,2", "point"]
    for coset in (-2, 0, 1):
        for window in (((-16, 16), (-16, 16)), ((-7, 13), (-5, 9)), ((3, 3), (5, 5))):
            doc = atlas_document(ids, coset, window)
            for entry in doc["spaces"]:
                rows = basis_slice(make_space(entry["space"]), coset, window)
                assert entry["basis"] == [{"grading": g.to_json(), "type": label} for g, label in rows]


def test_element_round_trip():
    Q = make_quadric(5, 3)
    divw = Q.gen("divw")
    x = Q.mul(divw, Q.monomial_elt((-1, 0, 0, 1, 0, 1, 0)))
    doc = element_to_doc(Q.normal_form(x))
    back = element_from_doc(Q, json.loads(json.dumps(doc)))
    assert (back - x).is_zero()


def test_levele_round_trip():
    Q = make_quadric(3, 3)
    v = Q.rho(Q.gen("x"))
    back = element_from_doc(Q, element_to_doc(v))
    assert (back - v).is_zero()


def test_atlas_deterministic():
    spaces = ["quadric:3,3", "quadric:4,4", "proj:1,1", "neq:5,B"]
    a = dump_atlas(atlas_document(spaces, seed=3))
    b = dump_atlas(atlas_document(list(reversed(spaces)), seed=3))
    assert a == b  # byte-identical given sorted keys and space ordering


def test_atlas_round_trip_and_schema():
    doc = atlas_document(["quadric:3,3"], seed=0)
    text = dump_atlas(doc)
    loaded = load_atlas(text)
    assert loaded["schema"] == SCHEMA
    assert dump_atlas(loaded) == text
    bad = json.loads(text)
    bad["schema"] = "c2quadrics.atlas/0"
    with pytest.raises(SchemaError):
        load_atlas(json.dumps(bad))


def test_presentation_doc_contents():
    doc = atlas_document(["quadric:5,3"], seed=0)["spaces"][0]
    gens = {g["name"]: g for g in doc["presentation"]["generators"]}
    assert gens["divw"]["divisibility"] == "z0"
    assert gens["divx"]["divisibility"] == "z1"
    assert gens["y"]["level"] == "C2/e"
    assert gens["x"]["grading"] == {"a": -2, "b": 0, "m": 3, "n": 0} or gens["x"][
        "grading"
    ]["n"] == 0
    names = [r["name"] for r in doc["presentation"]["relations"]]
    assert "x^2" in names and "divw*divx" in names


def test_hom_tables_skip_only_the_point_ring():
    # the point ring's generators are not classes: no tables
    assert _hom_tables(make_space("point")) == {}
    # a rule-set fault is not swallowed
    Q = make_quadric(3, 3)
    Q.max_steps = 0
    with pytest.raises(NonTerminatingError):
        _hom_tables(Q)


# keys and strings lean on what the escaper must handle: quotes, backslashes,
# control characters, non-ASCII and astral characters
_CHARS = st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600'), st.characters())
_STRS = st.text(_CHARS, max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 2**63, -(2**64) - 1, 10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    _STRS,
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_STRS, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_dump_atlas_is_json_dumps(doc):
    assert dump_atlas(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize(
    "doc", [{1, 2}, b"atlas", {1: "int key"}, {"a": [1, {2: 3}]}, [object()], {"s": {"x"}}]
)
def test_dump_atlas_refuses_what_an_atlas_never_holds(doc):
    with pytest.raises(TypeError):
        dump_atlas(doc)


_DECKS = [
    "point", "bu1", "proj:3,2", "proj:0,3", "binate:2,1", "binate:0,0",
    "quadric:1,1", "quadric:3,3", "quadric:4,3", "quadric:3,4", "quadric:4,4",
    "quadric:0,3", "neq:5,B",
]


@pytest.mark.parametrize("coset", [-2, -1, 0, 1, 2])
def test_dump_atlas_on_real_atlases(coset):
    for window in (((-16, 16), (-16, 16)), ((-7, 13), (-3, 9)), ((5, 21), (-1, 11))):
        doc = atlas_document(_DECKS, coset, window)
        assert dump_atlas(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
    doc = atlas_document(["quadric:3,3", "binate:2,1", "quadric:1,1", "point"], coset, ((-7, 13), (-3, 9)), seed=5, audit=True)
    assert all("audit" in s for s in doc["spaces"] if s["kind"] == "equivariant")
    assert dump_atlas(doc) == json.dumps(doc, sort_keys=True, indent=1) + "\n"
