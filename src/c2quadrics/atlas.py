"""Versioned JSON persistence: elements, presentation decks, atlases.

The atlas document is deterministic (sorted keys, canonical ordering) so
repeated emission is byte-identical, and it is schema-versioned so stale
documents are rejected loudly.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

from .catalog import basis_slice, make_space
from .coefficients import PointElt
from .levele import levele_str
from .noneq import NoneqQuadricRing
from .rewrite import GENERATORS, NotAClassError, RingElement, gen_mono
from .solver import audit_full

SCHEMA = "c2quadrics.atlas/1"


class SchemaError(ValueError):
    pass


def element_to_doc(x):
    doc = {"level": x.level}
    if x.c2:
        doc["c2"] = [
            {"mono": list(m), "coeff": v.to_json()} for m, v in sorted(x.c2.items())
        ]
    if x.atoms:
        doc["atoms"] = [
            {"iota": a, "zeta": b, "coeff": v} for (a, b), v in sorted(x.atoms.items())
        ]
    if x.e:
        doc["e"] = [
            {"key": list(k), "coeff": v} for k, v in sorted(x.e.items())
        ]
    return doc


def element_from_doc(pres, doc):
    x = RingElement(pres, doc["level"])
    for row in doc.get("c2", []):
        x = x + RingElement(
            pres, "top", c2={tuple(row["mono"]): PointElt.from_json(row["coeff"])}
        )
    for row in doc.get("atoms", []):
        x = x + RingElement(pres, "top", atoms={(row["iota"], row["zeta"]): row["coeff"]})
    for row in doc.get("e", []):
        e = RingElement(pres, "e", e={tuple(row["key"]): row["coeff"]})
        x = e if not (x.c2 or x.atoms or x.e) and doc["level"] == "e" else x + e
    return pres.normal_form(x)


# the divided classes and the zeta that divides them
_DIVISIBILITY = {"divw": "z0", "divx": "z1"}


def generator_table(pres):
    gens = [
        {
            "name": name,
            "grading": pres.mono_grading(gen_mono(name)).to_json(),
            "level": "C2/C2",
            "divisibility": _DIVISIBILITY.get(name),
        }
        for name in (GENERATORS if pres.has_x else GENERATORS[:4])
    ]
    if pres.has_atoms:
        gens.append(
            {
                "name": "y",
                "grading": pres.atom_grading(0, 0).to_json(),
                "level": "C2/e",
                "divisibility": "z0",
            }
        )
    return gens


def presentation_to_doc(pres):
    doc = {
        "space": pres.name,
        "generators": generator_table(pres),
        "rules": [name for name, _, _ in pres.rules],
        "relations": [
            {"name": name, "lhs": str(pres.normal_form(l)), "rhs": str(pres.normal_form(r))}
            for name, l, r in pres.identities()
        ],
        "levele_model": {"kind": pres.levele.kind, "size": pres.levele.size},
        "hom_tables": _hom_tables(pres),
        "warnings": list(pres.warnings),
    }
    return doc


def _hom_tables(pres):
    """Printable rho / eta images of the generators."""
    tables = {}
    gens = GENERATORS[:5] if pres.has_x else GENERATORS[:4]  # x, not the divided classes
    try:
        elts = [pres.gen(g) for g in gens]
    except NotAClassError:
        return tables  # the point ring: its generators are not classes
    tables["rho"] = {g: levele_str(pres.rho(x).e) for g, x in zip(gens, elts)}
    if all(S.empty for S in pres.eta_sides):
        return tables  # no fixed points (the free orbit): no eta table
    images = [pres.eta(x) for x in elts]
    for S in pres.eta_sides:
        tables["eta%d" % S.side] = {g: S.str_elt(img[S.side]) for g, img in zip(gens, images)}
    return tables


def atlas_document(space_ids, coset=0, window=((-16, 16), (-16, 16)), seed=0, audit=False):
    spaces = []
    for sid in sorted(space_ids):
        pres = make_space(sid)
        if isinstance(pres, NoneqQuadricRing):
            spaces.append({"space": sid, "kind": "nonequivariant", "basis": [
                {"key": list(k), "degree": d} for k, d in pres.basis()
            ]})
            continue
        entry = {
            "space": sid,
            "kind": "equivariant",
            "presentation": presentation_to_doc(pres),
            "basis": [
                {"grading": g.to_json(), "type": label}
                for g, label in basis_slice(pres, coset, window)
            ],
            "coset": coset,
            "window": [list(window[0]), list(window[1])],
        }
        if audit:
            rep = audit_full(pres, seed=seed, samples=40, probe_samples=60)
            entry["audit"] = {
                "ok": rep["ok"],
                "checks": {k: v["ok"] for k, v in sorted(rep["checks"].items())},
            }
        spaces.append(entry)
    return {"schema": SCHEMA, "seed": seed, "spaces": spaces}


def dump_atlas(doc):
    """The text of ``doc``: byte for byte ``json.dumps(doc, sort_keys=True,
    indent=1) + "\\n"``, written in one pass.

    ``json`` falls back to its pure-Python encoder whenever ``indent`` is
    set; this writer keeps that layout and its escaping.  Dicts (with str
    keys, written in sorted order) become objects, lists and tuples arrays;
    str goes through ``json``'s own ASCII escaper, int through
    ``int.__repr__``, float as ``json`` writes it (``NaN``, ``Infinity``,
    ``-Infinity``, else ``float.__repr__``), and True, False and None are
    ``true``, ``false`` and ``null``.  Any other value, or a key that is
    not a str, raises ``TypeError``; an atlas holds neither."""
    out = []
    emit = out.append

    def write(o, nl):
        if isinstance(o, str):
            emit(_quote(o))
        elif o is None:
            emit("null")
        elif o is True:
            emit("true")
        elif o is False:
            emit("false")
        elif isinstance(o, int):
            emit(int.__repr__(o))
        elif isinstance(o, float):
            if o != o:
                emit("NaN")
            elif o == math.inf:
                emit("Infinity")
            elif o == -math.inf:
                emit("-Infinity")
            else:
                emit(float.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                emit("{}")
                return
            inner = nl + " "
            sep = "{" + inner
            for k in sorted(o):
                if not isinstance(k, str):
                    raise TypeError("keys must be str, not %s" % type(k).__name__)
                emit(sep + _quote(k) + ": ")
                write(o[k], inner)
                sep = "," + inner
            emit(nl + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                emit("[]")
                return
            inner = nl + " "
            sep = "[" + inner
            for v in o:
                emit(sep)
                write(v, inner)
                sep = "," + inner
            emit(nl + "]")
        else:
            raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)

    write(doc, "\n")
    emit("\n")
    return "".join(out)


def load_atlas(text):
    """The atlas document in ``text`` (str or bytes).  ``SchemaError`` for
    text that is not JSON, a document that is not an object, a schema other
    than ``SCHEMA``, or ``spaces`` that is not a list of objects that each
    name their space."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSON, encoding, digits, nesting
        raise SchemaError("not JSON: %s" % exc) from None
    if not isinstance(doc, dict):
        raise SchemaError("not a JSON object")
    if doc.get("schema") != SCHEMA:
        raise SchemaError(
            "schema mismatch: expected %r, found %r" % (SCHEMA, doc.get("schema"))
        )
    spaces = doc.get("spaces")
    if not isinstance(spaces, list) or not all(
        isinstance(s, dict) and isinstance(s.get("space"), str) for s in spaces
    ):
        raise SchemaError("'spaces' is not a list of objects with a 'space' id")
    return doc
