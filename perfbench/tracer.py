"""Per-layer timing of the package, installed at run time by wrapping.

No module of the package changes: ``Tracer.install`` replaces the named
functions and methods with timing wrappers, in every ``c2quadrics``
namespace that holds them (``solver`` holds its own references to
``basis_slice``, ``eta_of_element`` and ``_enumerate_coset_monomials``;
``component`` and ``rewrite`` hold ``point_rho``, ``point_tau`` and
``transfer_witness``), and ``uninstall`` puts the originals back.

Coarse boundaries (Presentation entry points and the catalog, solver,
expressions, atlas and diagram entry points) record one span per call:
(op id, name, start, end, parent span).  Hot methods (every PointElt,
LevelEModel and ComponentRing method, RingElement.__add__ and
Presentation.canonical) keep only counts and times, because they run
more than 1e5 times a run.  Self time is a call's duration minus the time
of the wrapped calls it made, kept on a wrapper stack; ``total_s`` counts
only the outermost call of a recursive function.

Each layer is a module of the package; ``Presentation.canonical`` is
booked to ``catalog`` because its body is the catalog's family test.
"""

import functools
import inspect
import sys
import time

from c2quadrics import atlas, catalog, coefficients, component, diagram, expressions, levele, rewrite, solver

clock = time.perf_counter

_PRESENTATION_ENTRY = (
    "mul", "normal_form", "rho", "tau_of_levele", "eta", "phi", "monomial_elt",
    "levele_elt", "tau_atom", "t_act", "gen", "scalar", "coeff_elt", "identities",
)

# (layer, class, method names or None for every method, record spans)
CLASS_TARGETS = (
    ("coefficients", coefficients.PointElt, None, False),
    ("rewrite", rewrite.RingElement, ("__add__",), False),
    ("rewrite", rewrite.Presentation, _PRESENTATION_ENTRY, True),
    ("catalog", rewrite.Presentation, ("canonical",), False),
    ("levele", levele.LevelEModel, None, False),
    ("component", component.ComponentRing, None, False),
)

# (layer, module, function names, record spans)
FUNCTION_TARGETS = (
    ("coefficients", coefficients, ("transfer_witness", "point_rho", "point_tau", "point_phi", "point_mul"), False),
    ("rewrite", rewrite, ("confluence_probe",), True),
    ("catalog", catalog, ("make_space", "eta_of_element", "basis_slice", "_enumerate_coset_monomials"), True),
    ("solver", solver, (
        "solve_undetermined", "solve_integer_system", "divisibility_witness",
        "verify_relations", "rank_law_check", "audit_full",
    ), True),
    ("expressions", expressions, ("parse_expression",), True),
    ("atlas", atlas, ("atlas_document", "dump_atlas"), True),
    ("diagram", diagram, ("diagram",), True),
)

LAYERS = ("coefficients", "rewrite", "levele", "component", "catalog", "solver", "expressions", "atlas", "diagram")

TIMES = ("calls", "self_s", "total_s")
P, R, A, B = "products", "restrict", "audit", "basis"

# (layer, stat, fields, workloads on which each field must read non-zero;
# ``errors`` may read 0 anywhere)
PER_LAYER = (
    ("coefficients", "PointElt.__add__", TIMES, (P, R, A)),
    ("coefficients", "PointElt.__mul__", TIMES, (P, R, A)),
    ("coefficients", "transfer_witness", ("calls", "hit_ratio"), (R,)),
    ("rewrite", "Presentation.mul", TIMES, (P, R, A)),
    ("rewrite", "Presentation.normal_form", TIMES + ("terms_in", "terms_out"), (P, R, A)),
    ("rewrite", "RingElement.__add__", TIMES, (P, R, A)),
    ("rewrite", "Presentation.rho", TIMES, (R, A)),
    ("rewrite", "Presentation.tau_of_levele", TIMES, (A,)),
    ("rewrite", "Presentation.eta", TIMES, (R, A)),
    ("rewrite", "Presentation.phi", TIMES, (R, A)),
    ("rewrite", "confluence_probe", ("total_s",), (A,)),
    ("levele", "LevelEModel.reduce", TIMES, (R, A)),
    ("levele", "LevelEModel.mul", TIMES, (R, A)),
    ("component", "ComponentRing.mul", TIMES, (R, A)),
    ("component", "ComponentRing.reduce", TIMES, (R, A)),
    ("component", "ComponentRing.power", TIMES, (R, A)),
    ("component", "ComponentRing.tau", TIMES, (R, A)),
    ("component", "ComponentRing.transfer_witness", TIMES, (R,)),
    ("catalog", "make_space", TIMES, (A, B)),
    ("catalog", "eta_of_element", TIMES, (R, A)),
    ("catalog", "basis_slice", TIMES, (B,)),
    ("catalog", "_enumerate_coset_monomials", TIMES + ("monomials_out",), (A, B)),
    ("catalog", "enum", ("canonical_calls", "yield"), (A, B)),
    ("solver", "solve_undetermined", TIMES + ("errors",), (R,)),
    ("solver", "solve_integer_system", TIMES, (R,)),
    ("solver", "divisibility_witness", TIMES, (R,)),
    ("solver", "verify_relations", ("total_s",), (A,)),
    ("solver", "rank_law_check", ("total_s",), (A,)),
    ("solver", "audit_full", ("total_s",), (A,)),
    ("expressions", "parse_expression", TIMES, (P,)),
    ("atlas", "atlas_document", ("total_s",), (B,)),
    ("atlas", "dump_atlas", ("bytes_out",), (B,)),
    ("diagram", "diagram", ("total_s",), (B,)),
)

_UNITS = {"self_s": "s", "total_s": "s", "hit_ratio": "1", "yield": "1", "bytes_out": "bytes"}


def _metric_name(layer, stat, field):
    return "%s.%s.%s" % (layer, stat.lstrip("_"), field)


def metric_specs():
    """[(metric name, unit, workloads that must read it non-zero)]."""
    out = []
    for layer, stat, fields, nonzero_on in PER_LAYER:
        for field in fields:
            required = () if field == "errors" else nonzero_on
            out.append((_metric_name(layer, stat, field), _UNITS.get(field, "count"), required))
    for layer in LAYERS:
        out.append(("layer.%s.self_s" % layer, "s", ()))
    return out


class Stat:
    __slots__ = ("layer", "name", "calls", "self_s", "total_s", "errors", "depth", "extra")

    def __init__(self, layer, name):
        self.layer, self.name = layer, name
        self.calls = self.errors = self.depth = 0
        self.self_s = self.total_s = 0.0
        self.extra = {}

    def bump(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n


def _size(x):
    return len(x.e) if x.level == "e" else len(x.c2) + len(x.atoms)


class Tracer:
    """Counts, times and spans of the wrapped calls, kept in memory."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self.on = False
        self.op = None
        self._stack = [[0.0, -1]]
        self._undo = []
        enum = self._stat("catalog", "_enumerate_coset_monomials")
        canon = self._stat("catalog", "enum")

        def after_canonical(st, args, out):
            if enum.depth:
                canon.bump("canonical_calls")

        def after_normal_form(st, args, out):
            st.bump("terms_in", _size(args[1]))
            st.bump("terms_out", _size(out))

        # extra counts taken from the arguments and result of a call
        self._after = {
            "Presentation.normal_form": after_normal_form,
            "_enumerate_coset_monomials": lambda st, args, out: st.bump("monomials_out", len(out)),
            "dump_atlas": lambda st, args, out: st.bump("bytes_out", len(out.encode())),
            "transfer_witness": lambda st, args, out: st.bump("hits", out is not None),
            "Presentation.canonical": after_canonical,
        }

    def _stat(self, layer, name):
        if name not in self.stats:
            self.stats[name] = Stat(layer, name)
        return self.stats[name]

    def _wrap(self, fn, st, span):
        tracer, stack, after = self, self._stack, self._after.get(st.name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            outer = stack[-1]
            frame = [0.0, outer[1]]
            if span:
                frame[1] = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - frame[0]
                if not st.depth:
                    st.total_s += dt
                outer[0] += dt
                if span:
                    tracer.spans[frame[1]] = (tracer.op, st.name, t0, t0 + dt, outer[1])
            if after is not None:
                after(st, args, out)
            return out

        return wrapper

    def install(self):
        mods = [m for name, m in sys.modules.items() if name == "c2quadrics" or name.startswith("c2quadrics.")]
        for layer, cls, names, span in CLASS_TARGETS:
            for attr, fn in list(vars(cls).items()):
                if not inspect.isfunction(fn) or (names is not None and attr not in names):
                    continue
                st = self._stat(layer, "%s.%s" % (cls.__name__, fn.__name__))
                setattr(cls, attr, self._wrap(fn, st, span))
                self._undo.append((cls, attr, fn))
        for layer, mod, names, span in FUNCTION_TARGETS:
            for name in names:
                fn = getattr(mod, name)
                wrapped = self._wrap(fn, self._stat(layer, name), span)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
                            self._undo.append((m, key, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def call_op(self, op_id, fn, *args):
        """Run one benchmark op as a root span with recording switched on."""
        self.op = op_id
        root = self._stack[0]
        root[0], root[1] = 0.0, len(self.spans)
        self.spans.append(None)
        self.on = True
        t0 = clock()
        try:
            return fn(*args)
        finally:
            t1 = clock()
            self.on = False
            self.spans[root[1]] = (op_id, "op", t0, t1, -1)
            root[1] = -1

    def metrics(self):
        """{metric name: value} for every name of ``metric_specs``."""
        out = {}
        for layer, stat, fields, _ in PER_LAYER:
            st = self.stats.get(stat) or Stat(layer, stat)
            for field in fields:
                if field in ("calls", "self_s", "total_s", "errors"):
                    value = getattr(st, field)
                elif field == "hit_ratio":
                    value = st.extra.get("hits", 0) / st.calls if st.calls else 0.0
                elif field == "yield":
                    enum = self.stats["_enumerate_coset_monomials"].extra.get("monomials_out", 0)
                    canon = st.extra.get("canonical_calls", 0)
                    value = enum / canon if canon else 0.0
                else:
                    value = st.extra.get(field, 0)
                out[_metric_name(layer, stat, field)] = value
        for layer in LAYERS:
            out["layer.%s.self_s" % layer] = sum(s.self_s for s in self.stats.values() if s.layer == layer)
        return out
