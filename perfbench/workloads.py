"""The four benchmark workloads: seeded inputs, the timed op, the answer check.

Each workload is one user path of the package:

- ``products``: reduce products of mixed-coefficient elements to canonical
  bases on four large quadrics, one of each parity type.
- ``restrict``: identify a product by its rho/eta/phi images with the
  undetermined-coefficient solver, then decide divisibility by z0 and z1.
- ``audit``: the ``verify --all --max 3 --full`` path, one fresh quadric
  per op, so per-presentation state stays cold.
- ``basis``: basis slices over wide windows, dot diagrams and an atlas.

Inputs are plain data (space ids, exponent tuples, indices into
``solver.POINT_COEFFS``, expression strings, windows).  Every op builds its
elements through the public API, and every package entry point is looked up
as a module attribute at call time, so the traced run sees each call.

A workload produces its ops in rounds.  A round is a fixed mix of op kinds
whose parameters come from the seeded generator.  A run times a fixed number
of whole rounds, ceil(seconds / round_s), so every run of a workload does
the same kind and amount of work and reports its tail at the same
percentile.  ``round_s`` is the op time of one round at the seed commit, in
the reference seconds of worker.py, so a run measures about ``seconds``
there, and a faster program finishes the same work sooner.
"""

import hashlib
import itertools
import random
import warnings

import c2quadrics as cq
from c2quadrics import atlas as cq_atlas
from c2quadrics import diagram as cq_diagram
from c2quadrics import solver as cq_solver

warnings.simplefilter("ignore", cq.RestrictedGradingWarning)

POINT_COEFFS = cq_solver.POINT_COEFFS


def _deck(bound):
    """(m, n) of every quadric in ``verify --all --max bound``."""
    out = []
    for m in range(1, 2 * bound + 2):
        for n in range(1, 2 * bound + 2):
            pm = (m - 1) // 2 if m % 2 else m // 2
            pn = (n - 1) // 2 if n % 2 else n // 2
            if pm > bound or pn > bound or m + n < 2:
                continue
            out.append((m, n))
    return out


# -- canonical text of results, for the digests --------------------------------


def elt_key(x):
    """Exact, order-free text of a RingElement."""
    if x.level == "e":
        return "e%r" % (sorted(x.e.items()),)
    c2 = sorted((m, sorted(v.c.items())) for m, v in x.c2.items())
    return "top%r%r" % (c2, sorted(x.atoms.items()))


def _build(pres, terms):
    """Sum of coeff*monomial through the public constructor."""
    x = pres.zero()
    for mono, ci in terms:
        x = x + pres.monomial_elt(mono, POINT_COEFFS[ci])
    return x


def _monomial_pool(pres, s_range, i_max, j_max):
    """Canonical monomials with the given exponent ranges (seed-independent)."""
    ranges = (
        s_range,
        s_range,
        range(i_max + 1),
        range(j_max + 1),
        range(2 if pres.has_x else 1),
        (0, 1),
        (0, 1),
    )
    return [m for m in itertools.product(*ranges) if any(m) and pres.canonical(m)]


class Draws:
    """Seeded stratified draws: each key cycles through reshuffled passes of
    its items, so every run uses each item about equally often and runs on
    different seeds differ in the combinations, not in the mix."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._streams = {}

    def __call__(self, key, items):
        if key not in self._streams:
            self._streams[key] = self._cycle(list(items))
        return next(self._streams[key])

    def _cycle(self, items):
        while True:
            self.rng.shuffle(items)
            yield from items


class Workload:
    """Interface of one workload; subclasses fill in the four steps."""

    name = ""
    # the answer gate runs the first gate_ops ops of the pinned seed; a timed
    # run times ceil(seconds / round_s) rounds; a traced run times trace_ops
    # ops untraced, then the following trace_ops ops traced
    gate_ops = trace_ops = round_s = None
    SPACES = ()          # presentations built at set-up and shared by the ops

    def setup(self):
        """Build what the ops share; timed as part of ``setup_s``."""
        return {sid: cq.make_space(sid) for sid in self.SPACES}

    def prepare(self, ctx):
        """Seed-independent input tables, built outside every timing."""

    def rounds(self, ctx, seed):
        """Endless seeded sequence of rounds (lists of plain-data ops)."""
        draw = Draws(seed)
        while True:
            yield self.round(ctx, draw)

    def round(self, ctx, draw):
        raise NotImplementedError

    def run(self, ctx, op):
        raise NotImplementedError

    def check(self, ctx, op, result):
        """Return (ok, canonical text of the answer); never timed."""
        raise NotImplementedError

    def gate(self, ctx):
        """Extra pinned answers beyond the gate rounds: [(ok, text)]."""
        return []


# -- products ---------------------------------------------------------------------


class Products(Workload):
    name = "products"
    SPACES = ("quadric:21,19", "quadric:20,19", "quadric:21,18", "quadric:20,18")
    BASE = "cw+cx+z0+z1+x+divw"
    TRIPLES = 7          # triple products per space per round
    TERMS = 6            # monomials per factor
    POWERS = (3, 4, 5)
    gate_ops = 8
    trace_ops = 32
    round_s = 0.95

    def prepare(self, ctx):
        ctx["pools"] = {
            sid: _monomial_pool(ctx[sid], range(-2, 3), ctx[sid].p + 1, ctx[sid].q + 1)
            for sid in self.SPACES
        }

    def round(self, ctx, draw):
        ops = []
        coeffs = range(len(POINT_COEFFS))
        for sid in self.SPACES:
            pool = ctx["pools"][sid]
            for _ in range(self.TRIPLES):
                factors = [
                    [(draw(sid, pool), draw("coeff", coeffs)) for _ in range(self.TERMS)]
                    for _ in range(3)
                ]
                ops.append(("triple", sid, factors))
            ops.append(("power", sid, "(%s)^%d" % (self.BASE, draw("power" + sid, self.POWERS))))
        return ops

    def run(self, ctx, op):
        kind, sid, arg = op
        pres = ctx[sid]
        if kind == "power":
            return cq.parse_expression(pres, arg)
        x, y, z = (_build(pres, terms) for terms in arg)
        return pres.mul(pres.mul(x, y), z)

    def check(self, ctx, op, result):
        kind, sid, arg = op
        pres = ctx[sid]
        # rho is multiplicative: rho(x y z) = rho(x) rho(y) rho(z) at level e
        if kind == "power":
            base = pres.rho(cq.parse_expression(pres, self.BASE))
            expect = base
            for _ in range(int(arg.rsplit("^", 1)[1]) - 1):
                expect = pres.mul(expect, base)
        else:
            factors = [pres.rho(_build(pres, terms)) for terms in arg]
            expect = pres.mul(pres.mul(factors[0], factors[1]), factors[2])
        ok = (pres.rho(result) - expect).is_zero()
        return ok, elt_key(result)


# -- restrict ----------------------------------------------------------------------


class Restrict(Workload):
    name = "restrict"
    SPACES = ("quadric:9,7", "quadric:8,7", "quadric:9,6", "quadric:8,6")
    QUERIES = 25         # per space per round
    TERMS = 1            # monomials per factor: products of sums are inhomogeneous
    gate_ops = 100
    trace_ops = 200
    round_s = 0.26

    def prepare(self, ctx):
        # low exponents keep most products nonzero, so op costs stay unimodal
        ctx["pools"] = {
            sid: _monomial_pool(ctx[sid], range(-1, 3), ctx[sid].p // 2, ctx[sid].q // 2)
            for sid in self.SPACES
        }

    def round(self, ctx, draw):
        ops = []
        coeffs = range(len(POINT_COEFFS))
        for sid in self.SPACES:
            pool = ctx["pools"][sid]
            for _ in range(self.QUERIES):
                # coefficients range over all of POINT_COEFFS, 2-torsion
                # products included: see NOTES.md on the known defect
                x, y = (
                    [(draw(sid, pool), draw("coeff", coeffs)) for _ in range(self.TERMS)]
                    for _ in range(2)
                )
                ops.append(("restrict", sid, x, y))
        return ops

    def run(self, ctx, op):
        _, sid, xt, yt = op
        pres = ctx[sid]
        xy = pres.mul(_build(pres, xt), _build(pres, yt))
        # candidates: one point monomial times one canonical monomial each
        cands = []
        for mono, coeff in xy.c2.items():
            for pm in coeff.c:
                cands.append(pres.monomial_elt(mono, cq.PointElt.monomial(pm)))
        for a, b in xy.atoms:
            cands.append(pres.tau_atom(a, b))
        solved = None
        if cands:
            images = {"rho": pres.rho(xy), "eta": pres.eta(xy), "phi": pres.phi(xy)}
            solved = cq.solve_undetermined(pres, xy.grading(), cands, images)
        div = [cq.divisibility_witness(pres, xy, side) for side in ("z0", "z1")]
        return xy, cands, solved, div

    def check(self, ctx, op, result):
        pres = ctx[op[1]]
        xy, cands, solved, div = result
        rebuilt = pres.zero()
        if solved is not None:
            for coeff, cand in zip(solved["solution"], cands):
                rebuilt = rebuilt + cand.scale(cq.PointElt.from_burnside(coeff))
        ok = (rebuilt - xy).is_zero()
        sol = None if solved is None else [(c.u, c.v) for c in solved["solution"]]
        wit = [(d["divisible"], sorted((d["witness"] or {}).items())) for d in div]
        return ok, "%s|%r|%r" % (elt_key(xy), sol, wit)


# -- audit -------------------------------------------------------------------------


class Audit(Workload):
    name = "audit"
    BOUND = 3            # verify --all --max 3 --full
    gate_ops = 4
    trace_ops = 25
    round_s = 16.3

    def round(self, ctx, draw):
        # one op per deck quadric, in seeded order with seeded audit seeds
        deck = ["quadric:%d,%d" % mn for mn in _deck(self.BOUND)]
        draw.rng.shuffle(deck)
        return [("audit", sid, draw.rng.randrange(1 << 16)) for sid in deck]

    def run(self, ctx, op):
        _, sid, seed = op
        return cq.audit_full(cq.make_space(sid), seed)

    def check(self, ctx, op, result):
        checks = sorted((k, v["ok"]) for k, v in result["checks"].items())
        return bool(result["ok"]), "%s|%r" % (result["space"], checks)


# -- basis -------------------------------------------------------------------------


class Basis(Workload):
    name = "basis"
    SPACES = ("quadric:31,30", "quadric:40,41", "quadric:35,36")
    COSETS = (0, 1, -1)
    REACH = (50, 60, 70, 80, 90)
    ATLAS_SPACES = ("quadric:3,3", "quadric:4,3", "quadric:5,4", "proj:2,3", "binate:2,2", "bu1", "point")
    # the two figure slices of the paper, pinned exactly
    FIGURES = {
        "quadric:11,7": [
            (0, 0), (0, 2), (2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 12),
            (8, 6), (8, 12), (10, 12), (10, 14), (12, 14), (14, 14), (16, 14), (18, 14),
        ],
        "quadric:15,7": [
            (0, 0), (0, 2), (2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (6, 16), (8, 6), (8, 16),
            (10, 6), (10, 16), (12, 6), (14, 14), (16, 14), (18, 14), (20, 14), (22, 14),
            (24, 14), (26, 14),
        ],
    }
    FIGURE_WINDOW = ((-4, 44), (-4, 44))
    gate_ops = 3
    trace_ops = 16
    round_s = 5.6

    def round(self, ctx, draw):
        rng = draw.rng

        def window(sid):
            # the enumeration cost grows with the window's largest extent, so
            # each space takes every extent of REACH once per round
            reach = draw(("reach", sid), self.REACH)
            return ((-rng.randint(2, 10), reach), (-rng.randint(2, 10), rng.randint(50, reach)))

        ops = [("slice", sid, c, window(sid)) for sid in self.SPACES for c in self.COSETS]
        for sid in self.SPACES:
            for fmt in ("ascii", "svg"):
                ops.append(("diagram", sid, draw("coset", self.COSETS), window(sid), fmt))
        ops.append(("atlas", self.ATLAS_SPACES, draw("coset", self.COSETS), ((-16, 16), (-16, 16))))
        return ops

    def run(self, ctx, op):
        kind = op[0]
        if kind == "slice":
            _, sid, coset, window = op
            return cq.basis_slice(ctx[sid], coset, window)
        if kind == "diagram":
            _, sid, coset, window, fmt = op
            return cq_diagram.diagram(ctx[sid], coset, window, fmt)
        _, ids, coset, window = op
        return cq_atlas.dump_atlas(cq_atlas.atlas_document(list(ids), coset, window))

    def check(self, ctx, op, result):
        kind = op[0]
        if kind == "slice":
            (a0, a1), (b0, b1) = op[3]
            rows = [(g.a, g.b, g.m, label) for g, label in result]
            ok = all(a0 <= a <= a1 and b0 <= b <= b1 for a, b, _, _ in rows)
            ok = ok and all(label in ("C2/C2", "C2/e") for *_, label in rows)
            return ok, repr(rows)
        if kind == "diagram":
            return bool(result), hashlib.sha256(result.encode()).hexdigest()
        # the atlas re-emits byte for byte
        ok = cq_atlas.dump_atlas(cq_atlas.load_atlas(result)) == result
        return ok, hashlib.sha256(result.encode()).hexdigest()

    def gate(self, ctx):
        out = []
        for sid, solid in self.FIGURES.items():
            rows = cq.basis_slice(cq.make_space(sid), 0, self.FIGURE_WINDOW)
            c2 = sorted((g.a, g.b) for g, label in rows if label == "C2/C2")
            ce = [(g.a, g.b) for g, label in rows if label == "C2/e"]
            line = 16 if sid == "quadric:11,7" else 20
            ok = c2 == solid and len(ce) == 1 and sum(ce[0]) == line
            out.append((ok, "%s|%r|%r" % (sid, c2, ce)))
        text = cq_atlas.dump_atlas(cq_atlas.atlas_document(list(self.ATLAS_SPACES)))
        again = cq_atlas.dump_atlas(cq_atlas.atlas_document(list(self.ATLAS_SPACES)))
        out.append((text == again, hashlib.sha256(text.encode()).hexdigest()))
        return out


WORKLOADS = {w.name: w for w in (Products(), Restrict(), Audit(), Basis())}
