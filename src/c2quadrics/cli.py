"""Command-line front end.

Commands:
    reduce SPACE EXPR                normal form and grading of an expression
    basis SPACE [--coset N] [--window a0:a1,b0:b1]
    diagram SPACE [--coset N] [--window ...] [--format ascii|svg]
    verify [SPACE | --all --max N] [--seed S]
    atlas emit SPACES... [-o FILE]   / atlas load FILE

Space ids: point, bu1, proj:p,q, binate:p,q, quadric:m,n, neq:n,B|D.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .atlas import atlas_document, dump_atlas, load_atlas, SchemaError
from .catalog import (
    InvalidWindowError,
    RestrictedGradingWarning,
    basis_slice,
    make_space,
)
from .coefficients import InhomogeneousError
from .diagram import diagram
from .expressions import ExprError, parse_expression
from .noneq import InvalidSizeError, NoneqQuadricRing
from .solver import audit_full, verify_relations


def _window(text):
    try:
        apart, bpart = text.split(",")
        a0, a1 = (int(v) for v in apart.split(":"))
        b0, b1 = (int(v) for v in bpart.split(":"))
        return ((a0, a1), (b0, b1))
    except ValueError:
        raise argparse.ArgumentTypeError("window must look like a0:a1,b0:b1")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="c2quadrics",
        description="Equivariant cohomology rings of symmetric complex quadrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce an expression to its canonical form")
    p.add_argument("space")
    p.add_argument("expr")

    p = sub.add_parser("basis", help="tabulate a basis slice")
    p.add_argument("space")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-16, 40), (-16, 40)))

    p = sub.add_parser("diagram", help="draw the dot diagram of a basis slice")
    p.add_argument("space")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-2, 30), (-2, 20)))
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("space", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="run the full audit, not just the relation deck")

    p = sub.add_parser("atlas", help="emit or load a JSON atlas")
    p.add_argument("mode", choices=("emit", "load"))
    p.add_argument("spaces", nargs="*")
    p.add_argument("-o", "--output")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-16, 16), (-16, 16)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--audit", action="store_true")
    return ap


def cmd_reduce(args):
    pres = make_space(args.space)
    if isinstance(pres, NoneqQuadricRing):
        print("use an equivariant space id with `reduce`", file=sys.stderr)
        return 2
    try:
        val = parse_expression(pres, args.expr)
    except ExprError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    try:
        grading = val.grading()
    except InhomogeneousError as exc:
        print("inhomogeneous expression: %s" % exc, file=sys.stderr)
        return 2
    print(val)
    if grading is not None:
        print("# grading: %s  (level %s)" % (grading, val.level))
    return 0


def cmd_basis(args):
    pres = make_space(args.space)
    rows = basis_slice(pres, args.coset, args.window)
    for g, label in rows:
        print("%4d %4d  %-6s  %s" % (g.a, g.b, label, g))
    print("# %d classes (%d of type C2/C2, %d of type C2/e)" % (
        len(rows),
        sum(1 for _, l in rows if l == "C2/C2"),
        sum(1 for _, l in rows if l == "C2/e"),
    ))
    return 0


def cmd_diagram(args):
    pres = make_space(args.space)
    sys.stdout.write(diagram(pres, args.coset, args.window, args.format))
    return 0


def _verify_one(space_id, seed, full):
    pres = make_space(space_id)
    if isinstance(pres, NoneqQuadricRing):
        rows = [(k, d) for k, d in pres.basis()]
        ok = all(d % 2 == 0 for _, d in rows)
        print("%-14s nonequivariant basis of %d classes: %s" % (space_id, len(rows), "pass" if ok else "fail"))
        return ok
    if full:
        rep = audit_full(pres, seed=seed)
        for name, chk in sorted(rep["checks"].items()):
            print("%-14s %-18s %s" % (pres.name, name, "pass" if chk["ok"] else "FAIL"))
        return rep["ok"]
    rep = verify_relations(pres)
    for row in rep["identities"]:
        print("%-14s %-28s %s" % (pres.name, row["identity"], row["status"]))
    return rep["ok"]


def cmd_verify(args):
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        if args.all:
            bound = args.max
            for m in range(1, 2 * bound + 2):
                for n in range(1, 2 * bound + 2):
                    pm = (m - 1) // 2 if m % 2 else m // 2
                    pn = (n - 1) // 2 if n % 2 else n // 2
                    if pm > bound or pn > bound or m + n < 2:
                        continue
                    ok = _verify_one("quadric:%d,%d" % (m, n), args.seed, args.full) and ok
        elif args.space:
            ok = _verify_one(args.space, args.seed, args.full)
        else:
            print("give a space id or --all", file=sys.stderr)
            return 2
    print("overall: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_atlas(args):
    if args.mode == "emit":
        if not args.spaces:
            print("list the spaces to emit", file=sys.stderr)
            return 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RestrictedGradingWarning)
            doc = atlas_document(
                args.spaces, coset=args.coset, window=args.window,
                seed=args.seed, audit=args.audit,
            )
        text = dump_atlas(doc)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    path = args.spaces[0] if args.spaces else args.output
    if not path:
        print("give the atlas file to load", file=sys.stderr)
        return 2
    try:
        with open(path) as fh:
            doc = load_atlas(fh.read())
    except SchemaError as exc:
        print("atlas rejected: %s" % exc, file=sys.stderr)
        return 1
    print("atlas with %d spaces: %s" % (
        len(doc["spaces"]), ", ".join(s["space"] for s in doc["spaces"])
    ))
    return 0


def _one_line_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _one_line_warning
            if args.command == "reduce":
                return cmd_reduce(args)
            if args.command == "basis":
                return cmd_basis(args)
            if args.command == "diagram":
                return cmd_diagram(args)
            if args.command == "verify":
                return cmd_verify(args)
            if args.command == "atlas":
                return cmd_atlas(args)
    except InvalidSizeError as exc:
        print("invalid space: %s" % exc, file=sys.stderr)
        return 2
    except InvalidWindowError as exc:
        print("invalid window: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
