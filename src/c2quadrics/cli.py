"""Command-line front end.

Commands:
    reduce SPACE EXPR                normal form and grading of an expression
    basis SPACE [--coset N] [--window a0:a1,b0:b1]
    diagram SPACE [--coset N] [--window ...] [--format ascii|svg]
    verify [SPACE... | --all --max N] [--seed S]
    atlas emit SPACES... [-o FILE]   / atlas load FILE

Space ids: point, bu1, proj:p,q, binate:p,q, quadric:m,n, neq:n,B|D.
"""

from __future__ import annotations

import argparse
import re
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
from .rewrite import NonTerminatingError, NotAClassError
from .solver import audit_full, verify_relations


# what argparse reads as a negative number, not as an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _window(text):
    try:
        apart, bpart = text.split(",")
        a0, a1 = (int(v) for v in apart.split(":"))
        b0, b1 = (int(v) for v in bpart.split(":"))
        return ((a0, a1), (b0, b1))
    except ValueError:
        raise argparse.ArgumentTypeError("window must look like a0:a1,b0:b1")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``error`` raises, for ``main`` to print one
    line, instead of printing the usage block and exiting.  The subcommand
    parsers are of this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser():
    ap = _Parser(
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
    p.add_argument("spaces", nargs="*")
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


def _equivariant_space(args):
    """The presentation of args.space, or None (after one line on stderr)
    for a nonequivariant ring, which has no gradings or classes to show."""
    pres = make_space(args.space)
    if isinstance(pres, NoneqQuadricRing):
        print("use an equivariant space id with `%s`" % args.command, file=sys.stderr)
        return None
    return pres


def cmd_reduce(args):
    pres = _equivariant_space(args)
    if pres is None:
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
    try:
        text = str(val)
    except ValueError as exc:  # the int-to-str digit limit
        print("result too large to print: %s" % exc, file=sys.stderr)
        return 2
    print(text)
    if grading is not None:
        print("# grading: %s  (level %s)" % (grading, val.level))
    return 0


def cmd_basis(args):
    pres = _equivariant_space(args)
    if pres is None:
        return 2
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
    pres = _equivariant_space(args)
    if pres is None:
        return 2
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


def _check_verify(args):
    """Refuse the ``verify --all`` arguments that it would ignore: space
    ids, since --all lists its own quadrics, and a negative --max, which
    lists none."""
    if args.command == "verify" and args.all:
        if args.spaces:
            raise argparse.ArgumentError(None, "give space ids or --all, not both")
        if args.max < 0:
            raise argparse.ArgumentError(None, "argument --max: must be at least 0 with --all")


def cmd_verify(args):
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        if args.all:
            bound = args.max
            # every quadric:m,n with m, n >= 1 and p = m // 2, q = n // 2 <= bound
            for m in range(1, 2 * bound + 2):
                for n in range(1, 2 * bound + 2):
                    ok = _verify_one("quadric:%d,%d" % (m, n), args.seed, args.full) and ok
        elif args.spaces:
            for space_id in args.spaces:
                ok = _verify_one(space_id, args.seed, args.full) and ok
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
        with open(path, "rb") as fh:
            doc = load_atlas(fh.read())
    except (OSError, SchemaError) as exc:
        print("atlas rejected: %s" % exc, file=sys.stderr)
        return 1
    print("atlas with %d spaces: %s" % (
        len(doc["spaces"]), ", ".join(s["space"] for s in doc["spaces"])
    ))
    return 0


def _one_line_warning(message, category, filename, lineno, file=None, line=None):
    print("warning: %s" % message, file=sys.stderr)


def _dash_expression(argv):
    """True if argparse would read the expression of a ``reduce`` call as
    an option: an argument before any ``--`` that starts with '-' and is
    neither ``-h``/``--help`` nor, like '-1' or '-x y', taken as a value."""
    if argv[:1] != ["reduce"]:
        return False
    head = argv[1:argv.index("--")] if "--" in argv else argv[1:]
    return any(
        len(a) > 1 and a[0] == "-" and a not in ("-h", "--help")
        and " " not in a and not _NEGATIVE_NUMBER.match(a)
        for a in head
    )


def _joined_window(argv):
    """argv with ``--window VALUE`` written ``--window=VALUE`` where VALUE
    starts with '-' and a digit, as '-2:5,0:3' does: argparse reads such a
    value, which is not a plain negative number, as an option."""
    out = []
    for a in argv:
        if out and out[-1] == "--window" and a[:1] == "-" and a[1:2].isdigit():
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if _dash_expression(argv):
        print("an expression that starts with '-' needs '--' before it: "
              "c2quadrics reduce SPACE -- EXPR", file=sys.stderr)
        return 2
    try:
        args = build_parser().parse_args(_joined_window(argv))
        _check_verify(args)
    except argparse.ArgumentError as exc:
        # an argument with a line break in it stays on the one line
        print("usage error: %s (see c2quadrics -h)" % " ".join(str(exc).splitlines()), file=sys.stderr)
        return 2
    except SystemExit as exc:  # -h or --help, after printing the help
        return exc.code
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
    except NotAClassError as exc:
        print("not a class: %s" % exc, file=sys.stderr)
        return 2
    except NonTerminatingError as exc:
        print("rule set at fault: %s" % exc, file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
