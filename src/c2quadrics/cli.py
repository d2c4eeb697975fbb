"""Command-line front end.

Commands:
    reduce SPACE EXPR                normal form and grading of an expression
    basis SPACE [--coset N] [--window a0:a1,b0:b1]
    diagram SPACE [--coset N] [--window ...] [--format ascii|svg]
    verify [SPACE... | --all [--max N]] [--full [--seed S]]
    atlas emit SPACE... [-o FILE] [--coset N] [--window ...] [--seed S] [--audit]
    atlas load FILE

Space ids: point, bu1, proj:p,q, binate:p,q, quadric:m,n, neq:n,B|D.

An error ends a run in one stderr line and a nonzero exit status (``_OUTCOMES``).
"""

from __future__ import annotations

import argparse
import os
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


class _Refused(Exception):
    """A command line that a command refuses, in the words of its message."""


# each error a run may raise, first match first: its exit status and its one
# stderr line, filled in with the error ``exc`` and the parsed ``args``.  A
# command puts the rows of the file it names first, in ``args.outcomes``.
_OUTCOMES = (
    (argparse.ArgumentError, 2, "usage error: {exc} (see c2quadrics -h)"),
    (_Refused, 2, "{exc}"),
    (ExprError, 2, "parse error: {exc}"),
    (InhomogeneousError, 2, "inhomogeneous expression: {exc}"),
    (InvalidSizeError, 2, "invalid space: {exc}"),
    (InvalidWindowError, 2, "invalid window: {exc}"),
    (NotAClassError, 2, "not a class: {exc}"),
    (SchemaError, 1, "atlas rejected: {exc}"),
    (NonTerminatingError, 1, "rule set at fault: {exc}"),
    # the package's ValueErrors are all above: this is the int-to-str digit limit
    (ValueError, 2, "result too large to print: {exc}"),
)


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

    def print_help(self, file=None):
        # argparse's own writer swallows an OSError; this one leaves it to main
        (file or sys.stdout).write(self.format_help())

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # after the help: a closed stdout shows in main
        super().exit(status, message)


class _OutputFile(argparse.Action):
    """``-o FILE``: the file to write, which a failed write names."""

    def __call__(self, parser, namespace, value, option_string=None):
        namespace.output = value
        namespace.outcomes = ((OSError, 1, "cannot write {args.output}: {exc.strerror}"),)


def build_parser():
    ap = _Parser(
        prog="c2quadrics",
        description="Equivariant cohomology rings of symmetric complex quadrics",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce an expression to its canonical form")
    p.add_argument("space")
    p.add_argument("expr")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("basis", help="tabulate a basis slice")
    p.add_argument("space")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-16, 40), (-16, 40)))
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("diagram", help="draw the dot diagram of a basis slice")
    p.add_argument("space")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-2, 30), (-2, 20)))
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(run=cmd_diagram)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("spaces", nargs="*")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max", type=int, help="with --all: the largest p, q (default 3)")
    p.add_argument("--seed", type=int, help="with --full: the audit's seed (default 0)")
    p.add_argument("--full", action="store_true", help="run the full audit, not just the relation deck")
    p.set_defaults(run=cmd_verify)

    modes = sub.add_parser("atlas", help="emit or load a JSON atlas").add_subparsers(dest="mode", required=True)
    p = modes.add_parser("emit", help="write the atlas of some spaces")
    p.add_argument("spaces", nargs="+")
    p.add_argument("-o", "--output", action=_OutputFile, help="the file to write (default stdout)")
    p.add_argument("--coset", type=int, default=0)
    p.add_argument("--window", type=_window, default=((-16, 16), (-16, 16)))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(run=cmd_atlas_emit)
    p = modes.add_parser("load", help="check an atlas file and list its spaces")
    p.add_argument("file")
    p.set_defaults(run=cmd_atlas_load, outcomes=((OSError, 1, "atlas rejected: {exc}"),))
    return ap


def _equivariant_space(args):
    """The presentation of args.space; a nonequivariant ring, which has no
    gradings or classes to show, is refused."""
    pres = make_space(args.space)
    if isinstance(pres, NoneqQuadricRing):
        raise _Refused("use an equivariant space id with `%s`" % args.command)
    return pres


def cmd_reduce(args):
    val = parse_expression(_equivariant_space(args), args.expr)
    grading = val.grading()
    print(val)
    if grading is not None:
        print("# grading: %s  (level %s)" % (grading, val.level))
    return 0


def cmd_basis(args):
    rows = basis_slice(_equivariant_space(args), args.coset, args.window)
    for g, label in rows:
        print("%4d %4d  %-6s  %s" % (g.a, g.b, label, g))
    print("# %d classes (%d of type C2/C2, %d of type C2/e)" % (
        len(rows),
        sum(1 for _, l in rows if l == "C2/C2"),
        sum(1 for _, l in rows if l == "C2/e"),
    ))
    return 0


def cmd_diagram(args):
    sys.stdout.write(diagram(_equivariant_space(args), args.coset, args.window, args.format))
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
    """Refuse the ``verify`` arguments that it would ignore (space ids
    beside --all, --max without --all, --seed without --full, a negative
    --max with --all) and a call with neither space ids nor --all."""
    if args.all and args.spaces:
        raise argparse.ArgumentError(None, "give space ids or --all, not both")
    if args.max is not None and not args.all:
        raise argparse.ArgumentError(None, "argument --max: only with --all")
    if args.seed is not None and not args.full:
        raise argparse.ArgumentError(None, "argument --seed: only with --full")
    if args.all and args.max is not None and args.max < 0:
        raise argparse.ArgumentError(None, "argument --max: must be at least 0 with --all")
    if not (args.all or args.spaces):
        raise _Refused("give a space id or --all")


def cmd_verify(args):
    _check_verify(args)
    ok, seed = True, args.seed or 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RestrictedGradingWarning)
        if args.all:
            bound = 3 if args.max is None else args.max
            # every quadric:m,n with m, n >= 1 and p = m // 2, q = n // 2 <= bound
            for m in range(1, 2 * bound + 2):
                for n in range(1, 2 * bound + 2):
                    ok = _verify_one("quadric:%d,%d" % (m, n), seed, args.full) and ok
        else:
            for space_id in args.spaces:
                ok = _verify_one(space_id, seed, args.full) and ok
    print("overall: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_atlas_emit(args):
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


def cmd_atlas_load(args):
    with open(args.file, "rb") as fh:
        doc = load_atlas(fh.read())
    args.outcomes = ()  # the atlas is read: an OSError from here on is stdout's
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
    args = None
    try:
        if _dash_expression(argv):
            raise _Refused("an expression that starts with '-' needs '--' before it: "
                           "c2quadrics reduce SPACE -- EXPR")
        args = build_parser().parse_args(_joined_window(argv))
        with warnings.catch_warnings():
            warnings.showwarning = _one_line_warning
            status = args.run(args)
        sys.stdout.flush()  # a failing stdout shows here, not at exit
        return status
    except SystemExit as exc:  # -h or --help, after printing the help
        return exc.code
    except tuple(row[0] for row in getattr(args, "outcomes", ()) + _OUTCOMES) as exc:
        rows = getattr(args, "outcomes", ()) + _OUTCOMES
        status, template = next(row[1:] for row in rows if isinstance(exc, row[0]))
        # a message with a line break in it stays on the one line
        print(" ".join(template.format(exc=exc, args=args).splitlines()), file=sys.stderr)
        return status
    except OSError as exc:
        # stdout failed: what it still holds goes to devnull, not to the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed pipe needs no word
            print("cannot write stdout: %s" % exc.strerror, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
