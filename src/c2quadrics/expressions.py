"""Expression grammar for the command line.

Symbols (ASCII names for the classical notation):

    z0 z1 cw cx x divw divx      ring generators (level C2/C2)
    e xi k g                     point-ring coefficients; e^-n*k allowed
    iota zeta c y                level-e classes (iota, zeta invertible)
    t(EXPR)                      transfer of a level-e expression

Grammar:  expr := term (('+'|'-') term)* ;  term := factor ('*' factor)* ;
factor := atom ['^' int] ;  atom := int | symbol | t(expr) | (expr).
Parenthesized sums may be raised to nonnegative powers; negative powers
are allowed on z0, z1, iota, zeta and on e when a matching k factor makes
the pair e^-n*k a point-ring class.
"""

from __future__ import annotations

import re

from .coefficients import G_PT, PointElt, negkappa, pos
from .rewrite import GENERATORS, RingElement


class ExprError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|\^|\*|\+|\-|\(|\)|,)")

LEVELE = {"iota": 0, "zeta": 1, "c": 2, "y": 3}


def tokenize(text):
    out, pos_ = [], 0
    while pos_ < len(text):
        m = _TOKEN.match(text, pos_)
        if not m:
            raise ExprError("bad character at %r" % text[pos_:pos_ + 8])
        out.append(m.group(1))
        pos_ = m.end()
    return out


class _Term:
    """A product in flight: generator exponents, point-coefficient parts,
    level-e exponents, and already-evaluated element factors."""

    def __init__(self):
        self.coeff = 1
        self.gens = [0] * 7
        self.e_exp = 0
        self.xi_exp = 0
        self.kappa = 0
        self.levele = [0, 0, 0, 0]
        self.factors = []  # RingElements multiplied in at the end

    def mul_symbol(self, name, power):
        if name in GENERATORS:
            if power < 0 and name not in ("z0", "z1"):
                raise ExprError("negative powers of %s are not classes" % name)
            self.gens[GENERATORS.index(name)] += power
        elif name == "e":
            self.e_exp += power
        elif name == "xi":
            if power < 0:
                raise ExprError("xi is not invertible")
            self.xi_exp += power
        elif name == "k":
            if power < 0:
                raise ExprError("k is not invertible")
            self.kappa += power
        elif name == "g":
            if power < 0:
                raise ExprError("g is not invertible")
            if power:  # g^2 = 2g
                self.factors.append(("pt", G_PT * (1 << (power - 1))))
        elif name in LEVELE:
            if power < 0 and name in ("c", "y"):
                raise ExprError("%s is not invertible" % name)
            self.levele[LEVELE[name]] += power
        else:
            raise ExprError("unknown symbol %r" % name)

    def point_coeff(self):
        coeff = PointElt.from_int(self.coeff)
        if self.xi_exp:
            coeff = coeff * PointElt.monomial(pos(0, self.xi_exp))
        if self.e_exp < 0 and self.kappa < 1:
            raise ExprError("e^-n is a class only together with k")
        if self.e_exp > 0:
            coeff = coeff * PointElt.monomial(pos(self.e_exp, 0))
        if self.kappa:  # k^2 = 2k, so e^-n k^j = 2^(j-1) e^-n k
            coeff = coeff * PointElt.monomial(negkappa(max(-self.e_exp, 0))) * (1 << (self.kappa - 1))
        return coeff

    def evaluate(self, pres):
        coeff = self.point_coeff()
        has_gens = any(self.gens)
        has_e = any(self.levele)
        out = None
        if has_e:
            a, b, d, eps = self.levele
            # a level-e key holds y at most once: in the binate model
            # (a, b, d, 2) is the key of t(y), so the model multiplies in
            # the further y factors, up to a fixed point such as 0
            out = pres.levele_elt({(a, b, d, min(eps, 1)): 1})
            for _ in range(eps - 1):
                out, last = pres.mul(out, pres.levele_elt({(0, 0, 0, 1): 1})), out
                if out == last:
                    break
        if has_gens or out is None:
            mono = tuple(self.gens)
            top = pres.normal_form(RingElement(pres, "top", c2={mono: coeff}))
            out = top if out is None else pres.mul(top, out)
        else:
            out = out.scale(coeff) if isinstance(coeff, int) else pres.mul(
                pres.coeff_elt(coeff), out
            )
        for kind, f in self.factors:
            if kind == "pt":
                out = out.scale(f)
            else:
                out = pres.mul(out, f)
        return out


# the deepest nesting of (...) and t(...) that parses: at four frames of
# the recursive descent per level, clear of Python's recursion limit
_MAX_DEPTH = 200


class Parser:
    def __init__(self, pres, text):
        self.pres = pres
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of input" + (", expected %r" % expect if expect else ""))
        if expect is not None and tok != expect:
            raise ExprError("expected %r, found %r" % (expect, tok))
        self.pos += 1
        return tok

    def parse(self):
        out = self.expr()
        if self.peek() is not None:
            raise ExprError("trailing input at %r" % self.peek())
        return out

    def expr(self):
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            nxt = self.term()
            out = out + nxt if op == "+" else out - nxt
        return out

    def term(self):
        t = _Term()
        self.term_factor(t)
        while self.peek() == "*":
            self.take()
            self.term_factor(t)
        return t.evaluate(self.pres)

    def term_factor(self, t):
        while self.peek() == "-":
            self.take()
            t.coeff = -t.coeff
        atom = self.atom_term()
        power = 1
        if self.peek() == "^":
            self.take()
            power = self.signed_int()
        kind, val = atom
        if kind == "int":
            if power < 0:
                raise ExprError("integers are not invertible here")
            t.coeff *= val ** power
        elif kind == "sym":
            t.mul_symbol(val, power)
        else:
            if power < 0:
                raise ExprError("cannot invert a general expression")
            t.factors.append(("elt", val ** power))

    def signed_int(self):
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        tok = self.take()
        if not tok.isdigit():
            raise ExprError("expected integer exponent, found %r" % tok)
        return -int(tok) if neg else int(tok)

    def atom_term(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of input")
        self.take()
        if tok.isdigit():
            return ("int", int(tok))
        if tok not in ("(", "t"):
            return ("sym", tok)
        if tok == "t":
            self.take("(")
        if self.depth == _MAX_DEPTH:
            raise ExprError("parentheses nested deeper than %d levels" % _MAX_DEPTH)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.take(")")
        if tok == "(":
            return ("elt", inner)
        if inner.level != "e":
            raise ExprError("t(...) needs a level-e argument")
        return ("elt", self.pres.tau_of_levele(inner))


def parse_expression(pres, text):
    """Parse and normalize an expression in the presentation's ring."""
    return pres.normal_form(Parser(pres, text).parse())
