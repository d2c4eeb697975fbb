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
the pair e^-n*k a point-ring class.  The integer factor of a term (its
integer powers and the 2^(j-1) of k^j and g^j) may not pass 2^25 bits.
"""

from __future__ import annotations

import math
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


_MAX_BITS = 1 << 25  # for the integer factor of a term, checked before it is built


def _int(tok):
    try:
        return int(tok)
    except ValueError:  # the int-to-str digit limit
        raise ExprError("an integer of %d digits is past the digit limit" % len(tok)) from None


class _Term:
    """A product in flight: integer powers, point-coefficient exponents,
    generator and level-e exponents, and the parenthesised and t(...)
    factors multiplied in at the end."""

    def __init__(self):
        self.ints = []  # (integer, power) pairs
        self.gens = [0] * 7
        self.e_exp = 0
        self.xi_exp = 0
        self.kappa = 0
        self.g = 0
        self.levele = [0, 0, 0, 0]
        self.factors = []

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
            self.g += power
        elif name in LEVELE:
            if power < 0 and name in ("c", "y"):
                raise ExprError("%s is not invertible" % name)
            self.levele[LEVELE[name]] += power
        else:
            raise ExprError("unknown symbol %r" % name)

    def point_coeff(self):
        # |v| <= 2^b for b = (|v| - 1).bit_length(), so v^n has at most b*n + 1 bits
        bits = sum(max(abs(v) - 1, 0).bit_length() * n for v, n in self.ints)
        if bits + max(self.kappa - 1, 0) + max(self.g - 1, 0) > _MAX_BITS:
            raise ExprError("the integer factor of a term is past %d bits" % _MAX_BITS)
        coeff = PointElt.from_int(math.prod(v ** n for v, n in self.ints))
        if self.xi_exp:
            coeff = coeff * PointElt.monomial(pos(0, self.xi_exp))
        if self.e_exp < 0 and self.kappa < 1:
            raise ExprError("e^-n is a class only together with k")
        if self.e_exp > 0:
            coeff = coeff * PointElt.monomial(pos(self.e_exp, 0))
        if self.kappa:  # k^2 = 2k, so e^-n k^j = 2^(j-1) e^-n k
            coeff = coeff * PointElt.monomial(negkappa(max(-self.e_exp, 0))) * (1 << (self.kappa - 1))
        return coeff

    def mul_power(self, x, n):
        """Join x^n = v^n * u^n (``RingElement.int_split``): u^n as a factor,
        and (v, n) to ``ints`` unless u^n is 0, bounded before it is built."""
        v, u = x.int_split()
        f = u ** n
        self.factors.append(f)
        if not f.is_zero():
            self.ints.append((v, n))

    def evaluate(self, pres):
        out = pres.normal_form(RingElement(pres, "top", c2={tuple(self.gens): self.point_coeff()}))
        if any(self.levele):
            # y^eps is a power: in the binate model (a, b, d, 2) is t(y)
            a, b, d, eps = self.levele
            out = pres.mul(out, pres.levele_elt({(a, b, d, 0): 1}))
            out = pres.mul(out, pres.levele_elt({(0, 0, 0, 1): 1}) ** eps) if eps else out
        for f in self.factors:
            out = pres.mul(out, f)
        # g last: g^j = 2^(j-1) g scales the class, and taken into the
        # coefficient first it would let a transfer witness absorb a non-class
        return out.scale(G_PT * (1 << (self.g - 1))) if self.g else out


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
            t.ints.append((-1, 1))
        kind, val = self.atom_term()
        power = 1
        if self.peek() == "^":
            self.take()
            power = self.signed_int()
        if kind == "sym":
            t.mul_symbol(val, power)
        elif power < 0:
            raise ExprError("integers are not invertible here" if kind == "int"
                            else "cannot invert a general expression")
        elif kind == "int":
            t.ints.append((val, power))
        else:
            t.mul_power(val, power)

    def signed_int(self):
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        tok = self.take()
        if not tok.isdigit():
            raise ExprError("expected integer exponent, found %r" % tok)
        return -_int(tok) if neg else _int(tok)

    def atom_term(self):
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of input")
        self.take()
        if tok.isdigit():
            return ("int", _int(tok))
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
