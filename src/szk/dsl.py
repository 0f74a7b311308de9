"""Textual surface syntax for group descriptions and p.p. formulas.

Grammar (whitespace insensitive, ASCII):

    group    := term ("+" term)* | "0"
    term     := atom ("^" mult)?
    atom     := "Z(" prime "^" nat ")" | "Z(" prime "^inf)" | "Z_(" prime ")"
              | "Q" | "tail(" prime ("," mult)? ("," "cutoff" "=" nat)? ")"
              | "forall_p{" shape "}"
    shape    := shapeterm ("+" shapeterm)*        # uses "P" for the prime
    mult     := nat | "w"
    formula  := "top" | fatom ("&" fatom)*
    fatom    := "tor(" nat ")" | "div(" prime "," nat "," nat ")"
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .core import (OMEGA, Div, Mult, PPFormula, PrimeTailShape,
                   SzmielewDescription, TailSpec, Tor, atom_sort_key,
                   check_atom, direct_sum, is_omega, is_prime,
                   make_description, make_prime_tail, mult_add, prime_factors,
                   validate)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


class ParseError(ValueError):
    """Syntax or semantic error with the offending input span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__("%s (at %d..%d)" % (message, span.start, span.end))
        self.message = message
        self.span = span


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([(){}^+,=&]))")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "punct", "eof"
    text: str
    span: SourceSpan


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError("unexpected character %r" % rest[0], SourceSpan(at, at + 1))
        pos = m.end()
        span = SourceSpan(m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3), pos)
        if m.group(1):
            out.append(_Token("num", m.group(1), span))
        elif m.group(2):
            out.append(_Token("name", m.group(2), span))
        else:
            out.append(_Token("punct", m.group(3), span))
    out.append(_Token("eof", "", SourceSpan(len(text), len(text))))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: Optional[_Token] = None):
        raise ParseError(message, (tok or self.peek()).span)

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.text != text:
            self.fail("expected %r" % text)
        return self.next()

    def nat(self) -> int:
        t = self.peek()
        if t.kind != "num":
            self.fail("expected a number")
        return int(self.next().text)

    def prime(self) -> int:
        t = self.peek()
        n = self.nat()
        if not is_prime(n):
            self.fail("%d is not prime" % n, t)
        return n

    def mult(self) -> Mult:
        t = self.peek()
        if t.text == "w":
            self.next()
            return OMEGA
        if t.kind == "num":
            return self.nat()
        self.fail("expected a multiplicity (number or w)")

    def opt_mult(self) -> Mult:
        if self.peek().text == "^":
            self.next()
            return self.mult()
        return 1

    # -- groups -------------------------------------------------------------

    def group(self) -> SzmielewDescription:
        if self.peek().text == "0":
            self.next()
            self.end()
            return make_description()
        desc = self.term()
        while self.peek().text == "+":
            self.next()
            desc = direct_sum(desc, self.term())
        self.end()
        return desc

    def term(self) -> SzmielewDescription:
        t = self.peek()
        if t.text == "Q":
            self.next()
            return make_description(q_mult=self.opt_mult())
        if t.text == "Z_":
            self.next()
            self.expect("(")
            p = self.prime()
            self.expect(")")
            return make_description(tf={p: self.opt_mult()})
        if t.text == "Z":
            self.next()
            self.expect("(")
            if self.toks[self.i + 1].text == ")":
                # shorthand Z(q) for a cyclic group of prime-power order q
                qtok = self.peek()
                q = self.nat()
                self.expect(")")
                fac = prime_factors(q) if q > 1 else {}
                if len(fac) != 1:
                    self.fail("%d is not a prime power" % q, qtok)
                ((p, n),) = fac.items()
                return make_description(cyclic={(p, n): self.opt_mult()})
            p = self.prime()
            self.expect("^")
            if self.peek().text == "inf":
                self.next()
                self.expect(")")
                return make_description(div={p: self.opt_mult()})
            ntok = self.peek()
            n = self.nat()
            if n < 1:
                self.fail("exponent must be >= 1", ntok)
            self.expect(")")
            return make_description(cyclic={(p, n): self.opt_mult()})
        if t.text == "tail":
            self.next()
            self.expect("(")
            p = self.prime()
            m: Mult = 1
            cutoff = 0
            if self.peek().text == ",":
                self.next()
                if self.peek().text != "cutoff":
                    m = self.mult()
                    if self.peek().text == ",":
                        self.next()
                        self.expect("cutoff")
                        self.expect("=")
                        cutoff = self.nat()
                else:
                    self.expect("cutoff")
                    self.expect("=")
                    cutoff = self.nat()
            if m == 0:
                self.fail("tail multiplicity must be >= 1", t)
            self.expect(")")
            return make_description(cyclic_tail={p: TailSpec(cutoff, m)})
        if t.text == "forall_p":
            self.next()
            self.expect("{")
            shape = self.shape()
            self.expect("}")
            return make_description(prime_tail=shape)
        self.fail("expected a group term")

    def shape(self) -> PrimeTailShape:
        pattern: Dict[int, Mult] = {}
        tf_m: Mult = 0
        div_m: Mult = 0
        while True:
            t = self.peek()
            if t.text == "Z_":
                self.next()
                self.expect("(")
                self.expect("P")
                self.expect(")")
                tf_m = mult_add(tf_m, self.opt_mult())
            elif t.text == "Z":
                self.next()
                self.expect("(")
                self.expect("P")
                self.expect("^")
                if self.peek().text == "inf":
                    self.next()
                    self.expect(")")
                    div_m = mult_add(div_m, self.opt_mult())
                else:
                    ntok = self.peek()
                    n = self.nat()
                    if n < 1:
                        self.fail("exponent must be >= 1", ntok)
                    self.expect(")")
                    pattern[n] = mult_add(pattern.get(n, 0), self.opt_mult())
            else:
                self.fail("expected Z(P^n), Z(P^inf) or Z_(P) inside forall_p{}")
            if self.peek().text != "+":
                break
            self.next()
        return make_prime_tail(pattern, tf_m, div_m)

    # -- formulas -----------------------------------------------------------

    def formula(self) -> PPFormula:
        if self.peek().text == "top":
            self.next()
            self.end()
            return PPFormula.top()
        atoms = [self.fatom()]
        while self.peek().text == "&":
            self.next()
            atoms.append(self.fatom())
        self.end()
        return PPFormula.of(*atoms)

    def fatom(self):
        t = self.peek()
        if t.text == "tor":
            self.next()
            self.expect("(")
            mtok = self.peek()
            m = self.nat()
            self.expect(")")
            a = Tor(m)
            msg = check_atom(a)
            if msg:
                self.fail(msg, mtok)
            return a
        if t.text == "div":
            self.next()
            self.expect("(")
            p = self.prime()
            self.expect(",")
            r = self.nat()
            self.expect(",")
            stok = self.peek()
            s = self.nat()
            self.expect(")")
            a = Div(p, r, s)
            msg = check_atom(a)
            if msg:
                self.fail(msg, stok)
            return a
        self.fail("expected tor(...) or div(...)")

    def end(self):
        if self.peek().kind != "eof":
            self.fail("trailing input")


def parse_group(text: str) -> SzmielewDescription:
    desc = _Parser(text).group()
    errs = validate(desc)
    if errs:
        raise ParseError("; ".join(errs), SourceSpan(0, len(text)))
    return desc


def parse_formula(text: str) -> PPFormula:
    return _Parser(text).formula()


# ---------------------------------------------------------------------------
# Rendering


def _render_mult(m: Mult) -> str:
    if m == 1:
        return ""
    if is_omega(m):
        return "^w"
    return "^%d" % m


def render_group(desc: SzmielewDescription) -> str:
    terms: List[str] = []
    for (p, n), m in desc.cyclic:
        terms.append("Z(%d^%d)%s" % (p, n, _render_mult(m)))
    for p, spec in desc.cyclic_tail:
        args = str(p)
        if spec.mult != 1:
            args += "," + ("w" if is_omega(spec.mult) else str(spec.mult))
        if spec.cutoff != 0:
            args += ",cutoff=%d" % spec.cutoff
        terms.append("tail(%s)" % args)
    for p, m in desc.tf:
        terms.append("Z_(%d)%s" % (p, _render_mult(m)))
    for p, m in desc.div:
        terms.append("Z(%d^inf)%s" % (p, _render_mult(m)))
    if desc.q_mult != 0:
        terms.append("Q%s" % _render_mult(desc.q_mult))
    if desc.prime_tail is not None:
        shape = desc.prime_tail
        sterms = ["Z(P^%d)%s" % (n, _render_mult(m)) for n, m in shape.cyclic_pattern]
        if shape.tf_mult != 0:
            sterms.append("Z_(P)%s" % _render_mult(shape.tf_mult))
        if shape.div_mult != 0:
            sterms.append("Z(P^inf)%s" % _render_mult(shape.div_mult))
        terms.append("forall_p{%s}" % " + ".join(sterms))
    if not terms:
        return "0"
    return " + ".join(terms)


def render_formula(f: PPFormula) -> str:
    if f.is_top:
        return "top"
    parts = []
    for a in sorted(f.atoms, key=atom_sort_key):
        if isinstance(a, Tor):
            parts.append("tor(%d)" % a.m)
        else:
            parts.append("div(%d,%d,%d)" % (a.p, a.r, a.s))
    return " & ".join(parts)


def render(x: Union[SzmielewDescription, PPFormula]) -> str:
    if isinstance(x, PPFormula):
        return render_formula(x)
    return render_group(x)
