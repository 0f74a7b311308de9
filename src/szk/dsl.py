"""Textual surface syntax for group descriptions and p.p. formulas.

Grammar (whitespace insensitive, ASCII):

    group    := term ("+" term)* | "0"
    term     := summand | "Z(" nat ")" ("^" mult)? | "Q" ("^" mult)?
              | "tail(" prime ("," mult)? ("," "cutoff" "=" nat)? ")"
              | "forall_p{" summand ("+" summand)* "}"
    summand  := ("Z(" x "^" nat ")" | "Z(" x "^inf)" | "Z_(" x ")") ("^" mult)?
                # x is a prime in a term, "P" inside forall_p{}
    mult     := nat | "w"
    formula  := "top" | fatom ("&" fatom)*
    fatom    := "tor(" nat ")" | "div(" prime "," nat "," nat ")"

A token is a plain string, read from one ``findall`` of ``_TOKEN_RE``; the
parser keeps token indices, and builds a ``SourceSpan`` only for a
``ParseError``, by scanning the text again with the same pattern.
"""

from __future__ import annotations

import itertools
import re
from typing import List, Optional, Union

from .core import (OMEGA, Div, Mult, PPFormula, Record, SzmielewDescription,
                   TailSpec, Tor, _violations, atom_sort_key, check_atom,
                   direct_sum, is_omega, is_prime, make_description,
                   make_prime_tail, prime_factors)


class SourceSpan(Record):
    start: int
    end: int


class ParseError(ValueError):
    """Syntax or semantic error with the offending input span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__("%s (at %d..%d)" % (message, span.start, span.end))
        self.message = message
        self.span = span


# One token after optional whitespace: a number (the only token that
# str.isdecimal accepts), a name, or one punctuation mark.
_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[(){}^+,=&])")


def _tokenize(text: str) -> List[str]:
    """The tokens of ``text``, then ``""`` for the end of input."""
    toks = _TOKEN_RE.findall(text)
    # findall skips what no token starts with: the tokens must cover every
    # non-whitespace character
    if len("".join(toks)) != len("".join(text.split())):
        pos = 0
        while (m := _TOKEN_RE.match(text, pos)) is not None:
            pos = m.end()
        at = len(text) - len(text[pos:].lstrip())
        raise ParseError("unexpected character %r" % text[at], SourceSpan(at, at + 1))
    toks.append("")
    return toks


def _span(text: str, i: int) -> SourceSpan:
    """The span of token ``i`` of ``text``; the end of input past its last."""
    m = next(itertools.islice(_TOKEN_RE.finditer(text), i, None), None)
    return SourceSpan(len(text), len(text)) if m is None else SourceSpan(m.start(1), m.end())


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.primes = set()     # every base checked prime so far

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, at: Optional[int] = None):
        """Raise at token index ``at``, by default the current token."""
        raise ParseError(message, _span(self.text, self.i if at is None else at))

    def expect(self, text: str) -> str:
        if self.peek() != text:
            self.fail("expected %r" % text)
        return self.next()

    def nat(self) -> int:
        if not self.peek().isdecimal():
            self.fail("expected a number")
        return int(self.next())

    def prime(self) -> int:
        at = self.i
        n = self.nat()
        if n not in self.primes:
            if not is_prime(n):
                self.fail("%d is not prime" % n, at)
            self.primes.add(n)
        return n

    def mult(self) -> Mult:
        t = self.peek()
        if t == "w":
            self.next()
            return OMEGA
        if t.isdecimal():
            return self.nat()
        self.fail("expected a multiplicity (number or w)")

    def opt_mult(self) -> Mult:
        if self.peek() == "^":
            self.next()
            return self.mult()
        return 1

    # -- groups -------------------------------------------------------------

    def group(self) -> SzmielewDescription:
        if self.peek() == "0":
            self.next()
            self.end()
            return make_description()
        terms = [self.term()]
        while self.peek() == "+":
            self.next()
            terms.append(self.term())
        self.end()
        try:
            return direct_sum(*terms)
        except ValueError as e:     # too many raised tail cutoffs
            raise ParseError(str(e), SourceSpan(0, len(self.text)))

    def term(self) -> SzmielewDescription:
        at = self.i
        t = self.peek()
        if t == "Q":
            self.next()
            return make_description(q_mult=self.opt_mult())
        if t == "Z" and self.toks[at + 1:at + 4:2] == ["(", ")"]:
            # shorthand Z(q) for a cyclic group of prime-power order q: one
            # token, never the end of input, between the parentheses
            self.i += 2
            q = self.nat()
            self.expect(")")
            fac = prime_factors(q) if q > 1 else {}
            if len(fac) != 1:
                self.fail("%d is not a prime power" % q, at + 2)
            ((p, n),) = fac.items()
            return make_description(cyclic={(p, n): self.opt_mult()})
        if t in ("Z", "Z_"):
            return self.summand(in_shape=False)
        if t == "tail":
            self.next()
            self.expect("(")
            p = self.prime()
            m: Mult = 1
            cutoff = 0
            if self.peek() == "," and self.toks[self.i + 1] != "cutoff":
                self.next()
                m = self.mult()
            if self.peek() == ",":
                self.next()
                self.expect("cutoff")
                self.expect("=")
                cutoff = self.nat()
            if m == 0:
                self.fail("tail multiplicity must be >= 1", at)
            self.expect(")")
            return make_description(cyclic_tail={p: TailSpec(cutoff, m)})
        if t == "forall_p":
            self.next()
            self.expect("{")
            summands = [self.summand(in_shape=True)]
            while self.peek() == "+":
                self.next()
                summands.append(self.summand(in_shape=True))
            self.expect("}")
            return direct_sum(*summands)
        self.fail("expected a group term")

    def summand(self, in_shape: bool) -> SzmielewDescription:
        """Z_(x), Z(x^inf) or Z(x^n), then an optional ^mult: x is a prime,
        or P inside forall_p{}, where the summand is a shape for every
        unlisted prime."""
        if self.peek() not in ("Z", "Z_"):
            # a group term reaches here only at Z or Z_
            self.fail("expected Z(P^n), Z(P^inf) or Z_(P) inside forall_p{}")
        field = "tf" if self.next() == "Z_" else "div"
        self.expect("(")
        p = self.expect("P") if in_shape else self.prime()
        key = p
        if field == "div":
            self.expect("^")
            if self.peek() == "inf":
                self.next()
            else:
                at = self.i
                n = self.nat()
                if n < 1:
                    self.fail("exponent must be >= 1", at)
                field, key = "cyclic", (p, n)
        self.expect(")")
        m = self.opt_mult()
        if not in_shape:
            return make_description(**{field: {key: m}})
        shape = (make_prime_tail({n: m}) if field == "cyclic"
                 else make_prime_tail(**{field + "_mult": m}))
        return make_description(prime_tail=shape)

    # -- formulas -----------------------------------------------------------

    def formula(self) -> PPFormula:
        if self.peek() == "top":
            self.next()
            self.end()
            return PPFormula.top()
        atoms = [self.fatom()]
        while self.peek() == "&":
            self.next()
            atoms.append(self.fatom())
        self.end()
        return PPFormula.of(*atoms)

    def fatom(self):
        t = self.peek()
        if t == "tor":
            self.next()
            self.expect("(")
            at = self.i
            m = self.nat()
            self.expect(")")
            a = Tor(m)
            msg = check_atom(a)
            if msg:
                self.fail(msg, at)
            return a
        if t == "div":
            self.next()
            self.expect("(")
            p = self.prime()
            self.expect(",")
            r = self.nat()
            self.expect(",")
            at = self.i
            s = self.nat()
            self.expect(")")
            a = Div(p, r, s)
            msg = check_atom(a)
            if msg:
                self.fail(msg, at)
            return a
        self.fail("expected tor(...) or div(...)")

    def end(self):
        if self.peek():
            self.fail("trailing input")


def parse_group(text: str) -> SzmielewDescription:
    parser = _Parser(text)
    desc = parser.group()
    # the parser has checked most bases already; each is checked once
    errs = _violations(desc, lambda p: p in parser.primes or is_prime(p))
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
