"""Surface syntax: parsing, rendering, round trips, error reporting."""

import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szk import corpus
from szk.core import (OMEGA, Div, Mult, PPFormula, PrimeTailShape,
                      SzmielewDescription, TailSpec, Tor, check_atom,
                      is_prime, make_description, make_prime_tail, mult_add,
                      prime_factors, validate)
from szk.dsl import (ParseError, SourceSpan, parse_formula, parse_group,
                     render, render_formula, render_group)
from tests.test_core import pairwise_sum


class TestParseGroup:
    def test_zero_group(self):
        assert parse_group("0").is_trivial

    def test_cyclic_with_multiplicities(self):
        d = parse_group("Z(2^3)^w + Z(3^1)^2 + Z(2^3)")
        assert d.cyclic_dict() == {(2, 3): OMEGA, (3, 1): 2}

    def test_prime_power_shorthand(self):
        assert parse_group("Z(8)") == parse_group("Z(2^3)")
        assert parse_group("Z(9)^w") == parse_group("Z(3^2)^w")

    def test_local_and_divisible_and_q(self):
        d = parse_group("Z_(5)^2 + Z(7^inf)^w + Q^w")
        assert d.tf_dict() == {5: 2}
        assert d.div_dict()[7] is OMEGA
        assert d.q_mult is OMEGA

    def test_tail_forms(self):
        assert parse_group("tail(2)").tail_dict()[2] == TailSpec(0, 1)
        assert parse_group("tail(2,w)").tail_dict()[2] == TailSpec(0, OMEGA)
        assert parse_group("tail(2,cutoff=3)").tail_dict()[2] == TailSpec(3, 1)
        assert parse_group("tail(2,2,cutoff=3)").tail_dict()[2] == TailSpec(3, 2)

    def test_prime_tail_shape(self):
        d = parse_group("forall_p{Z(P^2)^w + Z_(P) + Z(P^inf)^2}")
        shape = d.prime_tail
        assert shape.pattern_dict() == {2: OMEGA}
        assert shape.tf_mult == 1 and shape.div_mult == 2

    def test_repeated_terms_accumulate(self):
        d = parse_group("Z(2^1) + Z(2^1)^w")
        assert d.cyclic_dict()[(2, 1)] is OMEGA


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "Z(6)",                   # not a prime power
        "Z(4^2)",                 # composite base
        "Z(2^0)",                 # zero exponent
        "tail(9)",                # composite tail prime
        "Z(2^3",                  # unbalanced
        "Z(2^3) Z(3^1)",          # missing +
        "Q + ",                   # dangling operator
        "tail(2,0)",              # zero tail multiplicity
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_group(text)

    def test_low_tail_cutoff_is_repaired_by_the_sum(self):
        # the direct sum raises the cutoff over the explicit block and turns
        # the covered stretch of the tail into explicit blocks
        d = parse_group("Z(2^5) + tail(2,cutoff=1)")
        assert d.tail_dict()[2].cutoff == 5
        assert d.cyclic_dict() == {(2, 2): 1, (2, 3): 1, (2, 4): 1, (2, 5): 2}

    def test_error_carries_span(self):
        with pytest.raises(ParseError) as e:
            parse_group("Z(2^3) + Z(15)")
        assert e.value.span.start >= 9
        assert "prime power" in e.value.message


class TestParseFormula:
    def test_atoms(self):
        f = parse_formula("tor(12) & div(2,3,1)")
        assert f.atoms == (Tor(12), Div(2, 3, 1))

    def test_top(self):
        assert parse_formula("top").is_top

    @pytest.mark.parametrize("text", [
        "tor(0)", "div(4,2,1)", "div(2,2,2)", "div(2,1,2)", "tor(2) &",
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_formula(text)


class TestRender:
    def test_group_examples(self):
        d = parse_group("Z(2^3)^w + tail(3,cutoff=1) + Z_(5)^2 + Q")
        assert render_group(d) == "Z(2^3)^w + tail(3,cutoff=1) + Z_(5)^2 + Q"

    def test_trivial_group(self):
        assert render_group(make_description()) == "0"

    def test_formula_sorted(self):
        f = parse_formula("div(2,3,1) & tor(4)")
        assert render_formula(f) == "tor(4) & div(2,3,1)"

    def test_dispatch(self):
        assert render(parse_group("Q")) == "Q^1".replace("^1", "")
        assert render(parse_formula("top")) == "top"


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_group_round_trip(self, seed, finite_only):
        rng = random.Random(seed)
        d = corpus.random_description(rng, finite_dp_only=finite_only)
        assert parse_group(render_group(d)) == d

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_formula_round_trip(self, seed):
        rng = random.Random(seed)
        f = corpus.random_formula(rng)
        assert parse_formula(render_formula(f)) == f

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    def test_parser_never_crashes(self, text):
        for fn in (parse_group, parse_formula):
            try:
                fn(text)
            except ParseError:
                pass


# U+0663 is a decimal digit and U+00B2 a digit that is not decimal; U+2003
# and \x1f are whitespace both to str.isspace and to \s
SPECIAL_TEXTS = [
    "", "   ", "0", " 0 ", "00", "0 + Q", "Z(", "Z( ", "Z(2", "Z())", "Z(w)",
    "Z(\u0663^1)", "Z(2^\u0663)", "Z(\u0663)", "Z(2^1)^\u0663\u0663",
    "Z(2^1)\u2003+\x1fQ", "\tZ(2^1)\t+\tZ_(3)\t", "Z(2^1)\x1f",
    "Z(2^\u00b2)", "Z(2^1)^0", "Q^0", "Z(2^5)^0 + tail(2,cutoff=1)",
    "tail(2,cutoff=1) + Z(2^5)^0", "tail(2) + tail(2,cutoff=3) + tail(2,w)",
    "tail(2,0)", "tail(2,cutoff=)", "tail(2,2,cutoff=3)^2",
    "forall_p{Z(P^1)} + forall_p{Z_(P) + Z(P^inf)^w}", "forall_p{Z(P^0)}",
    "forall_p{}", "forall_p{Z(P)}", "forall_p{Z(2^1)}", "forall_p{Q}",
    "forall_p{Z(P^1)^0 + Z_(P)}", "forall_p{Z(P^inf) + }", "forall_p{Z_(P)^0}",
    "forall_p{Z(P^2) + Z(P^2)^w + Z_(P)^2 + Z_(P)^3}", "forall_p{Z(P^inf)",
    "forall_p{Z(P^1)}^2", "Z(P^1)", "Z_(P)", "Z(2^P)", "Z(8^1)", "Z(8)^0",
    "Z(2^1)^", "tail(2,w,cutoff=3)", "tail(2,cutoff=3,w)", "tail(2,3,4)",
    "tail(2,,cutoff=1)", "tail(2,", "tail(2,cutoff=1,cutoff=2)",
    "Z(4)", "Z(1)", "Z(0)", "Z(2^0)", "Z(3300000000000000000000000^1)",
    "top", "top & tor(2)", "tor(\u0663) & div(2,3,1)", "tor(0)", "div(2,1,1)",
    "div(4,2,1)", "tor(2) &", "tor(2) @", "@",
]

# pieces the mutations insert: tokens, digits, whitespace and characters no
# token starts with
PIECES = ["Z", "Z_", "(", ")", "^", "+", ",", "=", "&", "{", "}", "P", "Q",
          "w", "inf", "tail", "cutoff", "forall_p", "tor", "div", "top", "_",
          "x", "0", "1", "2", "3", "5", "7", "9", "12", "\u0663", "\u00b2", " ",
          "\t", "\u2003", "\x1f", "@", "-", "Z(2^1)", "tail(3,w)"]


def outcome(parse, text):
    """The parsed value, or the error's type, message and span."""
    try:
        return ("value", parse(text))
    except ParseError as e:
        return ("ParseError", e.message, (e.span.start, e.span.end))
    except (ValueError, IndexError) as e:
        return (type(e).__name__, str(e))


def ref_outcome(parse, text):
    """The reference's outcome, with its one known fault mended: a group text
    that ends right after "Z(" raised IndexError; it now fails as any other
    missing number does, at the end of the input."""
    out = outcome(parse, text)
    if out[0] == "IndexError":
        return ("ParseError", "expected a number", (len(text), len(text)))
    return out


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        at = rng.randint(0, len(text))
        if op == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif op == 1:
            text = text[:at] + text[at + rng.randint(1, 3):]
        elif op == 2:
            text = text[:at]
        elif op == 3:
            text = text[:at] + " + " + text
        else:
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(1, 12)))
    return text


class TestMatchesReferenceParser:
    """The string tokenizer and the n-ary sum against the token-object parser
    and the pairwise sum they replaced: the same value, or the same error
    message and span."""

    def corpus_texts(self):
        rng = random.Random(7)
        groups = [render_group(corpus.random_description(rng, finite_dp_only=i % 2 == 0))
                  for i in range(400)]
        formulas = [render_formula(corpus.random_formula(rng)) for _ in range(200)]
        return groups, formulas

    @staticmethod
    def check(text, group=True, formula=True):
        """Compare on ``text``; the outcome of the first parser run."""
        outs = []
        for parse, ref, run in ((parse_group, ref_parse_group, group),
                                (parse_formula, ref_parse_formula, formula)):
            if run:
                outs.append(outcome(parse, text))
                assert outs[-1] == ref_outcome(ref, text), (parse, text)
        return outs[0]

    def test_corpus_and_special_texts(self):
        groups, formulas = self.corpus_texts()
        for text in groups + formulas + SPECIAL_TEXTS:
            self.check(text)

    def test_seeded_mutations(self):
        # a mutated group goes to parse_group, a mutated formula to
        # parse_formula, and a special text to both
        rng = random.Random(1018)
        groups, formulas = self.corpus_texts()
        bases = ([(t, True, False) for t in groups] + [(t, False, True) for t in formulas]
                 + [(t, True, True) for t in SPECIAL_TEXTS] * 4)
        values = 0
        for _ in range(30000):
            text, group, formula = rng.choice(bases)
            text = mutate(rng, text)
            values += self.check(text, group, formula)[0] == "value"
        # most mutations break the text, and enough still parse
        assert 1000 < values < 15000


# The tokenizer and parser that built a frozen token object for every token,
# kept as the reference for the differential tests above.

REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([(){}^+,=&]))")


@dataclass(frozen=True)
class RefToken:
    kind: str  # "num", "name", "punct", "eof"
    text: str
    span: SourceSpan


def ref_tokenize(text: str) -> List[RefToken]:
    out: List[RefToken] = []
    pos = 0
    while pos < len(text):
        m = REF_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError("unexpected character %r" % rest[0], SourceSpan(at, at + 1))
        pos = m.end()
        span = SourceSpan(m.start(1) if m.group(1) else m.start(2) if m.group(2) else m.start(3), pos)
        if m.group(1):
            out.append(RefToken("num", m.group(1), span))
        elif m.group(2):
            out.append(RefToken("name", m.group(2), span))
        else:
            out.append(RefToken("punct", m.group(3), span))
    out.append(RefToken("eof", "", SourceSpan(len(text), len(text))))
    return out


class RefParser:
    def __init__(self, text: str):
        self.text = text
        self.toks = ref_tokenize(text)
        self.i = 0

    def peek(self) -> RefToken:
        return self.toks[self.i]

    def next(self) -> RefToken:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: Optional[RefToken] = None):
        raise ParseError(message, (tok or self.peek()).span)

    def expect(self, text: str) -> RefToken:
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
            desc = pairwise_sum(desc, self.term())
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


def ref_parse_group(text: str) -> SzmielewDescription:
    desc = RefParser(text).group()
    errs = validate(desc)
    if errs:
        raise ParseError("; ".join(errs), SourceSpan(0, len(text)))
    return desc


def ref_parse_formula(text: str) -> PPFormula:
    return RefParser(text).formula()
