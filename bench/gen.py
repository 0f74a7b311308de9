"""Seeded benchmark inputs, emitted as DSL text.

This module owns its distributions and does not import ``szk.corpus``:
widening the program's own corpus must not silently change the benchmark's
traffic.  Everything is a pure function of ``(seed, index)``, so item ``i`` of
a stream is the same however fast the program consumes the stream.

The fuzz shape mirrors ``szk fuzz`` and acceptance criterion 6 (primes 2..7,
exponents up to 5, multiplicity-1 tails, finite dp-rank).  The queries shape
adds the infinite-rank side: omega tails and omega prime-tail shapes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

PRIMES = (2, 3, 5, 7)
MAX_EXP = 5
W = "w"  # multiplicity omega

# The ROADMAP's 10-summand, 6-prime group.
G10 = ("Z(2^1)^w + Z(2^3)^w + Z(2^5)^w + Z(2^7)^w + Z(3^1)^w + Z(3^3)^w"
       " + Z_(5)^w + Z_(7)^w + Z(11^inf)^w + tail(13)")

# (group, pool bound B, depth cap) per rung; one oracle_deep op runs all four.
ORACLE_LADDER = (
    ("tail(2,w)", 14, 5),
    ("tail(2,w)", 16, 5),
    ("tail(2,w) + tail(3,w)", 8, 4),
    (G10, 3, 10),
)

# Finite carriers of acceptance-criterion-12 size for coset families.  A
# 512-element carrier made shatter_function(n=3) run for minutes, so the
# carriers stay at 16 or 27 elements (see NOTES.md).  Even at this size one
# shatter_function(n=4) call costs more than the rest of a queries op.
SHATTER_CARRIERS = ("Z(4) + Z(4)", "Z(8) + Z(2^1)", "Z(4) + Z(2^1)^2",
                    "Z(9) + Z(3^1)", "Z(16)")
SHATTER_FORMULAS = ("tor(1)", "tor(2)", "tor(4)", "div(2,1,0)", "div(2,2,1)",
                    "div(2,3,1)", "div(3,1,0)", "tor(3)")


@dataclass(frozen=True)
class Shape:
    """What a generated description looks like, computed without szk."""

    primes: Tuple[int, ...]        # explicitly listed primes
    max_exp: int                   # cyclic exponent / tail cutoff / shape exponent
    prime_tail: bool
    infinite_dp: bool              # an omega tail or an omega prime-tail entry
    finite: bool = False           # a finite group: cyclic blocks, finite multiplicities


ORACLE_SHAPES = (
    Shape((2,), 0, False, True),
    Shape((2,), 0, False, True),
    Shape((2, 3), 0, False, True),
    Shape((2, 3, 5, 7, 11, 13), 7, False, False),
)


@dataclass
class Item:
    text: str
    shape: Shape
    formulas: Tuple[str, ...] = ()


def _mult_text(m) -> str:
    if m == 1:
        return ""
    return "^w" if m == W else "^%d" % m


def _render(cyclic: Dict[Tuple[int, int], object], tf: Dict[int, object],
            dv: Dict[int, object], q, tails: Dict[int, Tuple[int, object]],
            ptail: Optional[Tuple[Dict[int, object], object, object]]) -> str:
    terms = ["Z(%d^%d)%s" % (p, n, _mult_text(m))
             for (p, n), m in sorted(cyclic.items())]
    for p, (cut, m) in sorted(tails.items()):
        args = str(p)
        if m != 1:
            args += ",%s" % m
        if cut:
            args += ",cutoff=%d" % cut
        terms.append("tail(%s)" % args)
    terms += ["Z_(%d)%s" % (p, _mult_text(m)) for p, m in sorted(tf.items())]
    terms += ["Z(%d^inf)%s" % (p, _mult_text(m)) for p, m in sorted(dv.items())]
    if q:
        terms.append("Q%s" % _mult_text(q))
    if ptail is not None:
        pattern, tfm, dvm = ptail
        sterms = ["Z(P^%d)%s" % (n, _mult_text(m)) for n, m in sorted(pattern.items())]
        if tfm:
            sterms.append("Z_(P)%s" % _mult_text(tfm))
        if dvm:
            sterms.append("Z(P^inf)%s" % _mult_text(dvm))
        terms.append("forall_p{%s}" % " + ".join(sterms))
    return " + ".join(terms) if terms else "0"


def random_group(rng: random.Random, finite_dp: bool,
                 nprimes: Optional[int] = None,
                 prime_tail: Optional[bool] = None) -> Item:
    """One description: 1-3 primes, cyclic/tf/div/tail blocks, maybe Q and a
    prime tail.  ``nprimes`` and ``prime_tail`` fix the two properties that
    decide the oracle's pool size; left as None they are drawn."""
    mult_choices = [1, 2, W]
    if nprimes is None:
        nprimes = rng.randint(1, 3)
    if prime_tail is None:
        prime_tail = rng.random() < 0.15
    primes = sorted(rng.sample(PRIMES, nprimes))
    cyclic: Dict[Tuple[int, int], object] = {}
    tf: Dict[int, object] = {}
    dv: Dict[int, object] = {}
    tails: Dict[int, Tuple[int, object]] = {}
    for p in primes:
        for _ in range(rng.randint(1, 2)):
            kind = rng.choices(("cyclic", "tf", "div", "tail"), weights=(5, 2, 2, 2))[0]
            if kind == "cyclic":
                cyclic[(p, rng.randint(1, MAX_EXP))] = rng.choice(mult_choices)
            elif kind == "tf":
                tf[p] = rng.choice(mult_choices)
            elif kind == "div":
                dv[p] = rng.choice(mult_choices)
            else:
                tails[p] = (rng.randint(0, MAX_EXP), 1 if finite_dp else rng.choice((1, W)))
    for p, (cut, m) in list(tails.items()):
        # the cutoff must cover every listed exponent at its prime
        top = max((n for (q, n) in cyclic if q == p), default=0)
        tails[p] = (max(cut, top), m)
    q = rng.choice((1, W)) if rng.random() < 0.3 else 0
    ptail = None
    if prime_tail:
        pmults = [1, 2] if finite_dp else [1, 2, W]
        pattern = {}
        if rng.random() < 0.7:
            pattern[rng.randint(1, 3)] = rng.choice(pmults)
        tfm = dvm = 0
        while not (pattern or tfm or dvm):
            tfm = rng.choice((0, 1, 2) if finite_dp else (0, 1, W))
            dvm = rng.choice((0, 1, 2) if finite_dp else (0, 1, W))
        ptail = (pattern, tfm, dvm)
    max_exp = max([n for (_p, n) in cyclic] + [c for c, _m in tails.values()]
                  + (list(ptail[0]) if ptail else []) + [0])
    infinite = (any(m == W for _c, m in tails.values())
                or (ptail is not None and (W in ptail[0].values() or W in ptail[1:])))
    shape = Shape(tuple(primes), max_exp, ptail is not None, infinite)
    return Item(_render(cyclic, tf, dv, q, tails, ptail), shape)


def random_finite_group(rng: random.Random, size_cap: int = 10 ** 4) -> Item:
    """A finite group (cyclic blocks of finite multiplicity) of order <= size_cap."""
    cyclic: Dict[Tuple[int, int], int] = {}
    size = 1
    for _ in range(rng.randint(1, 3)):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3 if p == 2 else 2)
        m = rng.randint(1, 2)
        if size * (p ** n) ** m > size_cap:
            continue
        size *= (p ** n) ** m
        cyclic[(p, n)] = cyclic.get((p, n), 0) + m
    if not cyclic:
        cyclic[(2, 1)] = 1
    shape = Shape(tuple(sorted({p for p, _n in cyclic})), max(n for _p, n in cyclic),
                  False, False, finite=True)
    return Item(_render(cyclic, {}, {}, 0, {}, None), shape)


def random_formula(rng: random.Random, primes=PRIMES, max_exp: int = 4) -> str:
    atoms: List[str] = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            m = 1
            for p in rng.sample(primes, rng.randint(1, 2)):
                m *= p ** rng.randint(1, max_exp)
            atoms.append("tor(%d)" % m)
        else:
            p = rng.choice(primes)
            r = rng.randint(1, max_exp)
            atoms.append("div(%d,%d,%d)" % (p, r, rng.randint(0, r - 1)))
    return " & ".join(atoms)


def _rng(seed: int, stream: str, index: int) -> random.Random:
    return random.Random("%d/%s/%d" % (seed, stream, index))


def _cell(index: int) -> Tuple[int, bool]:
    """Stratified (prime count, prime tail) for stream position ``index``.

    Every 60 consecutive items hold each prime count 20 times and a prime
    tail 9 times (15%), 3 of them on 3-prime groups.  Those carry most of
    the oracle's cost (pool sizes up to 4,207 formulas), so drawing them at
    random would let the seed swing throughput by tens of percent.
    """
    return index % 3 + 1, (index // 3) % 20 < 3


# The largest exponent sets B0, and with it the pool size (1+B0)^k.  Per
# (prime count, prime tail) cell, twenty consecutive items of the cell take
# these largest exponents, in a seeded order: the shares the unconstrained
# generator draws, rounded to twentieths.
EXP_CYCLE = {
    (1, False): (0,) * 6 + (1,) * 2 + (2,) * 3 + (3,) * 3 + (4,) * 3 + (5,) * 3,
    (1, True): (0,) * 2 + (1,) * 2 + (2,) * 4 + (3,) * 5 + (4,) * 3 + (5,) * 4,
    (2, False): (0,) * 2 + (1,) * 1 + (2,) * 2 + (3,) * 3 + (4,) * 5 + (5,) * 7,
    (2, True): (1,) * 1 + (2,) * 3 + (3,) * 5 + (4,) * 5 + (5,) * 6,
    (3, False): (1,) * 1 + (2,) * 2 + (3,) * 3 + (4,) * 5 + (5,) * 9,
    (3, True): (2,) * 2 + (3,) * 4 + (4,) * 5 + (5,) * 9,
}
# Items per 60-item period in a cell of each prime-tail value.
_CELL_PER_PERIOD = {True: 3, False: 17}


def _target_exp(seed: int, index: int) -> int:
    nprimes, ptail = _cell(index)
    slot = (index // 3) % 20
    j = (index // 60) * _CELL_PER_PERIOD[ptail] + (slot if ptail else slot - 3)
    cycle = list(EXP_CYCLE[(nprimes, ptail)])
    random.Random("%d/fuzz-exp/%d/%s/%d" % (seed, nprimes, ptail, j // 20)).shuffle(cycle)
    return cycle[j % 20]


def fuzz_item(seed: int, index: int) -> Item:
    """A finite-dp description in its stratified cell, drawn until its
    largest exponent is the one the cell's cycle asks for."""
    nprimes, ptail = _cell(index)
    target = _target_exp(seed, index)
    rng = _rng(seed, "fuzz", index)
    while True:
        item = random_group(rng, True, nprimes, ptail)
        if item.shape.max_exp == target:
            return item


def queries_item(seed: int, index: int) -> Item:
    """Even indices: a mixed-rank description with 4 formulas.  Odd: a small
    finite description with 6 formulas over its primes."""
    rng = _rng(seed, "queries", index)
    if index % 2 == 0:
        item = random_group(rng, finite_dp=False)
        item.formulas = tuple(random_formula(rng) for _ in range(4))
    else:
        item = random_finite_group(rng)
        item.formulas = tuple(random_formula(rng, primes=(2, 3, 5), max_exp=3)
                              for _ in range(6))
    return item


SHATTER_CASES = tuple((c, f) for c in SHATTER_CARRIERS for f in SHATTER_FORMULAS)


def shatter_item(seed: int, index: int) -> Tuple[str, str]:
    """The carrier and formula whose coset family the ``index``-th shattering
    op uses.  Each 40 consecutive ones take every case once, in a seeded
    order: a 27-element carrier costs three times a 16-element one, and
    drawing the cases at random would let the seed move the tail."""
    cases = list(SHATTER_CASES)
    random.Random("%d/shatter/%d" % (seed, index // len(cases))).shuffle(cases)
    return cases[index % len(cases)]


CLI_COMMANDS = ("normalize", "rank", "classify", "eval", "index")


def cli_argvs(seed: int, count: int) -> List[Tuple[List[str], Shape]]:
    """A fixed mix of the cheap subcommands, round-robin, on seeded inputs."""
    out = []
    for i in range(count):
        rng = _rng(seed, "cli", i)
        item = random_group(rng, finite_dp=False)
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        args = ["--json", cmd, item.text]
        if cmd == "eval":
            args.append(random_formula(rng))
        elif cmd == "index":
            args += [random_formula(rng), random_formula(rng)]
        out.append((args, item.shape))
    return out


# ---------------------------------------------------------------------------
# Input-shape shares


def pool_size(shape: Shape, B: int) -> int:
    """Formulas the oracle enumerates at bound B, counted arithmetically.

    Pool primes are the listed primes, plus one stand-in prime for a prime
    tail (or the prime 2 when nothing is listed).  Every non-empty prime
    subset contributes B^k torsion products; every prime adds B(B+1)/2
    divisibility atoms.
    """
    k = len(shape.primes) + (1 if shape.prime_tail else 0)
    k = max(k, 1)
    return (1 + B) ** k - 1 + k * B * (B + 1) // 2


def _bucket(n: int) -> str:
    lo = 1
    while lo * 4 <= n:
        lo *= 4
    return "%d-%d" % (lo, lo * 4 - 1)


@dataclass
class ShapeShares:
    """Running shares of input shapes over the items a run consumed."""

    items: int = 0
    prime_tail: int = 0
    infinite_dp: int = 0
    finite: int = 0
    max_exp: Counter = field(default_factory=Counter)
    pool: Counter = field(default_factory=Counter)

    def add(self, shape: Shape, B: Optional[int] = None) -> None:
        self.items += 1
        self.prime_tail += shape.prime_tail
        self.infinite_dp += shape.infinite_dp
        self.finite += shape.finite
        self.max_exp[shape.max_exp] += 1
        if B is not None:
            self.pool[_bucket(pool_size(shape, B))] += 1

    def as_json(self) -> dict:
        n = max(self.items, 1)
        out = {"items": self.items,
               "prime_tail_share": round(self.prime_tail / n, 4),
               "infinite_dp_share": round(self.infinite_dp / n, 4),
               "finite_group_share": round(self.finite / n, 4),
               "max_exponent_hist": {str(k): v for k, v in sorted(self.max_exp.items())}}
        if self.pool:
            out["pool_formulas_hist"] = dict(sorted(
                self.pool.items(), key=lambda kv: int(kv[0].split("-")[0])))
        return out
