"""Blockwise evaluation of p.p. formulas to exact subgroup profiles.

A description is first materialized into a finite list of blocks: explicit
cyclic blocks, torsion-free and divisible blocks, a residual tail block per
unbounded-length prime, and one residual block for an all-primes tail.
Tails are split far enough that every formula atom acts uniformly on the
residual, which makes the (a, b) pair coordinates exact.

The blocks of the last core.DESCRIPTION_MEMO (description, splits) pairs
are kept, so profiles over one description share their block tuples; every
returned record is read-only.

Each block kind has one entry in KINDS, which says what its local subgroup
coordinates are and holds every rule that depends on the kind.  None
encodes the extreme value of a coordinate.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Tuple, Union

from .core import (DESCRIPTION_MEMO, INFINITE, Index, Mult, PPFormula, Record,
                   SzmielewDescription, Div, _Infinite, _raise_cutoffs,
                   is_omega, p_adic_valuation, power_product, prime_factors)

Block = Tuple[str, tuple, Mult]


def _blocks_for(desc: SzmielewDescription, formulas: Iterable[PPFormula]
                ) -> Tuple[Block, ...]:
    """The blocks that evaluate every formula in formulas exactly: each tail
    split at the largest exponent of its prime in an atom, and under a prime
    tail each such unlisted prime instantiated."""
    bounds: Dict[int, int] = {}
    for f in formulas:
        for a in f.atoms:
            exps = {a.p: a.r} if isinstance(a, Div) else prime_factors(a.m)
            for p, e in exps.items():
                bounds[p] = max(bounds.get(p, 0), e)
    extra: Tuple[int, ...] = ()
    if desc.prime_tail is not None:
        extra = tuple(sorted(set(bounds) - set(desc.primes())))
    # materialize reads a bound only where it passes its tail's cutoff
    splits = tuple((p, bounds[p]) for p, spec in desc.cyclic_tail
                   if bounds.get(p, 0) > spec.cutoff)
    return _materialized(desc, splits, extra)


@functools.lru_cache(maxsize=DESCRIPTION_MEMO)
def _materialized(desc: SzmielewDescription, splits: Tuple[Tuple[int, int], ...],
                  extra_primes: Tuple[int, ...]) -> Tuple[Block, ...]:
    """materialize with the tails in splits split at their bounds: equal
    arguments give equal blocks, so they share one tuple."""
    return materialize(desc, dict(splits), extra_primes)


def materialize(desc: SzmielewDescription, tail_bounds: Dict[int, int],
                extra_primes: Tuple[int, ...]) -> Tuple[Block, ...]:
    """Split tails at the given bounds and instantiate extra primes.

    A split adds one explicit cyclic block per exponent past the cutoff, so
    more than core.SPLIT_CAP of them in all is refused before any is built."""
    tails = [(p, spec, max(spec.cutoff, tail_bounds.get(p, 0)))
             for p, spec in sorted(desc.tail_dict().items())]
    cyclic = desc.cyclic_dict()
    _raise_cutoffs(cyclic, tails)
    listed = set(desc.primes())
    tf = desc.tf_dict()
    dv = desc.div_dict()
    shape = desc.prime_tail
    if shape is not None:
        for p in set(extra_primes) - listed:
            for n, m in shape.cyclic_pattern:
                cyclic[(p, n)] = m
            if shape.tf_mult != 0:
                tf[p] = shape.tf_mult
            if shape.div_mult != 0:
                dv[p] = shape.div_mult
    blocks = [("cyc", key, m) for key, m in sorted(cyclic.items())]
    blocks += [("tail", (p, split), spec.mult) for p, spec, split in tails]
    blocks += [("tf", (p,), m) for p, m in sorted(tf.items())]
    blocks += [("div", (p,), m) for p, m in sorted(dv.items())]
    if desc.q_mult != 0:
        blocks.append(("q", (), desc.q_mult))
    if shape is not None and not shape.is_trivial:
        excluded = tuple(sorted(listed | set(extra_primes)))
        blocks.append(("ptail", (shape, excluded), 1))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Block kinds
#
# KINDS holds every rule that depends on a block's kind, keyed by the kind
# string of the block.  An entry gives the local coordinate of the whole
# block; atom(data, a), the local of the subgroup that atom a cuts out;
# meet(x, y); index(data, mult, vh, vk), the exponent of the block's prime
# in the index of vk inside vh (vk strictly inside vh), None if infinite;
# stats(data, mult, v), the (cardinality, exponent) exponents of that prime
# for the subgroup v, each None if infinite; the JSON field names of data
# and json(v); and modes(mult), the oracle's slot modes at the block, empty
# exactly when no index at the block can be infinite.  has_prime says whether
# the block belongs to one prime p; data[0] is then p, and the local that
# tor(m) cuts out at the block depends on m only through the exponent of p.


def _copies(e: int, mult: Mult) -> Optional[int]:
    """Exponent of p over mult copies of a p^e step; None when infinite."""
    if e == 0:
        return 0
    return None if is_omega(mult) else e * mult


class _Cyc:
    """cyc (p, n): depth d, the subgroup p^d Z(p^n)."""

    has_prime = True
    fields = ("p", "n")
    whole = 0
    meet = staticmethod(max)

    def atom(self, data, atom):
        p, n = data
        if isinstance(atom, Div):
            if atom.p != p:
                return 0
            if n <= atom.s:
                return 0
            if n <= atom.r:
                return n - atom.s
            return atom.r - atom.s
        return max(n - p_adic_valuation(atom.m, p), 0)

    def index(self, data, mult, vh, vk):
        return _copies(vk - vh, mult)

    def stats(self, data, mult, v):
        size = data[1] - v
        return _copies(size, mult), size

    def json(self, v):
        return {"depth": v}

    def modes(self, mult):
        # a finite-multiplicity chain only ever has finite indices
        return ("max",) if is_omega(mult) else ()


class _Tf:
    """tf (p,): depth a for p^a Z_(p), or None for the zero subgroup."""

    has_prime = True
    fields = ("p",)
    whole = 0

    def atom(self, data, atom):
        if isinstance(atom, Div):
            return atom.r - atom.s if atom.p == data[0] else 0
        return None  # torsion kills a torsion-free block

    def meet(self, a, b):
        if a is None or b is None:
            return None
        return max(a, b)

    def index(self, data, mult, vh, vk):
        if vk is None:
            return None
        return _copies(vk - vh, mult)

    def stats(self, data, mult, v):
        return (0, 0) if v is None else (None, None)

    def json(self, v):
        return {"depth": "zero" if v is None else v}

    def modes(self, mult):
        return ("max",) if is_omega(mult) else ("tfzero",)


class _Div:
    """div (p,): torsion bound b (the p^b-torsion of Z(p^inf)), None for whole."""

    has_prime = True
    fields = ("p",)
    whole = None

    def atom(self, data, atom):
        if isinstance(atom, Div):
            return None  # divisible: whole
        return p_adic_valuation(atom.m, data[0])

    def meet(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def index(self, data, mult, vh, vk):
        if vh is None:
            return None
        return _copies(vh - vk, mult)

    def stats(self, data, mult, v):
        if v is None:
            return None, None
        return _copies(v, mult), v

    def json(self, v):
        return {"bound": "inf" if v is None else v}

    def modes(self, mult):
        return ("divmin",) if is_omega(mult) else ("divzero",)


class _WholeOrZero:
    """q and ptail (): True (whole) or False (zero; at every residual prime)."""

    has_prime = False
    fields = ()
    whole = True

    def atom(self, data, atom):
        return isinstance(atom, Div)

    def meet(self, a, b):
        return a and b

    def index(self, data, mult, vh, vk):
        return None

    def stats(self, data, mult, v):
        return (None, None) if v else (0, 0)

    def json(self, v):
        return {"whole": v}

    def modes(self, mult):
        return ("bool",)


def _tail_depth(a: int, b: Optional[int], n: int) -> int:
    return a if b is None else max(a, n - b)


class _Tail:
    """tail (p, T): pair (a, b); at block n > T the depth is max(a, n - b)."""

    has_prime = True
    fields = ("p", "split")
    whole = (0, None)

    def atom(self, data, atom):
        p, _split = data
        if isinstance(atom, Div):
            return (atom.r - atom.s, None) if atom.p == p else (0, None)
        return (0, p_adic_valuation(atom.m, p))

    def meet(self, a, b):
        bb = (a[1] if b[1] is None else b[1] if a[1] is None else min(a[1], b[1]))
        return (max(a[0], b[0]), bb)

    def index(self, data, mult, vh, vk):
        # compare asymptotics of the per-block exponent e(n)
        _p, split = data
        (ah, bh), (ak, bk) = vh, vk
        if bh is None and bk is None:
            limit = ak - ah
        elif bh is not None and bk is not None:
            limit = bh - bk
        elif bk is not None:  # bh infinite, bk finite
            return None
        else:
            raise AssertionError("tail index with non-nested pair")
        if limit > 0:
            return None
        # limit 0: finitely many exceptional blocks
        horizon = max(split,
                      ah + (bh if bh is not None else 0),
                      ak + (bk if bk is not None else 0))
        total = 0
        for n in range(split + 1, horizon + 1):
            e = _tail_depth(ak, bk, n) - _tail_depth(ah, bh, n)
            if e > 0:
                if is_omega(mult):
                    return None
                total += e * mult
        return total

    def stats(self, data, mult, v):
        b = v[1]
        if b is None:
            return None, None
        # infinitely many blocks, each eventually of size p^b
        return (None, b) if b > 0 else (0, 0)

    def json(self, v):
        return {"a": v[0], "b": "inf" if v[1] is None else v[1]}

    def modes(self, mult):
        return ("tailb", "taila")


KINDS = {"cyc": _Cyc(), "tf": _Tf(), "div": _Div(), "q": _WholeOrZero(),
         "tail": _Tail(), "ptail": _WholeOrZero()}


def _locals(blocks: Tuple[Block, ...], formula: PPFormula) -> tuple:
    out = []
    for kind, data, _m in blocks:
        entry = KINDS[kind]
        v = entry.whole
        for atom in formula.atoms:
            v = entry.meet(v, entry.atom(data, atom))
        out.append(v)
    return tuple(out)


def _meet_locals(blocks: Tuple[Block, ...], a: tuple, b: tuple) -> tuple:
    return tuple(KINDS[kind].meet(x, y)
                 for (kind, _d, _m), x, y in zip(blocks, a, b))


def _index(blocks: Tuple[Block, ...], big: tuple, small: tuple) -> Index:
    """The exact index of the local subgroups small inside big."""
    exps: Dict[int, int] = {}
    for (kind, data, mult), vh, vk in zip(blocks, big, small):
        if vh != vk:
            e = KINDS[kind].index(data, mult, vh, vk)
            if e is None:
                return Index.infinite()
            if e:
                exps[data[0]] = exps.get(data[0], 0) + e
    return Index.from_factors(exps)


class SubgroupProfile(Record):
    """Exact p.p.-definable subgroup, one local coordinate per block."""

    desc: SzmielewDescription
    formula: PPFormula
    blocks: Tuple[Block, ...]
    locals: tuple


def eval_formula(desc: SzmielewDescription, formula: PPFormula) -> SubgroupProfile:
    blocks = _blocks_for(desc, [formula])
    return SubgroupProfile(desc, formula, blocks, _locals(blocks, formula))


def _common(h: SubgroupProfile, k: SubgroupProfile
            ) -> Tuple[Tuple[Block, ...], tuple, tuple]:
    """Both formulas' locals over one shared materialization: equal blocks
    split every tail and instantiate every prime alike, so they serve both."""
    if h.desc != k.desc:
        raise ValueError("profiles over different descriptions")
    if h.blocks == k.blocks:
        return h.blocks, h.locals, k.locals
    blocks = _blocks_for(h.desc, [h.formula, k.formula])
    return blocks, _locals(blocks, h.formula), _locals(blocks, k.formula)


def meet(h: SubgroupProfile, k: SubgroupProfile) -> SubgroupProfile:
    blocks, lh, lk = _common(h, k)
    return SubgroupProfile(h.desc, h.formula.conjoin(k.formula), blocks,
                           _meet_locals(blocks, lh, lk))


def index_class(h: SubgroupProfile, k: SubgroupProfile) -> Index:
    """The exact index [h : h meet k]."""
    blocks, lh, lk = _common(h, k)
    return _index(blocks, lh, _meet_locals(blocks, lh, lk))


# ---------------------------------------------------------------------------
# Cardinality and exponent


class ProfileStats(Record):
    cardinality: Index
    exponent: Union[int, _Infinite]  # least m with m H = 0, or INFINITE


def profile_stats(h: SubgroupProfile) -> ProfileStats:
    card: Dict[int, int] = {}
    exps: Dict[int, int] = {}
    finite = bounded = True
    for (kind, data, mult), v in zip(h.blocks, h.locals):
        c, e = KINDS[kind].stats(data, mult, v)
        if c is None:
            finite = False
        elif c:
            card[data[0]] = card.get(data[0], 0) + c
        if e is None:
            bounded = False
        elif e:
            exps[data[0]] = max(exps.get(data[0], 0), e)
    cardinality = Index.from_factors(card) if finite else Index.infinite()
    if not bounded:
        return ProfileStats(cardinality, INFINITE)
    return ProfileStats(cardinality, power_product(exps.items()))


# ---------------------------------------------------------------------------
# JSON dump


def profile_json(h: SubgroupProfile) -> dict:
    from .dsl import render_formula, render_group
    blocks = []
    for (kind, data, mult), v in zip(h.blocks, h.locals):
        entry = {"kind": kind, "mult": "w" if is_omega(mult) else mult}
        entry.update(zip(KINDS[kind].fields, data))
        entry["local"] = KINDS[kind].json(v)
        blocks.append(entry)
    stats = profile_stats(h)
    return {
        "group": render_group(h.desc),
        "formula": render_formula(h.formula),
        "blocks": blocks,
        "cardinality": index_json(stats.cardinality),
        "exponent": "inf" if isinstance(stats.exponent, _Infinite) else stats.exponent,
    }


def index_json(i: Index):
    if i.is_infinite:
        return "inf"
    return {"value": i.value(),
            "factors": [{"p": p, "e": e} for p, e in i.factors]}
