"""Brute-force verification of inp-pattern depth via the index criterion.

A family of p.p. subgroups witnesses depth k exactly when every
leave-one-out intersection has infinite index over the full intersection.
The search counts the canonical candidate pool and refuses it when it
exceeds the cap, before anything is built.  It then builds only the pool's
distinct profiles, one prime at a time: each tor(p^e) and div(p, r, s) is
evaluated on p's blocks alone, and a bounded memo keeps each prime's
distinct columns, keyed by the prime, the bound and its blocks.  A profile
is a tuple of column indices, one per prime and one for the prime-less
blocks: the torsion profiles are the products of one class of equal
columns per prime, each represented by its least m and kept as its index
into the products, and each new div column is the whole subgroup
elsewhere, kept as its atom, prime and column.  A candidate is read only by
its index in the search, which gives its tuple, locals and formula on
demand.  The torsion part depends only on each prime's least m per
class, so a second bounded memo keeps, per such signature, the products in
search order and per prime and class the bitmask of the products holding
it; a search ors those masks, and the few div bits, into the holders of
each local, one mask per column, not per block.  Each slot mode ranks a
block's locals, and a third bounded memo keeps those ranks per block and
set of distinct locals, so a search only ors masks in rank order.  It
explores families of those profiles depth-first with three prunings, all
of which preserve exhaustiveness:

  - a formula of finite index can never appear in a valid family;
  - validity is closed downward, so supersets of invalid families die: a
    slot set whose domains' fixed point empties one is not grown, and once
    a family has failed, a partial family is checked before it grows;
  - every member of a valid family is the strict extreme at some slot, and
    a family holds each slot key once (a finite-multiplicity block gives
    one key, an omega block one per mode), which bounds the depth by the
    number of keys.

The search has three parts: _setup builds the pool, its blocks with slots,
their holders and the validity check, _slots builds the slot tables from
the holders, and _deepest is the one slot search and runs over any list of
slots.  _deepest scans the depth levels from the cap down and stops at the
first level that holds a family.  This is exact: validity is closed
downward, so every level below the depth holds a family and none above it
does, and each level is searched exhaustively, so a level that fails holds
no family at all.  A level is one depth-first scan of its slot sets in
combinations order: a set grows one slot at a time from its prefix's fixed
point, which a slot only shrinks.  The new slot's domain starts within the
fence, the losers to the tops of the prefix's domains, and only a domain
that shrinks prunes the others again.  The prefix's domains already prune
one another, so this reaches the fixed point a pass over every domain
would.  The family returned is the first of its level in slot-set order,
the one an upward scan would end on.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from array import array
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (Div, Index, PoolOverflowError, PPFormula, Record,
                   SzmielewDescription, Tor, is_omega, is_prime, tor)
from .normalize import normalize
from .ppeval import (KINDS, Block, _blocks_at, _blocks_for, _index, _locals,
                     _meet_locals, index_json)

DEFAULT_MAX_POOL = 50000


def _max_pool() -> int:
    raw = os.environ.get("SZK_MAX_POOL")
    if not raw:
        return DEFAULT_MAX_POOL
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError("SZK_MAX_POOL must be a positive integer, got %r" % raw)
    return int(raw)


def _pool_primes(strict: SzmielewDescription) -> List[int]:
    primes = strict.primes()
    if strict.prime_tail is not None:
        # one representative unlisted prime stands in for all of them
        q = 2
        while q in primes:
            q += 1
            while not is_prime(q):
                q += 1
        primes = sorted(primes + [q])
    if not primes:
        primes = [2]
    return primes


def _pool(strict: SzmielewDescription, B: int
          ) -> Tuple[List[int], Tuple[Block, ...]]:
    """Pool primes and blocks of a strict form; an over-cap pool is refused
    unbuilt."""
    primes = _pool_primes(strict)
    n = len(primes)
    # (B+1)^n - 1 torsion products and B(B+1)/2 div atoms per prime
    size = (B + 1) ** n - 1 + n * B * (B + 1) // 2
    if size > _max_pool():
        raise PoolOverflowError(
            "candidate pool has %d formulas, cap is %d (set SZK_MAX_POOL)"
            % (size, _max_pool()))
    return primes, _blocks_at(strict, dict.fromkeys(primes, B))


PRIME_MEMO = 1024     # the per-prime column sets that _prime_columns keeps


@functools.lru_cache(maxsize=PRIME_MEMO)
def _prime_columns(p: int, B: int, blocks: Tuple[Tuple[str, tuple], ...]):
    """The pool's columns on the (kind, data) blocks of one prime p.

    Returns the distinct columns; the least m = p^e of each torsion class,
    class c being column c and the class of exponent 0 coming first; the
    second exponent's p^e of that class, if it has one; the first
    div(p, r, s) of each distinct div column, with its column index; and
    the index of the whole column.  Equal columns share one index.
    """
    def column(atom) -> tuple:
        return tuple(KINDS[kind].atom(data, atom) for kind, data in blocks)

    cols: Dict[tuple, int] = {}
    exps: List[List[int]] = []
    for e in range(B + 1):
        c = cols.setdefault(column(Tor(p ** e)), len(cols))
        if c == len(exps):
            exps.append([])
        exps[c].append(e)
    firsts: Dict[int, Div] = {}
    for atom in [Div(p, r, s) for r in range(1, B + 1) for s in range(r)]:
        firsts.setdefault(cols.setdefault(column(atom), len(cols)), atom)
    whole = tuple(KINDS[kind].whole for kind, _data in blocks)
    whole_at = cols.setdefault(whole, len(cols))
    return (tuple(cols), tuple(p ** es[0] for es in exps),
            tuple(p ** e for e in exps[0][1:2]),
            tuple((atom, c) for c, atom in firsts.items()), whole_at)


PRODUCT_MEMO = 1024   # the torsion product spaces that _products keeps


@functools.lru_cache(maxsize=PRODUCT_MEMO)
def _products(pms: Tuple[Tuple[int, ...], ...], m0: int):
    """The torsion class products of a pool, in search order.

    pms[g] holds the least m of each class of group g, and m0 is the m of
    product 0, the one of every class of exponent 0: 1 when it has no tor.
    Products are numbered in itertools.product order.  Returns the products
    by ascending m, as an array of their numbers, and per group and class
    the bitmask of the products holding that class, bit j being the j-th
    product of that order.
    """
    # the least m of each product
    ms = [1]
    for classes in pms:
        ms = [m * pm for m in ms for pm in classes]
    ms[0] = m0
    order = sorted(range(len(ms)), key=ms.__getitem__)[m0 == 1:]
    # a group's classes repeat with a period in product order: one code
    # string of them, permuted to search order with the last product first,
    # is translated once per class
    pick = itemgetter(*reversed(order))
    masks = []
    stride = len(ms)
    for classes in pms:
        n = len(classes)
        stride //= n
        if n == 1:
            masks.append(((1 << len(order)) - 1,))
            continue
        period = "".join([chr(c) * stride for c in range(n)])
        text = "".join(pick(period * (len(ms) // len(period))))
        zeros = dict.fromkeys(range(n), "0")
        masks.append(tuple(int(text.translate({**zeros, c: "1"}), 2)
                           for c in range(n)))
    return array("I", order), tuple(masks)


class _Pool:
    """The pool's distinct profiles on blocks, built one prime at a time.

    The pool is tor(m) for every m > 1 whose exponents over primes are at
    most B, by ascending m, then div(p, r, s) for 0 <= s < r <= B; the first
    formula of a profile represents it.  The blocks fall into groups: the
    prime-less ones, then each prime's.  groups[g] lists the indices of the
    blocks of group g and cols[g] its distinct columns, and a profile is a
    candidate: a tuple of one column index per group.

    tor(m) acts on p's blocks through the exponent of p in m, so a torsion
    profile takes one class of exponents of equal columns per prime.  Its
    least m takes each class's least exponent, or, when that gives m = 1
    (not in the pool), the second least at the one prime where that is
    cheapest; with no second exponent anywhere it has no tor.  div(p, r, s)
    is the whole subgroup off p's blocks.

    A torsion candidate is kept as its index into the class products, in
    itertools.product order: pms[g] holds the least m of each class of
    group g, the prime-less group's one class having m = 1, and counts[g]
    their count.  The products in search order, by ascending m, and the
    class masks come from _products, shared by every pool with the same
    classes.  A div candidate is kept in divs as (atom, g, c): column c at
    its group g and the whole column wholes[h] at every other group h.

    A candidate is read by its search index ci, the divs first and then the
    products in order: cand(ci) builds its tuple, key(tuple) its locals and
    formula(ci) its formula; decode and m read one class product.
    """

    def __init__(self, primes: Sequence[int], B: int,
                 blocks: Tuple[Block, ...]):
        at: Dict[Optional[int], List[int]] = {p: [] for p in [None, *primes]}
        for bi, (kind, data, _m) in enumerate(blocks):
            at[data[0] if KINDS[kind].has_prime else None].append(bi)
        self.groups = list(at.values())
        self.size = len(blocks)
        # every tor cuts out zero on the prime-less blocks, every div the whole
        none = {tuple(KINDS[blocks[bi][0]].atom(blocks[bi][1], Tor(1))
                      for bi in at[None]): 0}
        wholes = [none.setdefault(tuple(KINDS[blocks[bi][0]].whole
                                        for bi in at[None]), len(none))]
        self.cols = [tuple(none)]
        pms, nexts, pdivs = [], [], []
        for p in primes:
            cols, classes, nxt, firsts, whole = _prime_columns(
                p, B, tuple(blocks[bi][:2] for bi in at[p]))
            self.cols.append(cols)
            pms.append(classes)
            nexts += nxt
            pdivs.append(firsts)
            wholes.append(whole)
        self.wholes = wholes

        # the prime-less group has one class, of m = 1.  The first product
        # has every class of exponent 0, m = 1 until fixed up; with no
        # second exponent anywhere it is no tor
        self.pms = ((1,), *pms)
        self.counts = [*map(len, self.pms)]
        self.m0 = min(nexts, default=1)
        self.order, self.class_masks = _products(self.pms, self.m0)

        # a div candidate is the whole column off its own group g.  It is a
        # class product, so a tor already, when every other whole column is
        # a class and its column at g is one, unless that is product 0 with
        # no tor; and it is the all-whole candidate when its column at g is
        # the whole one, which is kept once
        self.divs: List[Tuple[Div, int, int]] = []
        fits = list(map(int.__lt__, wholes, self.counts))
        seen_whole = False
        for g, firsts in enumerate(pdivs, 1):
            off = wholes[:g] + wholes[g + 1:]
            tor_off = all(fits[:g] + fits[g + 1:])
            for atom, c in firsts:
                if tor_off and c < self.counts[g] and (nexts or c or any(off)):
                    continue
                if c == wholes[g]:
                    if seen_whole:
                        continue
                    seen_whole = True
                self.divs.append((atom, g, c))

    def decode(self, i: int) -> tuple:
        """The candidate tuple of class product i."""
        out = []
        for n in reversed(self.counts):
            i, c = divmod(i, n)
            out.append(c)
        return tuple(reversed(out))

    def m(self, i: int) -> int:
        """The least m of class product i."""
        if not i:
            return self.m0
        return math.prod(map(tuple.__getitem__, self.pms, self.decode(i)))

    def cand(self, ci: int) -> tuple:
        """Candidate ci of the search: the divs, then the tors."""
        if ci < len(self.divs):
            _atom, g, c = self.divs[ci]
            return (*self.wholes[:g], c, *self.wholes[g + 1:])
        return self.decode(self.order[ci - len(self.divs)])

    def formula(self, ci: int) -> PPFormula:
        if ci < len(self.divs):
            return PPFormula.of(self.divs[ci][0])
        return tor(self.m(self.order[ci - len(self.divs)]))

    def key(self, cand: tuple) -> tuple:
        """The candidate's locals, in block order."""
        out = [None] * self.size
        for bis, cols, c in zip(self.groups, self.cols, cand):
            for bi, v in zip(bis, cols[c]):
                out[bi] = v
        return tuple(out)

    def holders(self) -> List[Dict[object, int]]:
        """Per block, each distinct local with the bitmask of the candidates
        holding it; bit ci of a mask is candidate ci of the search.

        A div candidate holds the whole column off its own group, so per
        group every div's bit starts in the whole column and only the
        group's own divs move theirs; the tors' class masks come from
        _products.  Each column's mask is then or-ed into the holders of the
        group's blocks."""
        held: List[Dict[object, int]] = [{} for _ in range(self.size)]
        shift = len(self.divs)
        # per group, each column's mask
        masks_at = [{w: (1 << shift) - 1} for w in self.wholes]
        for ci, (_atom, g, c) in enumerate(self.divs):
            masks = masks_at[g]
            masks[self.wholes[g]] ^= 1 << ci
            masks[c] = masks.get(c, 0) | 1 << ci
        for bis, cols, masks, classes in zip(self.groups, self.cols, masks_at,
                                             self.class_masks):
            if not bis:
                continue
            for c, mask in enumerate(classes):
                if mask:
                    masks[c] = masks.get(c, 0) | mask << shift
            for c, mask in masks.items():
                if mask:
                    for bi, v in zip(bis, cols[c]):
                        held[bi][v] = held[bi].get(v, 0) | mask
        return held


def candidate_pool(desc: SzmielewDescription, B: int) -> List[PPFormula]:
    """Canonical single-atom pool plus coprime tor-products, profile-deduped."""
    if B < 1:
        raise ValueError("pool bound must be >= 1")
    primes, blocks = _pool(normalize(desc), B)
    pool = _Pool(primes, B, blocks)
    n = len(pool.divs)
    return [*map(pool.formula, range(n, n + len(pool.order))),
            *map(pool.formula, range(n))]


def _leave_one_out(blocks: Tuple[Block, ...], locs: Sequence[tuple]
                   ) -> Iterator[Tuple[tuple, tuple]]:
    """Per member: the meet of all other members, and the full meet."""
    whole = _locals(blocks, PPFormula.top())
    meet = functools.partial(_meet_locals, blocks)
    # before[i] meets the members before i and after[i] those after it; the
    # whole subgroup stands for no member, and a meet with it is skipped
    before = [whole, *itertools.accumulate(locs[:-1], meet)]
    after = [*itertools.accumulate(locs[:0:-1], meet)][::-1] + [whole]
    full = meet(before[-1], locs[-1])
    for b, a in zip(before, after):
        yield (a if b is whole else b if a is whole else meet(b, a)), full


class InpVerdict(Record):
    valid: bool
    transcript: Tuple[Index, ...]      # leave-one-out index per member


def verify_inp(desc: SzmielewDescription, family: Sequence[PPFormula]) -> InpVerdict:
    if not family:
        raise ValueError("family must be non-empty")
    strict = normalize(desc)
    blocks = _blocks_for(strict, family)
    locs = [_locals(blocks, f) for f in family]
    transcript = tuple(_index(blocks, rest, full)
                       for rest, full in _leave_one_out(blocks, locs))
    return InpVerdict(all(t.is_infinite for t in transcript), transcript)


class BreadthResult(Record):
    depth: int
    witness: Tuple[PPFormula, ...]
    pool_bound: int
    exhausted: bool


# ---------------------------------------------------------------------------
# Slot modes
#
# A slot is one way a family member can be the strict extreme at a block;
# KINDS[kind].modes(mult) names the modes of a block.  A mode ranks the
# locals of its block: a member holds the slot when its local outranks the
# whole, and it beats every member whose local it outranks.  One rule
# narrows this: a finite-multiplicity tail's offset slot needs every bound
# unbounded, the occupant's own included, so only such locals count there.
# The bound slot's occupant has a finite bound, so a family holds at most
# one slot of a finite-multiplicity block.  A slot's key is therefore its
# block at a finite multiplicity and its block and mode at omega: a slot set
# holds each key once, and the number of keys bounds the depth.
#
# Each rank reads the local of one block only, so _block_table ranks a
# block's distinct locals once, and _setup keeps, per block, the
# bitmask of the candidates holding each local.  Per slot, _slots builds
# prefix and suffix ors of those masks over the ranks: the candidates a
# local beats and those that beat it.  _deepest, the one slot search, prunes
# the slot domains by and-ing such masks; its solve then splits the live
# mask on the masks of its slot blocks and names each part by its lowest
# bit.  It reads only a slot list, the holders and a validity check, so it
# runs over any part of a group's slots, its member bound being the list's
# distinct keys and the candidates that occupy one of its slots.

_RANKS = {
    "max": lambda v: math.inf if v is None else v,   # None: the zero subgroup
    "tfzero": lambda v: v is None,
    "divzero": lambda v: v is not None,
    "bool": lambda v: v is False,
    "divmin": lambda v: -math.inf if v is None else -v,
    "tailb": lambda v: -math.inf if v[1] is None else -v[1],
    "taila": lambda v: v[0],
}

BLOCK_MEMO = 4096     # the (block, locals) tables that _block_table keeps


@functools.lru_cache(maxsize=BLOCK_MEMO)
def _block_table(block: Block, vals: frozenset):
    """Per mode of the block, the locals in vals that count there in tie
    groups of ascending rank, with the number of groups that do not outrank
    the whole."""
    kind, _data, mult = block
    w = KINDS[kind].whole
    tables = []
    for name in KINDS[kind].modes(mult):
        rank = _RANKS[name]
        counted = [v for v in vals if name != "taila" or is_omega(mult)
                   or v[1] is None]
        groups = [tuple(vs) for _r, vs in
                  itertools.groupby(sorted(counted, key=rank), key=rank)]
        tables.append((tuple(groups),
                       sum(rank(vs[0]) <= rank(w) for vs in groups)))
    return tuple(tables)


def _slots(blocks: Tuple[Block, ...], holders: List[Dict[object, int]]
           ) -> List[tuple]:
    """The slot tables of the blocks, given per block the bitmask of the
    candidates holding each local.

    Per slot: its key; per tie group, the candidates holding it, those it
    beats, and those that hold the slot and beat it, then a 0 for the locals
    that count nowhere; and its occupants.  A local outranks the whole at
    some slot of its block exactly when its index in the whole block is
    infinite, so the occupants are the candidates that can be members there.
    """
    slots = []
    for bi, (block, held) in enumerate(zip(blocks, holders)):
        tables = _block_table(block, frozenset(held))
        for j, (groups, floor) in enumerate(tables):
            key = (bi, j if is_omega(block[2]) else 0)
            masks = [sum(map(held.__getitem__, vs)) for vs in groups]
            below = [0, *itertools.accumulate(masks, int.__or__)]
            above = [*itertools.accumulate(reversed(masks), int.__or__,
                                           initial=0)][::-1]
            wins = [above[max(g, floor)] for g in range(1, len(above))]
            slots.append((key, masks, below, wins + [0], above[floor]))
    return slots


def _deepest(slots: List[tuple], maxK: int, holders: List[Dict[object, int]],
             valid: Callable[[List[int]], bool]) -> Tuple[List[int], bool]:
    """The deepest family of at most maxK members on a list of slots.

    Returns the candidate indices of the first family of the highest level
    that holds one, and whether the search was exhausted: it is not when it
    stopped at the cap below the member bound.  valid(idxs) checks a family.
    A family holds at most one slot per key, and each member occupies some
    slot, so the list's distinct keys and its occupants bound the depth.
    """
    members = 0
    for slot in slots:
        members |= slot[4]
    ub = min(len({slot[0] for slot in slots}), members.bit_count())

    def group(slot: tuple, bit: int) -> int:
        """The slot's tie group holding the candidate with this bit, or -1."""
        return next((g for g, m in enumerate(slot[1]) if m & bit), -1)

    def solve(S: List[tuple], doms: List[int]) -> Optional[List[int]]:
        """Find a family occupying exactly the slots S, from their domains
        at the fixed point, or prove none exists.

        Validity at these slots only depends on the locals at the slot
        blocks, so the live candidates fall into classes that share those
        locals, each named by its lowest bit: a domain keeps only the names,
        and members are tried by ascending bit.  Any family witnessed
        elsewhere is found under the slot set naming its witness blocks.
        """
        t = len(S)
        live = 0
        for d in doms:
            live |= d
        parts = [live]
        for bi in {slot[0][0] for slot in S}:
            parts = [sub for part in parts for m in holders[bi].values()
                     if (sub := part & m)]
        reps = 0
        for part in parts:
            reps |= part & -part
        doms = [d & reps for d in doms]
        order = sorted(range(t), key=lambda k: doms[k].bit_count())
        # once a leaf has failed, a partial family of two or more members is
        # checked before it grows: validity is closed downward, so this cuts
        # only subtrees without a valid leaf
        failed = False

        def assign(step: int, doms: List[int], picked: List[int]
                   ) -> Optional[List[int]]:
            nonlocal failed
            if step == t or failed and step >= 2:
                idxs = sorted(bit.bit_length() - 1 for bit in picked)
                if not valid(idxs):
                    failed = True
                    return None
                if step == t:
                    return idxs
            k, later = order[step], order[step + 1:]
            todo = doms[k]
            while todo:
                low = todo & -todo
                todo ^= low
                beaten = S[k][2][group(S[k], low)] if later else 0
                nxt = list(doms)
                for lk in later:
                    nxt[lk] &= beaten & S[lk][3][group(S[lk], low)]
                    if not nxt[lk]:
                        break
                else:
                    got = assign(step + 1, nxt, picked + [low])
                    if got is not None:
                        return got
            return None

        return assign(0, doms, [])

    def scan(t: int, S: List[tuple], doms: List[int], fence: int, start: int
             ) -> Optional[List[int]]:
        """The first family on t slots that extend S, in combinations order,
        on slots of distinct keys.

        Each domain, a bitmask over the candidates, starts as the slot's
        occupants and is pruned to a fixed point: only the losers to the top
        local a domain still holds survive in the others.  S's last domain
        is new, and the others are at the prefix's fixed point, with fence
        the and of the losers to their tops.  So the new domain starts
        within fence and prunes the others, and a domain that shrinks goes
        back on the stack, since its top may have fallen.  The pruning is
        monotone and only shrinks domains, so this reaches the fixed point
        of S from scratch.
        """
        todo = [len(S) - 1] if S else []
        while todo:
            k = todo.pop()
            if not doms[k]:
                return None
            masks, below = S[k][1], S[k][2]
            g = len(masks) - 1
            while not masks[g] & doms[k]:
                g -= 1
            fence &= below[g]
            for j in range(len(S)):
                if j != k and doms[j] & below[g] != doms[j]:
                    doms[j] &= below[g]
                    todo.append(j)
        if len(S) == t:
            return solve(S, doms)
        keys = {slot[0] for slot in S}
        for si in range(start, len(slots) - t + len(S) + 1):
            if slots[si][0] in keys:
                continue
            found = scan(t, S + [slots[si]], doms + [slots[si][4] & fence],
                         fence, si + 1)
            if found is not None:
                return found
        return None

    # validity is closed downward, so the depth is the highest level that
    # holds a family: scan from the cap down and stop at the first
    best: List[int] = []
    for t in range(min(maxK, ub), 0, -1):
        best = scan(t, [], [], -1, 0) or []
        if best:
            break
    return best, not (len(best) >= maxK and maxK < ub)


def _setup(desc: SzmielewDescription, B: int) -> tuple:
    """The pool of a search at bound B, its blocks with slots, per block the
    bitmask of the candidates holding each local, and the validity check of
    a family of candidate indices."""
    primes, blocks = _pool(normalize(desc), B)
    # a block without slots (a finite-multiplicity cyclic block) can never
    # contribute an infinite index, so validity only depends on the locals
    # of the other blocks
    blocks = tuple(b for b in blocks if KINDS[b[0]].modes(b[2]))
    # divisibility candidates come first, as the search tries them
    pool = _Pool(primes, B, blocks)

    def family_valid(idxs: List[int]) -> bool:
        locs = [pool.key(pool.cand(i)) for i in idxs]
        return all(_index(blocks, rest, full).is_infinite
                   for rest, full in _leave_one_out(blocks, locs))

    return pool, blocks, pool.holders(), family_valid


def breadth_search(desc: SzmielewDescription, B: int, maxK: int) -> BreadthResult:
    if B < 1 or maxK < 1:
        raise ValueError("pool bound and depth cap must be >= 1")
    pool, blocks, holders, valid = _setup(desc, B)
    best, exhausted = _deepest(_slots(blocks, holders), maxK, holders, valid)
    return BreadthResult(len(best), tuple(map(pool.formula, best)), B,
                         exhausted)


# ---------------------------------------------------------------------------
# JSON


def verdict_json(v: InpVerdict) -> dict:
    return {"valid": v.valid,
            "transcript": [index_json(t) for t in v.transcript]}


def breadth_json(r: BreadthResult) -> dict:
    from .dsl import render_formula
    return {"depth": r.depth,
            "witness": [render_formula(f) for f in r.witness],
            "pool_bound": r.pool_bound,
            "exhausted": r.exhausted}
