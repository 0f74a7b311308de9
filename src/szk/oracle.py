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
columns per prime, each represented by its least m, and each new div
column is the whole subgroup elsewhere.  The bitmask of the candidates
holding each local is built per prime from those indices, one mask per
column, not per block.  It explores families of those profiles
depth-first with three prunings, all of which preserve exhaustiveness:

  - a formula of finite index can never appear in a valid family;
  - validity is closed downward, so supersets of invalid families die;
  - every member of a valid family is the unique deepest local subgroup at
    some block, which bounds the depth by a per-block slot count.

The depth levels are scanned from the cap down, and the scan stops at the
first level that holds a family.  This is exact: validity is closed
downward, so every level below the depth holds a family and none above it
does, and each level is searched exhaustively, so a level that fails holds
no family at all.  The family returned is the first of its level in slot-set
order, the one an upward scan would end on.
"""

from __future__ import annotations

import functools
import itertools
import os
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (Div, Index, PoolOverflowError, PPFormula, Record,
                   SzmielewDescription, Tor, is_omega, is_prime, tor)
from .normalize import normalize
from .ppeval import (KINDS, Block, _formula_requirements, _index, _locals,
                     _meet_locals, index_json, materialize)

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


def _pool(desc: SzmielewDescription, B: int
          ) -> Tuple[List[int], Tuple[Block, ...]]:
    """Pool primes and blocks; an over-cap pool is refused unbuilt."""
    strict = normalize(desc)
    primes = _pool_primes(strict)
    n = len(primes)
    # (B+1)^n - 1 torsion products and B(B+1)/2 div atoms per prime
    size = (B + 1) ** n - 1 + n * B * (B + 1) // 2
    if size > _max_pool():
        raise PoolOverflowError(
            "candidate pool has %d formulas, cap is %d (set SZK_MAX_POOL)"
            % (size, _max_pool()))
    bounds = {p: B for p in primes}
    extra = tuple(sorted(set(primes) - set(strict.primes())))
    return primes, materialize(strict, bounds, extra)


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

        # the class products, in itertools.product order; the first has
        # every class of exponent 0, m = 1 until fixed up
        ms = [1]
        for classes in pms:
            ms = [m * pm for m in ms for pm in classes]
        ms[0] = min(nexts, default=1)
        cands = itertools.product((0,), *[range(len(c)) for c in pms])
        self.tors = sorted(zip(ms, cands), key=itemgetter(0))[not nexts:]

        self.divs: List[Tuple[Div, tuple]] = []
        seen = {cand for _m, cand in self.tors}
        for g, firsts in enumerate(pdivs, 1):
            for atom, c in firsts:
                cand = (*wholes[:g], c, *wholes[g + 1:])
                if cand not in seen:
                    seen.add(cand)
                    self.divs.append((atom, cand))

    def key(self, cand: tuple) -> tuple:
        """The candidate's locals, in block order."""
        out = [None] * self.size
        for bis, cols, c in zip(self.groups, self.cols, cand):
            for bi, v in zip(bis, cols[c]):
                out[bi] = v
        return tuple(out)

    def holders(self) -> List[Dict[object, int]]:
        """Per block, each distinct local with the bitmask of the candidates
        holding it; bit ci of a mask is candidate ci of divs + tors, the
        order in which the search tries them.

        Per group, the few div candidates set their bits one at a time.
        The tors' column indices there are torsion classes: one code string
        of them is translated once per class.  Each column's mask is then
        or-ed into the holders of the group's blocks."""
        held: List[Dict[object, int]] = [{} for _ in range(self.size)]
        shift = len(self.divs)
        for g, (bis, cols) in enumerate(zip(self.groups, self.cols)):
            if not bis:
                continue
            masks: Dict[int, int] = {}
            for ci, (_atom, cand) in enumerate(self.divs):
                masks[cand[g]] = masks.get(cand[g], 0) | 1 << ci
            # the last tor first: bit ci of a mask is tor ci
            text = "".join([chr(cand[g]) for _m, cand in reversed(self.tors)])
            codes = "".join(sorted(set(text)))
            for j, code in enumerate(codes):
                bits = "0" * j + "1" + "0" * (len(codes) - j - 1)
                mask = int(text.translate(str.maketrans(codes, bits)), 2)
                masks[ord(code)] = masks.get(ord(code), 0) | mask << shift
            for c, mask in masks.items():
                for bi, v in zip(bis, cols[c]):
                    held[bi][v] = held[bi].get(v, 0) | mask
        return held


def candidate_pool(desc: SzmielewDescription, B: int) -> List[PPFormula]:
    """Canonical single-atom pool plus coprime tor-products, profile-deduped."""
    if B < 1:
        raise ValueError("pool bound must be >= 1")
    primes, blocks = _pool(desc, B)
    pool = _Pool(primes, B, blocks)
    return ([tor(m) for m, _cand in pool.tors]
            + [PPFormula.of(atom) for atom, _cand in pool.divs])


def _leave_one_out(blocks: Tuple[Block, ...], locs: Sequence[tuple]
                   ) -> Iterator[Tuple[tuple, tuple]]:
    """Per member: the meet of all other members, and the full meet."""
    whole = _locals(blocks, PPFormula.top())
    for i, li in enumerate(locs):
        rest = whole
        for j, lj in enumerate(locs):
            if j != i:
                rest = _meet_locals(blocks, rest, lj)
        yield rest, _meet_locals(blocks, rest, li)


class InpVerdict(Record):
    valid: bool
    transcript: Tuple[Index, ...]      # leave-one-out index per member


def verify_inp(desc: SzmielewDescription, family: Sequence[PPFormula]) -> InpVerdict:
    if not family:
        raise ValueError("family must be non-empty")
    strict = normalize(desc)
    bounds, extra = _formula_requirements(strict, family)
    blocks = materialize(strict, bounds, extra)
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
# KINDS[kind].modes(mult) names the modes of a block.  A mode gives
# occupies(mult, v), whether a member with local v can hold the slot;
# beats(mult, vx, vy), whether member y loses to the occupant x; and
# loser(mult, vals), a test of whether a local loses to some occupant with
# a local in vals.  Each test reads the local of one block only, so
# breadth_search runs each test once per distinct local: it keeps, per
# block, the bitmask of the candidates holding each local, and solve prunes
# its slot domains by and-ing such masks.  It then splits the live mask on
# the masks of its slot blocks and names each part by its lowest bit; the
# member search prunes the domains of those names with one beats mask per
# slot and local.


def _tf_key(v):
    return (1, 0) if v is None else (0, v)


class _Deepest:
    """Unique deepest on an omega chain; the zero subgroup (None) is deepest."""

    def occupies(self, mult, v):
        return _tf_key(v) > (0, 0)

    def beats(self, mult, vx, vy):
        return _tf_key(vy) < _tf_key(vx)

    def loser(self, mult, vals):
        top = max(_tf_key(v) for v in vals)
        return lambda v: _tf_key(v) < top


class _Degenerate:
    """The member hits a degenerate local that every other member avoids."""

    def __init__(self, hits, clear):
        self.hits, self.clear = hits, clear

    def occupies(self, mult, v):
        return self.hits(v)

    def beats(self, mult, vx, vy):
        return self.clear(vy)

    def loser(self, mult, vals):
        return self.clear


class _MinBound:
    """Unique minimal torsion bound on an omega divisible block."""

    def occupies(self, mult, v):
        return v is not None

    def beats(self, mult, vx, vy):
        return vy is None or vy > vx

    def loser(self, mult, vals):
        mn = min(vals)
        return lambda v: v is None or v > mn


class _TailBound:
    """Unique minimal torsion bound on a tail."""

    def occupies(self, mult, v):
        return v[1] is not None

    def beats(self, mult, vx, vy):
        return vy[1] is None or vy[1] > vx[1]

    def loser(self, mult, vals):
        mn = min(v[1] for v in vals)
        return lambda v: v[1] is None or v[1] > mn


class _TailOffset:
    """Unique maximal depth offset on a tail.  A finite-multiplicity tail
    additionally needs every bound unbounded, including the occupant's own."""

    def occupies(self, mult, v):
        return v[0] >= 1 and (is_omega(mult) or v[1] is None)

    def beats(self, mult, vx, vy):
        return vy[0] < vx[0] and (is_omega(mult) or vy[1] is None)

    def loser(self, mult, vals):
        top = max(v[0] for v in vals)
        if is_omega(mult):
            return lambda v: v[0] < top
        return lambda v: v[0] < top and v[1] is None


_MODES = {
    "max": _Deepest(),
    "tfzero": _Degenerate(lambda v: v is None, lambda v: v is not None),
    "divzero": _Degenerate(lambda v: v is not None, lambda v: v is None),
    "bool": _Degenerate(lambda v: v is False, lambda v: v is True),
    "divmin": _MinBound(),
    "tailb": _TailBound(),
    "taila": _TailOffset(),
}


def _slot_bound(blocks: Tuple[Block, ...]) -> int:
    """Upper bound on any valid family's size from unique-extreme slots.

    Each member of a valid family must be the strict extreme at some block:
    the unique deepest on a chain block, or the unique depth-offset maximum
    or torsion-bound minimum on a tail block.  A finite-multiplicity tail
    admits only one of the two: an offset jump with matching bounds has a
    finite limit, so it needs multiplicity omega to go infinite, and the
    all-unbounded configuration the offset slot needs excludes any member
    with a finite bound there.
    """
    total = 0
    for kind, _data, mult in blocks:
        n = len(KINDS[kind].modes(mult))
        total += n if is_omega(mult) else min(n, 1)
    return total


def _slots_of(blocks: Tuple[Block, ...]) -> List[tuple]:
    """One (block index, mode) entry per slot of each block."""
    return [(bi, _MODES[name]) for bi, (kind, _data, mult) in enumerate(blocks)
            for name in KINDS[kind].modes(mult)]


def breadth_search(desc: SzmielewDescription, B: int, maxK: int) -> BreadthResult:
    if B < 1 or maxK < 1:
        raise ValueError("pool bound and depth cap must be >= 1")
    primes, blocks = _pool(desc, B)
    # a block without slots (a finite-multiplicity cyclic block) can never
    # contribute an infinite index, so validity only depends on the locals
    # of the other blocks
    blocks = tuple(b for b in blocks if KINDS[b[0]].modes(b[2]))
    whole = _locals(blocks, PPFormula.top())

    # the pool's profiles, divisibility candidates first as the search tries
    # them, and per block the bitmask of the candidates holding each local
    pool = _Pool(primes, B, blocks)
    cands = pool.divs + pool.tors
    holders = pool.holders()

    def holding(bi: int, test) -> int:
        # one block's masks are disjoint, so their sum is their union
        return sum(m for v, m in holders[bi].items() if test(v))

    # a finite-index subgroup is never a member: only the candidates whose
    # local has infinite index in the whole at some block can occupy a slot
    infinite = 0
    for bi, ((kind, data, mult), w) in enumerate(zip(blocks, whole)):
        infinite |= holding(bi, lambda v: v != w and
                            KINDS[kind].index(data, mult, w, v) is None)
    ub = min(_slot_bound(blocks), infinite.bit_count())
    target = min(maxK, ub)
    slots = _slots_of(blocks)
    occupiable = [
        infinite & holding(bi, lambda v: mode.occupies(blocks[bi][2], v))
        for bi, mode in slots]

    def family_valid(idxs: List[int]) -> bool:
        locs = [pool.key(cands[i][1]) for i in idxs]
        return all(_index(blocks, rest, full).is_infinite
                   for rest, full in _leave_one_out(blocks, locs))

    # per slot, one mask per local, built once per search: the candidates
    # whose local at the slot's block loses to an occupant with local vx,
    # and those that occupy the slot and beat a member with local vc
    lost: Dict[Tuple[int, object], int] = {}
    won: Dict[Tuple[int, object], int] = {}

    def losing(si: int, vx) -> int:
        if (si, vx) not in lost:
            bi, mode = slots[si]
            mult = blocks[bi][2]
            lost[si, vx] = holding(bi, lambda v: mode.beats(mult, vx, v))
        return lost[si, vx]

    def winning(si: int, vc) -> int:
        if (si, vc) not in won:
            bi, mode = slots[si]
            mult = blocks[bi][2]
            won[si, vc] = holding(bi, lambda v: (mode.occupies(mult, v)
                                                 and mode.beats(mult, v, vc)))
        return won[si, vc]

    def local(bi: int, bit: int):
        """The local at block bi of the candidate with this bit."""
        return next(v for v, m in holders[bi].items() if m & bit)

    def solve(chosen_slots: Tuple[int, ...]) -> Optional[List[int]]:
        """Find a family occupying exactly these slots, or prove none exists.

        Each domain, a bitmask over the candidates, starts as those that can
        occupy its slot and is pruned to a fixed point.  Only if none empties
        are members searched.  Validity at these slots only depends on the
        locals at the slot blocks, so the live candidates fall into classes
        that share those locals, and each class is named by its lowest bit:
        a domain keeps only the names, and members are tried by ascending
        bit.  Any family witnessed elsewhere is found under the slot set
        naming its actual witness blocks.
        """
        S = [slots[si] for si in chosen_slots]
        mults = [blocks[bi][2] for bi, _mode in S]
        modes = [mode for _bi, mode in S]
        t = len(S)

        masks = [occupiable[si] for si in chosen_slots]
        changed = True
        while changed:
            changed = False
            for k in range(t):
                if not masks[k]:
                    return None
                bi = S[k][0]
                ok = modes[k].loser(mults[k], [v for v, m in holders[bi].items()
                                               if m & masks[k]])
                keep = holding(bi, ok)
                for j in range(t):
                    if j != k and masks[j] & keep != masks[j]:
                        masks[j] &= keep
                        changed = True

        live = 0
        for d in masks:
            live |= d
        parts = [live]
        for bi in {bi for bi, _mode in S}:
            parts = [sub for part in parts for m in holders[bi].values()
                     if (sub := part & m)]
        reps = 0
        for part in parts:
            reps |= part & -part
        domains = [d & reps for d in masks]
        order = sorted(range(t), key=lambda k: domains[k].bit_count())

        def assign(step: int, doms: List[int], picked: List[int]
                   ) -> Optional[List[int]]:
            if step == t:
                idxs = sorted(bit.bit_length() - 1 for bit in picked)
                return idxs if family_valid(idxs) else None
            k, later = order[step], order[step + 1:]
            si, bi = chosen_slots[k], S[k][0]
            todo = doms[k]
            while todo:
                low = todo & -todo
                todo ^= low
                beaten = losing(si, local(bi, low)) & ~low if later else 0
                nxt = list(doms)
                for lk in later:
                    nxt[lk] &= beaten & winning(chosen_slots[lk],
                                                local(S[lk][0], low))
                    if not nxt[lk]:
                        break
                else:
                    got = assign(step + 1, nxt, picked + [low])
                    if got is not None:
                        return got
            return None

        return assign(0, domains, [])

    # validity is closed downward, so the depth is the highest level that
    # holds a family: scan from the cap down and stop at the first
    best: List[int] = []
    for t in range(target, 0, -1):
        for chosen in itertools.combinations(range(len(slots)), t):
            used = [slots[si][0] for si in chosen]
            # two modes of one block (a tail) need multiplicity omega
            if any(used.count(bi) > 1 and not is_omega(blocks[bi][2])
                   for bi in set(used)):
                continue
            found = solve(chosen)
            if found is not None:
                best = found
                break
        if best:
            break
    capped = len(best) >= maxK and maxK < ub
    witness = tuple(PPFormula.of(cands[i][0]) if i < len(pool.divs)
                    else tor(cands[i][0]) for i in best)
    return BreadthResult(len(best), witness, B, exhausted=not capped)


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
