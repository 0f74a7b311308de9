"""Brute-force verification of inp-pattern depth via the index criterion.

A family of p.p. subgroups witnesses depth k exactly when every
leave-one-out intersection has infinite index over the full intersection.
The search counts the canonical candidate pool and refuses it when it
exceeds the cap, before anything is built.  It then builds only the pool's
distinct profiles: tor(m) acts on each prime's blocks through the exponent
of that prime in m alone, so the torsion profiles are the products of one
class of exponents per prime, each represented by its least m, and the
single div atoms follow, kept where their profile is new.  It explores
families of those profiles depth-first with three prunings, all of which
preserve exhaustiveness:

  - a formula of finite index can never appear in a valid family;
  - validity is closed downward, so supersets of invalid families die;
  - every member of a valid family is the unique deepest local subgroup at
    some block, which bounds the depth by a per-block slot count.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .core import (Div, Index, PoolOverflowError, PPFormula,
                   SzmielewDescription, div, is_omega, is_prime, tor)
from .normalize import normalize
from .ppeval import (KINDS, Block, _formula_requirements, _index, _locals,
                     _meet_locals, index_json, materialize)

DEFAULT_MAX_POOL = 50000


def _max_pool() -> int:
    raw = os.environ.get("SZK_MAX_POOL")
    return int(raw) if raw else DEFAULT_MAX_POOL


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


def _search_key(f: PPFormula) -> int:
    # divisibility candidates are tried first during the family search
    return 0 if len(f.atoms) == 1 and isinstance(f.atoms[0], Div) else 1


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


def _profiles(primes: Sequence[int], B: int, blocks: Tuple[Block, ...]
              ) -> Iterator[Tuple[PPFormula, tuple]]:
    """Each distinct profile of the pool on blocks, with its representative.

    The pool is tor(m) for every m > 1 whose exponents over primes are at
    most B, by ascending m, then div(p, r, s) for 0 <= s < r <= B; the first
    formula of a profile represents it.  A torsion profile is one class of
    exponents per prime, grouped by the column of locals they give on that
    prime's blocks.  Its least m takes each class's least exponent, or, when
    that gives m = 1 (not in the pool), the second least at the one prime
    where that is cheapest; with no second exponent anywhere it has no tor.
    """
    key = list(_locals(blocks, tor(1)))     # prime-less blocks stay as is
    at: Dict[int, List[int]] = {p: [] for p in primes}
    for bi, (kind, data, _m) in enumerate(blocks):
        if KINDS[kind].has_prime:
            at[data[0]].append(bi)
    classes = []
    for p in primes:
        sub = tuple(blocks[bi] for bi in at[p])
        by_column: Dict[tuple, List[int]] = {}
        for e in range(B + 1):
            by_column.setdefault(_locals(sub, tor(p ** e)), []).append(e)
        classes.append([(p, column, es) for column, es in by_column.items()])
    tors = []
    for choice in itertools.product(*classes):
        m = 1
        for p, _column, es in choice:
            m *= p ** es[0]
        if m == 1:      # tor(1) is not in the pool
            nexts = [p ** es[1] for p, _column, es in choice if len(es) > 1]
            if not nexts:
                continue
            m = min(nexts)
        for p, column, _es in choice:
            for bi, v in zip(at[p], column):
                key[bi] = v
        tors.append((m, tuple(key)))
    tors.sort(key=lambda mk: mk[0])
    seen = set()
    for m, k in tors:
        seen.add(k)
        yield tor(m), k
    for p in primes:
        for r in range(1, B + 1):
            for s in range(r):
                f = div(p, r, s)
                k = _locals(blocks, f)
                if k not in seen:
                    seen.add(k)
                    yield f, k


def candidate_pool(desc: SzmielewDescription, B: int) -> List[PPFormula]:
    """Canonical single-atom pool plus coprime tor-products, profile-deduped."""
    if B < 1:
        raise ValueError("pool bound must be >= 1")
    primes, blocks = _pool(desc, B)
    return [f for f, _key in _profiles(primes, B, blocks)]


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


@dataclass(frozen=True)
class InpVerdict:
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


@dataclass(frozen=True)
class BreadthResult:
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
# a local in vals.  solve runs that test in its innermost pruning loop, so
# it is one comparison against a precomputed extreme.


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

    # dedup by relevant profile, drop finite-index subgroups
    cands = [(f, key) for f, key in _profiles(primes, B, blocks)
             if _index(blocks, whole, key).is_infinite]
    cands.sort(key=lambda fk: _search_key(fk[0]))

    ub = min(_slot_bound(blocks), len(cands))
    target = min(maxK, ub)
    slots = _slots_of(blocks)

    def family_valid(idxs: List[int]) -> bool:
        locs = [cands[i][1] for i in idxs]
        return all(_index(blocks, rest, full).is_infinite
                   for rest, full in _leave_one_out(blocks, locs))

    def solve(chosen_slots: Tuple[int, ...]) -> Optional[List[int]]:
        """Find a family occupying exactly these slots, or prove none exists.

        Members are searched as equivalence classes of candidates sharing
        their locals at the participating blocks; validity at these slots
        only depends on those locals, and any family witnessed elsewhere is
        found under the slot set naming its actual witness blocks.
        """
        S = [slots[si] for si in chosen_slots]
        bis = sorted({bi for bi, _mode in S})
        classes: List[Tuple[int, tuple]] = []      # (candidate index, projection)
        proj_seen = set()
        for ci, (_f, key) in enumerate(cands):
            proj = tuple(key[bi] for bi in bis)
            if proj not in proj_seen:
                proj_seen.add(proj)
                classes.append((ci, proj))
        pos = {bi: k for k, bi in enumerate(bis)}
        mults = [blocks[bi][2] for bi, _mode in S]
        at = [pos[bi] for bi, _mode in S]
        modes = [mode for _bi, mode in S]
        t = len(S)

        domains: List[List[int]] = []
        for k in range(t):
            domains.append([c for c in range(len(classes))
                            if modes[k].occupies(mults[k], classes[c][1][at[k]])])

        # prune every class that cannot lose to any possible occupant of a
        # slot, iterating to a fixed point
        changed = True
        while changed:
            changed = False
            for k in range(t):
                if not domains[k]:
                    return None
                ok = modes[k].loser(mults[k],
                                    [classes[c][1][at[k]] for c in domains[k]])
                for j in range(t):
                    if j == k:
                        continue
                    kept = [c for c in domains[j] if ok(classes[c][1][at[k]])]
                    if len(kept) != len(domains[j]):
                        domains[j] = kept
                        changed = True

        order = sorted(range(t), key=lambda k: len(domains[k]))

        def assign(step: int, doms: List[List[int]],
                   picked: List[Tuple[int, int]]) -> Optional[List[int]]:
            if step == t:
                reps = sorted(classes[c][0] for _k, c in picked)
                return reps if family_valid(reps) else None
            k = order[step]
            for c in doms[k]:
                vx = classes[c][1][at[k]]
                nxt = list(doms)
                dead = False
                for lk in order[step + 1:]:
                    kept = []
                    for z in doms[lk]:
                        if z == c:
                            continue
                        vz = classes[z][1]
                        if (modes[k].beats(mults[k], vx, vz[at[k]])
                                and modes[lk].beats(mults[lk], vz[at[lk]],
                                                    classes[c][1][at[lk]])):
                            kept.append(z)
                    if not kept:
                        dead = True
                        break
                    nxt[lk] = kept
                if dead:
                    continue
                got = assign(step + 1, nxt, picked + [(k, c)])
                if got is not None:
                    return got
            return None

        return assign(0, domains, [])

    best: List[int] = []
    for t in range(1, target + 1):
        found = None
        for chosen in itertools.combinations(range(len(slots)), t):
            used = [slots[si][0] for si in chosen]
            # two modes of one block (a tail) need multiplicity omega
            if any(used.count(bi) > 1 and not is_omega(blocks[bi][2])
                   for bi in set(used)):
                continue
            found = solve(chosen)
            if found is not None:
                break
        if found is None:
            break
        best = found
    capped = len(best) >= maxK and maxK < ub
    witness = tuple(cands[i][0] for i in best)
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
