"""Brute-force oracle: pool, family verification, breadth search."""

import itertools
import math
import random

import pytest

from szk import corpus, oracle
from szk.core import (OMEGA, SPLIT_CAP, Div, PPFormula, div, is_omega,
                      make_prime_tail, tor)
from szk.dsl import parse_formula, parse_group, render_formula
from szk.normalize import derived_sets, normalize
from szk.oracle import (PoolOverflowError, breadth_search, candidate_pool,
                        verify_inp)
from szk.ppeval import KINDS, _index, _locals
from szk.rank import dp_rank
from tests.conftest import MANY_FAILING_LEAVES, within

G10 = ("Z(2^1)^w + Z(2^3)^w + Z(2^5)^w + Z(2^7)^w + Z(3^1)^w + Z(3^3)^w"
       " + Z_(5)^w + Z_(7)^w + Z(11^inf)^w + tail(13)")


# the oracle_deep ladder: (group, pool bound, depth cap)
DEEP_RUNGS = [("tail(2,w)", 14, 5), ("tail(2,w)", 16, 5),
              ("tail(2,w) + tail(3,w)", 8, 4), (G10, 3, 10)]


# the slowest item of a fuzz round: B0 = 7
SLOW_FUZZ_ITEM = ("Z(2^4)^w + Z(7^5) + Z_(2) + Z(5^inf)^2 + Z(7^inf)"
                  " + forall_p{Z_(P)^2 + Z(P^inf)^2}")


# the shape of the fuzz tail: three listed primes and a prime tail at
# B0 = 7, where every torsion profile is distinct (8^4 - 1 = 4,095 tors)
P98_SHAPE = ("Z(5^1)^2 + tail(2,cutoff=3) + tail(5,cutoff=3) + tail(7,cutoff=5)"
             " + Z(2^inf)^w + forall_p{Z_(P) + Z(P^inf)^2}")

# the slowest searches found with a cap above the depth, where every level
# above the depth fails before the depth's level holds a family:
# (group, pool bound, depth cap, depth)
CAP_ABOVE_DEPTH = [
    ("Z(2^3)^w + tail(5,cutoff=2) + Z_(2)^w"
     " + forall_p{Z(P^3) + Z_(P) + Z(P^inf)^2}", 4, 6, 2),
    ("Z_(2) + Z_(5)^2 + Z(2^inf)^2 + Z(5^inf)^2 + Z(7^inf)^2 + Q^w"
     " + forall_p{Z_(P)^2 + Z(P^inf)^2}", 2, 6, 1),
]

# searches in bounded time: (group, pool bound, depth cap, depth, exhausted,
# budget in s).  The oracle_deep rungs take 5-40 ms; without the winning
# masks, a member search that prunes by the occupant's losers alone takes
# over 3 s on G10.  At the cap's level of tail2-24 and tail23-16 almost every
# slot set holds two adjacent omega blocks, a pair whose fixed point empties
# a domain, and the scan grows no slot set past such a pair.
BOUNDED_SEARCHES = [
    pytest.param(*CAP_ABOVE_DEPTH[0], True, 0.05, id="tail5"),
    pytest.param(*CAP_ABOVE_DEPTH[1], True, 0.05, id="q-div"),
    pytest.param(*DEEP_RUNGS[0], 5, False, 0.5, id="tail2-14"),
    pytest.param(*DEEP_RUNGS[1], 5, False, 0.5, id="tail2-16"),
    pytest.param(*DEEP_RUNGS[2], 4, False, 0.5, id="tail23-8"),
    pytest.param(*DEEP_RUNGS[3], 7, True, 0.5, id="g10-3"),
    pytest.param("tail(2,w)", 24, 5, 5, False, 1.5, id="time-budget"),
    pytest.param("tail(2,w)", 24, 13, 13, False, 1.0, id="tail2-24"),
    pytest.param("tail(2,w) + tail(3,w)", 16, 16, 16, False, 1.0,
                 id="tail23-16"),
]

# the tail ladders, where adjacent omega blocks conflict in pairs: (group,
# pool bound, depth)
TAIL_LADDERS = ([("tail(2,w)", B, (B + 3) // 2) for B in range(1, 9)]
                + [("tail(2,w) + tail(3,w)", B, depth)
                   for B, depth in zip(range(1, 5), (3, 4, 6, 6))])


def witness_set(result):
    return {render_formula(f) for f in result.witness}


def brute_force_profiles(primes, B, blocks):
    """Every pool formula in pool order, keeping the first of each profile.

    Torsion products of prime powers over distinct primes by ascending
    modulus, then single div atoms: the order that decides which formula
    represents a profile.
    """
    tors = []
    for k in range(1, len(primes) + 1):
        for subset in itertools.combinations(primes, k):
            for exps in itertools.product(range(1, B + 1), repeat=k):
                m = 1
                for p, e in zip(subset, exps):
                    m *= p ** e
                tors.append(m)
    formulas = [tor(m) for m in sorted(tors)]
    formulas += [div(p, r, s) for p in primes
                 for r in range(1, B + 1) for s in range(r)]
    seen = set()
    out = []
    for f in formulas:
        key = _locals(blocks, f)
        if key not in seen:
            seen.add(key)
            out.append((f, key))
    return out


def brute_force_holders(size, keys):
    """Per block, each local with the bitmask of the keys holding it."""
    held = [{} for _ in range(size)]
    for ci, key in enumerate(keys):
        for bi, v in enumerate(key):
            held[bi][v] = held[bi].get(v, 0) | 1 << ci
    return held


def search_order(pool):
    """(formula, candidate) per search index of a pool: the div candidates,
    then the torsion products by ascending m."""
    return [(pool.formula(ci), pool.cand(ci))
            for ci in range(len(pool.divs) + len(pool.order))]


def is_div(formula):
    return isinstance(formula.atoms[0], Div)


# The reference's slot modes, one predicate class per mode: occupies(mult,
# v), whether a member with local v can hold the slot; beats(mult, vx, vy),
# whether member y loses to the occupant x; and loser(mult, vals), a test of
# whether a local loses to some occupant with a local in vals.


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


MODES = {
    "max": _Deepest(),
    "tfzero": _Degenerate(lambda v: v is None, lambda v: v is not None),
    "divzero": _Degenerate(lambda v: v is not None, lambda v: v is None),
    "bool": _Degenerate(lambda v: v is False, lambda v: v is True),
    "divmin": _MinBound(),
    "tailb": _TailBound(),
    "taila": _TailOffset(),
}


def slot_bound(blocks):
    """A family holds one slot per finite-multiplicity block, and one per
    mode at an omega block."""
    return sum(len(KINDS[kind].modes(mult)) if is_omega(mult) else 1
               for kind, _data, mult in blocks)


def reference_breadth_search(desc, B, maxK):
    """The search that projects every candidate onto the slot blocks on each
    solve call, filters the pool by one index computation per profile, and
    tests each slot by its mode's predicates."""
    primes, blocks = oracle._pool(normalize(desc), B)
    blocks = tuple(b for b in blocks if KINDS[b[0]].modes(b[2]))
    whole = _locals(blocks, PPFormula.top())
    cands = [(f, key) for f, key in brute_force_profiles(primes, B, blocks)
             if _index(blocks, whole, key).is_infinite]
    # divisibility candidates are tried first
    cands.sort(key=lambda fk: not isinstance(fk[0].atoms[0], Div))
    ub = min(slot_bound(blocks), len(cands))
    target = min(maxK, ub)
    slots = [(bi, MODES[name]) for bi, (kind, _data, mult) in enumerate(blocks)
             for name in KINDS[kind].modes(mult)]

    def family_valid(idxs):
        locs = [cands[i][1] for i in idxs]
        return all(_index(blocks, rest, full).is_infinite
                   for rest, full in oracle._leave_one_out(blocks, locs))

    def solve(chosen_slots):
        S = [slots[si] for si in chosen_slots]
        bis = sorted({bi for bi, _mode in S})
        classes = []
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
        domains = [[c for c in range(len(classes))
                    if modes[k].occupies(mults[k], classes[c][1][at[k]])]
                   for k in range(t)]
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

        def assign(step, doms, picked):
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

    best = []
    for t in range(1, target + 1):
        found = None
        for chosen in itertools.combinations(range(len(slots)), t):
            used = [slots[si][0] for si in chosen]
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
    return len(best), tuple(cands[i][0] for i in best), not capped


# every block kind, omega multiplicities and prime tails
HAND_PICKED = [
    "forall_p{Z_(P)}",
    "forall_p{Z(P^1)^w} + Z(3^2)^w",
    "tail(2,w)",
    "Z_(2)^w + Z_(3)^w",
    "Q",
    "Z(2^3)^2 + Z_(3) + Z(5^inf) + Q + tail(2,cutoff=1) + forall_p{Z_(P)^2}",
    "Z(2^3)^w + Z_(3)^w + Z(5^inf)^w + Q^w + tail(2,w,cutoff=1)"
    " + forall_p{Z(P^1)^w}",
    "Z(2^1)^w + Z(8)^w + tail(3)",
]

# edge shapes of the per-prime pool and of the class split in solve
EDGE = {
    "no-slot-cyc": "Z(2^3)",
    "no-slot-two-primes": "Z(2^1)^3 + Z(3^2)",
    "one-slot-q": "Q",
    "one-slot-tf": "Z_(2)",
    "prime-tail-only": "forall_p{Z_(P)}",
    "m1-fixup": "Z_(2)^w + Z_(3)^w",
}


class TestCandidatePool:
    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            candidate_pool(parse_group("Q"), 0)

    def test_tor_atom_represents_its_profile_class(self):
        pool = candidate_pool(parse_group("Z(2^1)^w + Z(8)^w"), 4)
        texts = {render_formula(f) for f in pool}
        # tor(2) and div(2,3,1) cut out the same profile; the torsion atom
        # is enumerated first and wins the class
        assert "tor(2)" in texts
        assert "div(2,3,1)" not in texts

    def test_includes_coprime_products(self):
        pool = candidate_pool(parse_group("Z(2^inf)^w + Z(3^inf)^w"), 1)
        texts = {render_formula(f) for f in pool}
        assert "tor(6)" in texts

    def test_overflow_cap(self, monkeypatch):
        monkeypatch.setenv("SZK_MAX_POOL", "10")
        with pytest.raises(PoolOverflowError):
            candidate_pool(parse_group("Z(2^inf)^w + Z(3^inf)^w"), 4)

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5", "2e3"])
    def test_bad_cap(self, monkeypatch, raw):
        monkeypatch.setenv("SZK_MAX_POOL", raw)
        with pytest.raises(ValueError) as info:
            candidate_pool(parse_group("Q"), 1)
        assert str(info.value) == (
            "SZK_MAX_POOL must be a positive integer, got %r" % raw)

    def test_overflow_checked_before_enumeration(self):
        # about 5e9 div atoms: only an arithmetic count can refuse it in time
        with within(1.0), pytest.raises(PoolOverflowError,
                                        match="5000150000 formulas"):
            breadth_search(parse_group("Z(2^1)^w"), 100000, 6)

    @pytest.mark.parametrize("text,B", [("tail(2)", 314),
                                        ("tail(2) + tail(3)", 157)])
    def test_split_cap_admits_the_default_pools(self, text, B):
        # the largest pools under the default cap split their tails at B
        _primes, blocks = oracle._pool(normalize(parse_group(text)), B)
        cyc = sum(kind == "cyc" for kind, _d, _m in blocks)
        assert cyc == B * text.count("tail")
        with pytest.raises(PoolOverflowError):
            oracle._pool(normalize(parse_group(text)), B + 1)

    def test_split_cap_refuses_what_the_pool_cap_admits(self, monkeypatch):
        # the pool splits tail(2) at B, past SPLIT_CAP: refused before any
        # block is built
        B = SPLIT_CAP + 1
        monkeypatch.setenv("SZK_MAX_POOL", str(10 ** 9))
        with within(1.0), pytest.raises(ValueError,
                                        match="^tail splits need %d " % B):
            breadth_search(parse_group("tail(2)"), B, 2)


class TestProfileSpacePool:
    """The pool built per prime equals the enumerated and deduplicated one."""

    def groups(self):
        rng = random.Random(2024)
        descs = [corpus.random_description(rng) for _ in range(60)]
        return descs + [parse_group(t) for t in HAND_PICKED + list(EDGE.values())]

    def test_matches_brute_force(self):
        checked = 0
        for desc in self.groups():
            for B in range(1, desc.max_exponent() + 3):
                primes, blocks = oracle._pool(normalize(desc), B)
                # candidate_pool's blocks, and breadth_search's slotted ones
                slotted = tuple(b for b in blocks if KINDS[b[0]].modes(b[2]))
                for bl in (blocks, slotted):
                    pool = oracle._Pool(primes, B, bl)
                    got = [(f, pool.key(c)) for f, c in search_order(pool)]
                    # the pool's order: the tors, then the divs
                    assert sorted(got, key=lambda fk: is_div(fk[0])) == \
                        brute_force_profiles(primes, B, bl), (desc, B)
                    # the search's order: the div candidates first
                    keys = [key for _f, key in got]
                    assert pool.holders() == brute_force_holders(
                        len(bl), keys), (desc, B)
                    checked += 1
        assert checked > 500

    def test_zero_exponent_classes(self):
        # tor(m) cuts out zero on torsion-free blocks for every m: the one
        # torsion profile holds the exponent vector 0 (m = 1, not in the
        # pool), so the next exponent at the cheapest prime represents it
        for B in (1, 3):
            pool = candidate_pool(parse_group("Z_(2)^w + Z_(3)^w"), B)
            assert pool[0] == tor(2)
            assert tor(3) not in pool and tor(4) not in pool
        # on Z(2) only m = 1 cuts out zero among the tors, so that profile
        # has no tor and div(2,1,0) represents it
        pool = candidate_pool(parse_group("Z(2^1)"), 2)
        assert [render_formula(f) for f in pool] == ["tor(2)", "div(2,1,0)"]


class TestPoolTimeBudget:
    def test_g10_at_five(self):
        with within(1.0):
            candidate_pool(parse_group(G10), 5)

    def test_g10_at_b0(self, monkeypatch):
        # 1,000,269 formulas, over the default cap; built in profile space
        monkeypatch.setenv("SZK_MAX_POOL", "2000000")
        with within(2.0):
            pool = candidate_pool(parse_group(G10), 9)
        assert len(pool) == 3294

    def test_slowest_fuzz_item_at_b0(self):
        # 2,586 candidates over four pool primes, each column set built cold
        g = parse_group(SLOW_FUZZ_ITEM)
        dp = dp_rank(g).dp
        oracle._prime_columns.cache_clear()
        with within(0.1):
            r = breadth_search(g, 7, dp + 1)
        assert (r.depth, r.exhausted) == (dp, True)
        assert len(search_order(oracle._setup(g, 7)[0])) == 2586

    @pytest.mark.parametrize("text,B,maxK,depth,exhausted,seconds",
                             BOUNDED_SEARCHES)
    def test_bounded_search(self, text, B, maxK, depth, exhausted, seconds):
        g = parse_group(text)
        with within(seconds):
            r = breadth_search(g, B, maxK)
        assert (r.depth, r.exhausted) == (depth, exhausted)


class TestVerifyInp:
    def test_singleton_valid(self):
        v = verify_inp(parse_group("Z_(2)^w"), [parse_formula("div(2,1,0)")])
        assert v.valid
        assert all(t.is_infinite for t in v.transcript)

    def test_pinned_pair_valid(self):
        v = verify_inp(parse_group("Z(2^1)^w + Z(8)^w"),
                       [parse_formula("tor(2)"), parse_formula("div(2,1,0)")])
        assert v.valid

    def test_pinned_pair_invalid(self):
        v = verify_inp(parse_group("Z(2^1)^w + Z(4)^w"),
                       [parse_formula("tor(2)"), parse_formula("div(2,1,0)")])
        assert not v.valid
        assert any(not t.is_infinite for t in v.transcript)

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError):
            verify_inp(parse_group("Q"), [])

    def test_transcript_length(self):
        fam = [parse_formula("div(2,1,0)"), parse_formula("div(3,1,0)")]
        v = verify_inp(parse_group("Z_(2)^w + Z_(3)^w"), fam)
        assert len(v.transcript) == 2


class TestBreadthSearch:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            breadth_search(parse_group("Q"), 0, 3)
        with pytest.raises(ValueError):
            breadth_search(parse_group("Q"), 2, 0)

    def test_torsion_free_ladder(self):
        primes = [2, 3, 5, 7]
        for k in range(1, 5):
            text = " + ".join("Z_(%d)^w" % p for p in primes[:k])
            r = breadth_search(parse_group(text), 2, 5)
            assert r.depth == k
            assert witness_set(r) == {"div(%d,1,0)" % p for p in primes[:k]}

    def test_divisible_ladder(self):
        primes = [2, 3, 5, 7]
        for k in range(1, 5):
            text = " + ".join("Z(%d^inf)^w" % p for p in primes[:k])
            r = breadth_search(parse_group(text), 1, 5)
            assert r.depth == k
            expected = set()
            for p in primes[:k]:
                m = 1
                for q in primes[:k]:
                    if q != p:
                        m *= q
                expected.add("tor(%d)" % (m if k > 1 else p))
            assert witness_set(r) == expected

    def test_finite_exponent_pair(self):
        r = breadth_search(parse_group("Z(2^1)^w + Z(8)^w"), 4, 4)
        assert r.depth == 2
        assert witness_set(r) == {"tor(2)", "div(2,1,0)"}
        assert breadth_search(parse_group("Z(2^1)^w + Z(4)^w"), 4, 4).depth == 1

    def test_mixed_tail_cases(self):
        assert breadth_search(parse_group("tail(2) + Z(3^inf)^w"), 6, 4).depth == 2
        assert breadth_search(parse_group("tail(2)"), 6, 4).depth == 1
        # the divisible part is absorbed by the tail before searching
        assert breadth_search(parse_group("tail(2) + Z(2^inf)^w"), 6, 4).depth == 1

    def test_non_strong_tail_grows(self):
        r = breadth_search(parse_group("tail(2,w)"), 14, 3)
        assert r.depth == 3
        assert not r.exhausted
        assert verify_inp(parse_group("tail(2,w)"), list(r.witness)).valid

    def test_exhausted_flag(self):
        # depth capped by maxK below what the pool could witness
        capped = breadth_search(parse_group("Z_(2)^w + Z_(3)^w"), 2, 1)
        assert capped.depth == 1 and not capped.exhausted
        full = breadth_search(parse_group("Z_(2)^w + Z_(3)^w"), 2, 5)
        assert full.depth == 2 and full.exhausted

    def test_depth_monotone_in_pool_bound(self):
        g = parse_group("Z(2^1)^w + Z(8)^w + tail(3)")
        depths = [breadth_search(g, B, 6).depth for B in (1, 2, 3, 4, 5)]
        assert depths == sorted(depths)
        assert depths[-1] == dp_rank(g).dp

    def test_witnesses_reverify(self, finite_dp_corpus):
        for desc in finite_dp_corpus[:25]:
            report = dp_rank(desc)
            b0 = desc.max_exponent() + 2
            r = breadth_search(desc, b0, report.dp + 1)
            if r.depth:
                assert verify_inp(desc, list(r.witness)).valid

    def test_differential_sample(self):
        rng = random.Random(777)
        for _ in range(50):
            desc = corpus.random_description(rng)
            report = dp_rank(desc)
            b0 = desc.max_exponent() + 2
            r = breadth_search(desc, b0, report.dp + 1)
            assert r.depth == report.dp


class TestSearchMatchesReference:
    """The once-per-search masks return what per-call projection returned."""

    def check(self, desc, B, maxK):
        r = breadth_search(desc, B, maxK)
        assert (r.depth, r.witness, r.exhausted) == reference_breadth_search(
            desc, B, maxK), (desc, B, maxK)

    def test_finite_dp_corpus_at_b0(self):
        rng = random.Random(4242)
        for _ in range(60):
            desc = corpus.random_description(rng)
            self.check(desc, desc.max_exponent() + 2, dp_rank(desc).dp + 1)

    @staticmethod
    def memo_cases():
        # one prime's blocks at several B, and the same blocks beside
        # different other primes, after the corpus
        rng = random.Random(4242)
        cases = []
        for _ in range(60):
            desc = corpus.random_description(rng)
            cases.append((desc, desc.max_exponent() + 2, dp_rank(desc).dp + 1))
        for text in ["Z(2^3)^w + Z_(2)^w", "Z(2^3)^w + Z_(2)^w + Z(3^inf)^w",
                     "Z(2^3)^w + Z_(2)^w + Z_(5)^w + tail(3)",
                     "Z(2^3)^w + Z_(2)^w + forall_p{Z_(P)}"]:
            cases += [(parse_group(text), B, 4) for B in (1, 2, 3, 5)]
        return cases

    def replay(self, memo):
        """Check the cases forward from an empty memo, then in reverse:
        answers never depend on what the memo holds."""
        memo.cache_clear()
        cases = self.memo_cases()
        for case in cases:
            self.check(*case)
        forward = memo.cache_info()
        assert forward.hits > 0
        for case in reversed(cases):
            self.check(*case)
        info = memo.cache_info()
        assert info.misses == forward.misses and info.hits > forward.hits

    def test_prime_memo_forward_and_reversed(self):
        self.replay(oracle._prime_columns)

    def test_block_memo_forward_and_reversed(self):
        self.replay(oracle._block_table)

    def test_product_memo_forward_and_reversed(self):
        self.replay(oracle._products)

    @staticmethod
    def bounded(memo, bound):
        maxsize = memo.cache_info().maxsize
        assert maxsize == bound
        assert isinstance(maxsize, int) and 0 < maxsize <= 10 ** 5

    def test_prime_memo_is_bounded(self):
        self.bounded(oracle._prime_columns, oracle.PRIME_MEMO)

    def test_block_memo_is_bounded(self):
        self.bounded(oracle._block_table, oracle.BLOCK_MEMO)

    def test_product_memo_is_bounded(self):
        self.bounded(oracle._products, oracle.PRODUCT_MEMO)

    def test_pools_sharing_a_product_space(self):
        # the same classes of exponents at 2 and 3 on different blocks: the
        # second pool reads the first one's product space from the memo
        texts = ["Z(2^3)^w + Z(3^1)^w",
                 "Z(2^3)^w + Z_(2)^w + Z(3^1)^2 + Z_(3)^w + Q^w"]
        oracle._products.cache_clear()
        pools = []
        for text in texts:
            primes, blocks = oracle._pool(normalize(parse_group(text)), 4)
            pool = oracle._Pool(primes, 4, blocks)
            keys = [pool.key(c) for _f, c in search_order(pool)]
            assert pool.holders() == brute_force_holders(len(blocks), keys)
            pools.append((pool, blocks))
        (first, fb), (second, sb) = pools
        assert (first.pms, first.m0) == (second.pms, second.m0)
        assert fb != sb and search_order(first) != search_order(second)
        info = oracle._products.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        for text in texts:
            self.check(parse_group(text), 4, 6)

    def test_four_pool_primes_at_b0(self):
        # three listed primes and a prime tail: the slowest stratum of fuzz
        rng = random.Random(9090)
        checked = 0
        while checked < 40:
            desc = corpus.random_description(rng)
            strict = normalize(desc)
            if len(strict.primes()) == 3 and strict.prime_tail is not None:
                assert len(oracle._pool_primes(strict)) == 4
                self.check(desc, strict.max_exponent() + 2,
                           dp_rank(desc).dp + 1)
                checked += 1

    def test_caps_above_the_depth(self, finite_dp_corpus, mixed_corpus):
        # levels are scanned from the cap down, so every level above the
        # depth fails before the depth's level holds a family.  A cap two
        # over the slot bound starts at the highest level the search allows;
        # 6 is the CLI default
        for desc in finite_dp_corpus[:40] + mixed_corpus[:40]:
            B = min(normalize(desc).max_exponent() + 2, 4)
            for maxK in (slot_bound(oracle._setup(desc, B)[1]) + 2, 6):
                self.check(desc, B, maxK)
        for text, B, maxK, _depth in CAP_ABOVE_DEPTH:
            self.check(parse_group(text), B, maxK)

    def test_many_failing_leaves(self):
        # leaf after leaf fails here, so partial families are checked before
        # they grow; at B = 3, cap 5 the reference takes minutes
        g = parse_group(MANY_FAILING_LEAVES)
        for B, maxK in ((2, 5), (3, 4)):
            self.check(g, B, maxK)

    def test_slowest_fuzz_shape(self):
        g = parse_group(P98_SHAPE)
        pool = oracle._setup(g, 7)[0]
        # over a third of the m's are past 2^30, multi-digit ints: the search
        # order is still an exact sort of the class products by m
        products = [(math.prod(map(tuple.__getitem__, pool.pms, cs)), cs)
                    for cs in itertools.product(*map(range, pool.counts))]
        products[0] = (pool.m0, products[0][1])
        assert sum(m > 2 ** 30 for m, _cs in products) > len(products) // 3
        tors = [(f.atoms[0].m, c) for f, c in search_order(pool)
                if not is_div(f)]
        assert tors == sorted(p for p in products if p[0] > 1)
        assert len(tors) == 4095
        for maxK in (dp_rank(g).dp + 1, 6):
            self.check(g, 7, maxK)

    def test_cap_level_first_slot_set(self):
        # three omega torsion-free blocks at cap 3: the first slot set of the
        # cap's level holds the family, so no level fails before it
        r = breadth_search(parse_group("Z_(2)^w + Z_(3)^w + Z_(5)^w"), 2, 3)
        assert (r.depth, r.exhausted) == (3, True)
        self.check(parse_group("Z_(2)^w + Z_(3)^w + Z_(5)^w"), 2, 3)

    @pytest.mark.parametrize("text", EDGE.values(), ids=EDGE.keys())
    def test_edge_shapes(self, text):
        for B in (1, 2, 4):
            for maxK in (1, 3):
                self.check(parse_group(text), B, maxK)

    @pytest.mark.parametrize("text,B,maxK", DEEP_RUNGS,
                             ids=["tail2-14", "tail2-16", "tail23-8", "g10-3"])
    def test_deep_rungs(self, text, B, maxK):
        self.check(parse_group(text), B, maxK)

    def test_tail_ladder(self):
        for B in range(1, 11):
            self.check(parse_group("tail(2,w)"), B, 12)

    @pytest.mark.parametrize("text,B,depth", TAIL_LADDERS, ids=[
        "%s-%d" % ("tail23" if "3" in text else "tail2", B)
        for text, B, _depth in TAIL_LADDERS])
    def test_tail_ladders_at_and_above_the_depth(self, text, B, depth):
        # the scan grows no slot set whose fixed point has emptied a domain;
        # the reference solves every set.  At depth + 1 the cap's level fails
        g = parse_group(text)
        for maxK in (depth, depth + 1):
            self.check(g, B, maxK)
        assert breadth_search(g, B, depth + 1).depth == depth

    @pytest.mark.parametrize("text", [
        "Z(2^1)^2 + Z(3^4)^2 + Z_(2)^2 + Z_(7)^2",
        "Z(3^1) + Z(3^5) + forall_p{Z_(P)}",
        "Z_(3)^2 + Z(3^inf)^2 + Q"])
    def test_cap_at_the_infinite_index_count(self, text):
        # one candidate of infinite index: depth 1 at cap 1 is exhausted,
        # though the pool holds more candidates and the slots allow more
        r = breadth_search(parse_group(text), 1, 1)
        assert (r.depth, r.exhausted) == (1, True)
        self.check(parse_group(text), 1, 1)


def every_local(block, B):
    """Every local coordinate a block can take with exponents up to B."""
    kind, data, _mult = block
    depths = list(range(B + 1))
    if kind == "cyc":
        return list(range(data[1] + 1))
    if kind in ("tf", "div"):
        return depths + [None]
    if kind == "tail":
        return [(a, b) for a in depths for b in depths + [None]]
    return [True, False]


# one block of each kind at B <= 4, at finite and omega multiplicities
SHAPE = make_prime_tail({1: 1}, 1, 0)
TABLE_BLOCKS = [(kind, data, mult) for kind, data in [
    ("cyc", (2, 3)), ("tf", (2,)), ("div", (3,)), ("q", ()),
    ("tail", (2, 4)), ("tail", (5, 0)), ("ptail", (SHAPE, (2,)))]
    for mult in (1, 3, OMEGA) if KINDS[kind].modes(mult)]


class TestRankTables:
    """The search's rank tables give what the reference's predicates give:
    occupies, beats against an occupant, and loser against occupants."""

    def check(self, block, vals):
        kind, data, mult = block
        entry = KINDS[kind]
        tables = oracle._block_table(block, frozenset(vals))
        # the locals that outrank the whole at some mode are exactly those
        # of infinite index, so the slots' occupants are the members
        outrank = {v for groups, floor in tables for vs in groups[floor:]
                   for v in vs}
        assert outrank == {v for v in vals if v != entry.whole
                           and entry.index(data, mult, entry.whole, v) is None}
        for name, (groups, floor) in zip(entry.modes(mult), tables):
            mode = MODES[name]
            rank = {v: g for g, vs in enumerate(groups) for v in vs}
            assert sorted(rank, key=repr) == sorted(set(vals) & set(rank),
                                                    key=repr)
            occupants = [v for v in vals if mode.occupies(mult, v)]
            assert occupants == [v for v in vals if rank.get(v, -1) >= floor]
            for x in occupants:
                for y in vals:
                    assert mode.beats(mult, x, y) == (
                        y in rank and rank[y] < rank[x]), (block, name, x, y)
            subsets = ([[x] for x in occupants]
                       + [list(c) for c in itertools.combinations(occupants, 2)]
                       + [occupants])
            for sub in filter(None, subsets):
                loses = mode.loser(mult, sub)
                top = max(rank[x] for x in sub)
                for v in vals:
                    assert loses(v) == (v in rank and rank[v] < top), (
                        block, name, sub, v)

    @pytest.mark.parametrize("block", TABLE_BLOCKS, ids=[
        "%s%s-%s" % (kind, data[0] if KINDS[kind].has_prime else "",
                     "w" if is_omega(mult) else mult)
        for kind, data, mult in TABLE_BLOCKS])
    def test_tables_give_the_predicates(self, block):
        rng = random.Random(31)
        for B in range(1, 5):
            vals = every_local(block, B)
            self.check(block, vals)
            # the whole, the None extremes and tie partners missing
            for _ in range(8):
                self.check(block, rng.sample(vals, rng.randint(1, len(vals))))

    def test_tail_ties(self):
        # tailb ties the offsets of one bound, taila the bounds of one offset
        block = ("tail", (2, 4), OMEGA)
        (bgroups, _bf), (agroups, _af) = oracle._block_table(
            block, frozenset(every_local(block, 2)))
        assert [len(vs) for vs in bgroups] == [3, 3, 3, 3]
        assert [len(vs) for vs in agroups] == [4, 4, 4]
        # a finite-multiplicity tail's offset slot counts unbounded locals only
        block = ("tail", (2, 4), 2)
        _b, (agroups, floor) = oracle._block_table(
            block, frozenset(every_local(block, 2)))
        assert agroups == (((0, None),), ((1, None),), ((2, None),))
        assert floor == 1


# per group: L_p at B0 and at 2 B0, by prime, and the dp-rank when finite
PER_PRIME = [
    ("tail(2,w) + Z(3^inf)^w + Z(5^1)^w",
     {2: (3, 4), 3: (1, 1), 5: (1, 1)}, None),
    ("tail(2,w,cutoff=3) + tail(3,w) + Z_(5)^w + Z(7^inf)^w",
     {2: (2, 5), 3: (4, 6), 5: (1, 1), 7: (1, 1)}, None),
    ("Z(2^inf)^w + Z(3^inf)^w + Z(5^inf)^w + Q",
     {2: (1, 1), 3: (1, 1), 5: (1, 1)}, 3),
    ("Z(2^1)^w + Z(2^3)^w + Z(3^2)^w + Z_(5)^w",
     {2: (2, 2), 3: (1, 1), 5: (1, 1)}, 4),
]


class TestPerPrimeLevels:
    """L_p, the depth of the slot search over the slots of prime p's blocks
    alone, at cap 8.

    The paper calls A strong exactly when only finitely many primes have
    A/pA infinite and, per prime p, only finitely many n have
    (p^n A)[p]/(p^(n+1) A)[p] infinite; the primes of U_inf_at_infinite break
    the second clause.  L_p grows from B0 to 2 B0 exactly at those primes,
    and on a strong group the levels add up to the dp-rank.  This is
    evidence at a finite pool bound, not a proof."""

    def levels(self, desc, B):
        # the blocks, holders and validity check of a real search, split
        # into the slots of each prime
        _pool, blocks, holders, valid = oracle._setup(desc, B)
        at = {}
        for slot in oracle._slots(blocks, holders):
            kind, data, _mult = blocks[slot[0][0]]
            at.setdefault(data[0] if KINDS[kind].has_prime else None,
                          []).append(slot)
        levels = {}
        for p, sub in at.items():
            best, exhausted = oracle._deepest(sub, 8, holders, valid)
            assert exhausted
            levels[p] = len(best)
        return levels

    @pytest.mark.parametrize("text,expected,dp", PER_PRIME,
                             ids=["tail2", "tail2-tail3", "strong-3",
                                  "strong-4"])
    def test_levels_grow_at_the_omega_tails(self, text, expected, dp):
        g = parse_group(text)
        B0 = normalize(g).max_exponent() + 2
        low, high = (self.levels(g, B) for B in (B0, 2 * B0))
        assert {p: (low[p], high[p]) for p in low} == expected
        assert high.keys() == low.keys()
        assert ({p for p in low if high[p] > low[p]}
                == derived_sets(g).u_inf_at_infinite)
        assert dp_rank(g).dp == dp
        if dp is not None:
            assert sum(low.values()) == sum(high.values()) == dp


class TestInfiniteRankSide:
    def test_tail_depth_grows_every_second_bound(self):
        # non-decreasing and unbounded in B, one step per two bounds
        g = parse_group("tail(2,w)")
        for B in range(1, 11):
            r = breadth_search(g, B, 12)
            assert (r.depth, r.exhausted) == ((B + 3) // 2, True), B

    def test_failing_leaves_in_bounded_time(self):
        # checking only complete families, this search ran for minutes
        g = parse_group(MANY_FAILING_LEAVES)
        with within(5):
            r = breadth_search(g, 3, 5)
        assert (r.depth, r.exhausted) == (5, False)
        assert [render_formula(f) for f in r.witness] == [
            "div(5,3,0)", "tor(750)", "tor(1050)", "tor(1750)", "tor(2625)"]
        assert verify_inp(g, r.witness).valid
