"""Formula evaluation: atom tables, profiles, exact index classes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szk import corpus, ppeval
from szk.core import INFINITE, OMEGA, SPLIT_CAP, Index, direct_sum
from szk.dsl import parse_formula, parse_group
from szk.ppeval import (eval_formula, index_class, meet, profile_stats)
from szk.shatter import from_description, subgroup_members


def local_of(group_text: str, formula_text: str, kind: str):
    profile = eval_formula(parse_group(group_text), parse_formula(formula_text))
    for (k, _data, _m), v in zip(profile.blocks, profile.locals):
        if k == kind:
            return v
    raise AssertionError("no %s block" % kind)


class TestAtomTables:
    def test_cyclic_divisibility(self):
        assert local_of("Z(2^3)", "div(2,5,4)", "cyc") == 0      # n <= s
        assert local_of("Z(2^3)", "div(2,5,1)", "cyc") == 2      # s < n <= r
        assert local_of("Z(2^3)", "div(2,2,1)", "cyc") == 1      # n > r
        assert local_of("Z(2^3)", "div(3,1,0)", "cyc") == 0      # other prime

    def test_cyclic_torsion(self):
        assert local_of("Z(2^3)", "tor(2)", "cyc") == 2
        assert local_of("Z(2^3)", "tor(12)", "cyc") == 1
        assert local_of("Z(2^3)", "tor(9)", "cyc") == 3          # trivial subgroup
        assert local_of("Z(2^3)", "tor(16)", "cyc") == 0         # whole block

    def test_torsion_free_block(self):
        assert local_of("Z_(3)", "div(3,4,1)", "tf") == 3
        assert local_of("Z_(3)", "div(2,1,0)", "tf") == 0
        assert local_of("Z_(3)", "tor(5)", "tf") is None         # zero subgroup

    def test_divisible_block(self):
        assert local_of("Z(5^inf)", "div(5,2,0)", "div") is None  # whole
        assert local_of("Z(5^inf)", "tor(50)", "div") == 2
        assert local_of("Z(5^inf)", "tor(3)", "div") == 0

    def test_q_block(self):
        assert local_of("Q", "div(2,1,0)", "q") is True
        assert local_of("Q", "tor(2)", "q") is False

    def test_tail_block(self):
        assert local_of("tail(2,cutoff=1)", "tor(8)", "tail") == (0, 3)
        assert local_of("tail(2,cutoff=1)", "div(2,3,1)", "tail") == (2, None)
        assert local_of("tail(2)", "div(3,1,0)", "tail") == (0, None)

    def test_tail_split_covers_formula(self):
        profile = eval_formula(parse_group("tail(2,cutoff=1)"),
                               parse_formula("tor(8)"))
        cyc = [(data, m) for (k, data, m) in profile.blocks if k == "cyc"]
        assert cyc == [((2, 2), 1), ((2, 3), 1)]
        tail = [data for (k, data, _m) in profile.blocks if k == "tail"]
        assert tail == [(2, 3)]

    # a group and the formula whose tail splits add n cyclic blocks in all
    SPLITS = {
        "one-tail": ("tail(2)", lambda n: "div(2,%d,0)" % n),
        "cutoff": ("tail(2,cutoff=3)", lambda n: "div(2,%d,1)" % (n + 3)),
        "two-tails": ("tail(2) + tail(3,w)",
                      lambda n: "tor(8) & div(3,%d,0)" % (n - 3)),
    }

    @pytest.mark.parametrize("name", sorted(SPLITS))
    def test_split_cap(self, name):
        # SPLIT_CAP split blocks are built; one more is refused before any is
        group, formula = self.SPLITS[name]
        g, cap = parse_group(group), SPLIT_CAP
        profile = eval_formula(g, parse_formula(formula(cap)))
        assert sum(k == "cyc" for k, _d, _m in profile.blocks) == cap
        with pytest.raises(ValueError, match="^tail splits need %d cyclic "
                           "blocks, cap is %d$" % (cap + 1, cap)):
            eval_formula(g, parse_formula(formula(cap + 1)))

    # the terms whose direct sum raises tail cutoffs over n exponents in all
    SUMS = {
        "exponent": lambda n: ("Z(2^%d)" % n, "tail(2)"),
        "cutoff": lambda n: ("tail(2)", "tail(2,cutoff=%d)" % n),
        "two-primes": lambda n: ("Z(2^3)", "tail(2)", "tail(3)",
                                 "tail(3,w,cutoff=%d)" % (n - 3)),
    }

    @pytest.mark.parametrize("name", sorted(SUMS))
    def test_sum_cap(self, name):
        # the sum that adds SPLIT_CAP explicit blocks is built; one more is
        # refused before any is
        terms = self.SUMS[name]
        g = direct_sum(*map(parse_group, terms(SPLIT_CAP)))
        assert len(g.cyclic) == SPLIT_CAP
        with pytest.raises(ValueError, match="^tail splits need %d cyclic "
                           "blocks, cap is %d$" % (SPLIT_CAP + 1, SPLIT_CAP)):
            direct_sum(*map(parse_group, terms(SPLIT_CAP + 1)))

    def test_prime_tail_instantiates_mentioned_primes(self):
        profile = eval_formula(parse_group("forall_p{Z_(P)^2}"),
                               parse_formula("tor(3)"))
        kinds = [(k, data) for (k, data, _m) in profile.blocks]
        assert ("tf", (3,)) in kinds
        assert any(k == "ptail" for k, _ in kinds)
        assert local_of("forall_p{Z_(P)^2}", "tor(3)", "ptail") is False
        assert local_of("forall_p{Z_(P)^2}", "div(3,1,0)", "ptail") is True


class TestProfiles:
    def test_meet_requires_same_description(self):
        h = eval_formula(parse_group("Z(2^3)"), parse_formula("tor(2)"))
        k = eval_formula(parse_group("Z(3^2)"), parse_formula("tor(3)"))
        with pytest.raises(ValueError):
            meet(h, k)

    def test_meet_is_conjunction(self):
        g = parse_group("Z(2^3)^2 + Z(3^2)")
        h = eval_formula(g, parse_formula("tor(2)"))
        k = eval_formula(g, parse_formula("tor(3)"))
        m = meet(h, k)
        both = eval_formula(g, parse_formula("tor(2) & tor(3)"))
        assert m.locals == both.locals

    def test_stats_finite(self):
        g = parse_group("Z(2^3)^2")
        stats = profile_stats(eval_formula(g, parse_formula("tor(2)")))
        assert stats.cardinality == Index.of(4)
        assert stats.exponent == 2

    def test_stats_unbounded_tail(self):
        g = parse_group("tail(2)")
        stats = profile_stats(eval_formula(g, parse_formula("tor(4)")))
        assert stats.cardinality.is_infinite
        assert stats.exponent == 4

    def test_stats_whole_divisible(self):
        g = parse_group("Z(5^inf)")
        stats = profile_stats(eval_formula(g, parse_formula("div(5,1,0)")))
        assert stats.cardinality.is_infinite
        assert stats.exponent is INFINITE


class TestIndexClass:
    def test_omega_block_jump_is_infinite(self):
        g = parse_group("Z(2^3)^w")
        h = eval_formula(g, parse_formula("top"))
        k = eval_formula(g, parse_formula("tor(2)"))
        assert index_class(h, k).is_infinite

    def test_finite_block_jump_is_exact(self):
        g = parse_group("Z(2^3)^2")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("tor(2)"))
        assert index_class(h, k) == Index.of(4)

    def test_incomparable_subgroups(self):
        g = parse_group("Z(2^2)^1 + Z(3^2)^1")
        h = eval_formula(g, parse_formula("tor(2)"))
        k = eval_formula(g, parse_formula("tor(3)"))
        # h is the order-2 subgroup, k the order-3 one, h meet k is zero
        assert index_class(h, k) == Index.of(2)
        assert index_class(k, h) == Index.of(3)

    def test_tail_limit_rule(self):
        g = parse_group("tail(2)")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("tor(2)"))
        # bound drops by one on infinitely many blocks
        assert index_class(h, k).is_infinite

    def test_tail_offset_jump_hits_every_block(self):
        g = parse_group("tail(2)")
        h = eval_formula(g, parse_formula("top"))
        k = eval_formula(g, parse_formula("div(2,3,1)"))
        # depth 2 on every residual block
        assert index_class(h, k).is_infinite

    def test_tail_exceptional_blocks_finite(self):
        g = parse_group("tail(2)")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("div(2,3,1)"))
        # same bound, so only the explicit blocks below the split differ:
        # depth 1 extra at n = 3 and n = 2
        assert index_class(h, meet(h, k)) == Index.of(4)

    def test_tail_exceptional_blocks_omega(self):
        g = parse_group("tail(2,w)")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("div(2,3,1)"))
        assert index_class(h, meet(h, k)).is_infinite

    def test_shared_blocks_skip_materialize(self):
        g = parse_group("Z(2^3)^2 + Z(3^1)^w")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("tor(6)"))
        both = eval_formula(g, parse_formula("tor(4) & tor(6)"))
        assert h.blocks == k.blocks
        ppeval._materialized.cache_clear()
        # 2-part: the 4-torsion (order 16) over the 2-torsion (order 4)
        assert index_class(h, k) == Index.of(4)
        assert meet(h, k) == both
        info = ppeval._materialized.cache_info()
        assert (info.hits, info.misses) == (0, 0)
        # tails split at different heights: index_class materializes the
        # shared split once, and meet reads it from the block memo
        g = parse_group("tail(2)")
        h = eval_formula(g, parse_formula("tor(4)"))
        k = eval_formula(g, parse_formula("div(2,3,1)"))
        assert h.blocks != k.blocks
        both = eval_formula(g, parse_formula("tor(4) & div(2,3,1)"))
        ppeval._materialized.cache_clear()
        assert index_class(h, k) == Index.of(4)
        assert meet(h, k) == both
        info = ppeval._materialized.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    # expected index, None for infinite; the one-prime groups keep the
    # comparison on a single block of the named kind (the prime-tail
    # groups also instantiate the mentioned prime)
    @pytest.mark.parametrize("group,f1,f2,expected", [
        ("Z_(3)^2", "top", "div(3,1,0)", 9),
        ("Z_(3)^2", "div(3,1,0)", "div(3,3,0)", 81),
        ("Z_(3)^2", "top", "tor(5)", None),
        ("Z_(3)^w", "top", "div(3,1,0)", None),
        ("Z(5^inf)^2", "tor(25)", "tor(5)", 25),
        ("Z(5^inf)^2", "top", "tor(5)", None),
        ("Z(5^inf)^w", "tor(25)", "tor(5)", None),
        ("Z(5^inf)^w", "div(5,1,0)", "top", 1),
        ("Q^2", "top", "div(2,1,0)", 1),
        ("Q^2", "top", "tor(2)", None),
        ("Q^w", "top", "tor(2)", None),
        ("Q^w", "div(3,2,1)", "top", 1),
        ("forall_p{Z(P^inf)^2}", "top", "div(2,1,0)", 1),
        ("forall_p{Z(P^inf)^2}", "top", "tor(2)", None),
        ("forall_p{Z_(P)^2}", "top", "tor(3)", None),
        ("forall_p{Z(P^inf)^w}", "top", "div(2,1,0)", 1),
        ("forall_p{Z_(P)^w}", "top", "tor(3)", None),
    ])
    def test_block_kind_index(self, group, f1, f2, expected):
        g = parse_group(group)
        h = eval_formula(g, parse_formula(f1))
        k = eval_formula(g, parse_formula(f2))
        got = index_class(h, k)
        if expected is None:
            assert got.is_infinite
        else:
            assert got == Index.of(expected)


def concrete_index(g, members_h, members_k) -> int:
    inter = set(members_h) & set(members_k)
    assert len(members_h) % len(inter) == 0
    return len(members_h) // len(inter)


class TestBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sizes_match_enumeration(self, seed):
        rng = random.Random(seed)
        desc = corpus.random_finite_description(rng)
        g = from_description(desc)
        f = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        symbolic = profile_stats(eval_formula(desc, f))
        members = subgroup_members(g, f)
        assert symbolic.cardinality == Index.of(len(members))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_pairwise_indices_match_enumeration(self, seed):
        rng = random.Random(seed)
        desc = corpus.random_finite_description(rng)
        g = from_description(desc)
        f1 = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        f2 = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        h = eval_formula(desc, f1)
        k = eval_formula(desc, f2)
        expected = concrete_index(g, subgroup_members(g, f1),
                                  subgroup_members(g, f2))
        assert index_class(h, k) == Index.of(expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_index_multiplicative_along_chains(self, seed):
        rng = random.Random(seed)
        desc = corpus.random_finite_description(rng)
        f1 = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        f2 = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        f3 = corpus.random_formula(rng, primes=(2, 3, 5), max_exp=3)
        h = eval_formula(desc, f1)
        hk = meet(h, eval_formula(desc, f2))
        hkl = meet(hk, eval_formula(desc, f3))
        lhs = index_class(h, hkl)
        rhs = index_class(h, hk) * index_class(hk, hkl)
        assert lhs == rhs
