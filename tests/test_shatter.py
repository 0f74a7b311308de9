"""Concrete finite groups: enumeration, cosets, shatter functions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szk import corpus, shatter
from szk.dsl import parse_formula, parse_group
from szk.shatter import (FinAbGroup, SetFamily, coset_family,
                         from_description, shatter_function, shatter_rows,
                         subgroup_members, vc_dim)


class TestFinAbGroup:
    def test_size_and_enumeration(self):
        g = FinAbGroup((4, 3))
        assert g.size == 12
        assert g.element(0) == (0, 0)
        assert g.element(11) == (3, 2)

    def test_index_round_trip(self):
        g = FinAbGroup((2, 3, 5))
        for idx in range(g.size):
            assert g.index_of(g.element(idx)) == idx

    def test_addition_wraps(self):
        g = FinAbGroup((4, 3))
        a = g.index_of((3, 2))
        b = g.index_of((1, 1))
        assert g.element(g.add(a, b)) == (0, 0)

    def test_rejects_bad_orders_and_size(self):
        with pytest.raises(ValueError):
            FinAbGroup((1, 2))
        with pytest.raises(ValueError):
            FinAbGroup((2,) * 21)

    def test_from_description(self):
        g = from_description(parse_group("Z(4)^2 + Z(3^1)"))
        assert sorted(g.orders) == [3, 4, 4]

    @pytest.mark.parametrize("text", [
        "Z(2^3)^w", "Z_(2)", "Z(2^inf)", "Q", "tail(2)", "forall_p{Z(P^1)}",
    ])
    def test_from_description_rejects_infinite(self, text):
        with pytest.raises(ValueError):
            from_description(parse_group(text))


class TestSubgroupMembers:
    def test_torsion_in_cyclic(self):
        g = from_description(parse_group("Z(4)"))
        assert subgroup_members(g, parse_formula("tor(2)")) == [0, 2]
        assert subgroup_members(g, parse_formula("tor(4)")) == [0, 1, 2, 3]
        assert subgroup_members(g, parse_formula("tor(1)")) == [0]

    def test_divisibility_in_cyclic(self):
        g = from_description(parse_group("Z(8)"))
        # x with 2x divisible by 8, i.e. the multiples of 4
        assert subgroup_members(g, parse_formula("div(2,3,1)")) == [0, 4]

    def test_top_is_everything(self):
        g = from_description(parse_group("Z(4) + Z(3^1)"))
        assert subgroup_members(g, parse_formula("top")) == list(range(12))

    def test_is_a_subgroup(self):
        g = from_description(parse_group("Z(8) + Z(4)"))
        members = subgroup_members(g, parse_formula("tor(4) & div(2,3,1)"))
        s = set(members)
        assert 0 in s
        for a in members:
            for b in members:
                assert g.add(a, b) in s


class TestCosets:
    def test_partition_per_formula(self):
        g = from_description(parse_group("Z(4)"))
        fam = coset_family(g, [parse_formula("tor(2)")])
        assert fam.carrier_size == 4
        assert sorted(fam.sets) == [0b0101, 0b1010]

    def test_counts_sum_to_index(self):
        g = from_description(parse_group("Z(8) + Z(2^1)"))
        formulas = [parse_formula(t) for t in ("tor(2)", "tor(4)", "top")]
        fam = coset_family(g, formulas)
        # 16/|H| cosets per formula: 4 + 2 + 1
        assert len(fam.sets) == 7

    def test_refused_by_size(self, monkeypatch):
        # 4 cosets of tor(2) and 2 of tor(4), 16 bits each
        g = from_description(parse_group("Z(8) + Z(2^1)"))
        formulas = [parse_formula("tor(2)"), parse_formula("tor(4)")]
        monkeypatch.setattr(shatter, "FAMILY_BITS_CAP", 96)
        assert len(coset_family(g, formulas).sets) == 6
        monkeypatch.setattr(shatter, "FAMILY_BITS_CAP", 95)
        with pytest.raises(ValueError, match="needs 96 mask bits, cap is 95"):
            coset_family(g, formulas)


class TestShatter:
    def test_single_proper_subgroup_has_vc_dim_one(self):
        g = from_description(parse_group("Z(4)"))
        fam = coset_family(g, [parse_formula("tor(2)")])
        assert vc_dim(fam) == 1
        # the two cosets partition the carrier, so a pair never sees
        # more than two traces
        assert shatter_function(fam, 2) == 2

    def test_whole_group_alone_cannot_shatter(self):
        g = from_description(parse_group("Z(4)"))
        fam = coset_family(g, [parse_formula("top")])
        assert vc_dim(fam) == 0

    def test_two_independent_subgroups_shatter_pairs(self):
        g = from_description(parse_group("Z(2^1)^2"))
        formulas = [parse_formula("top"), parse_formula("tor(1)"),
                    parse_formula("tor(2) & div(2,1,0)")]
        fam = coset_family(g, formulas)
        assert vc_dim(fam) >= 1

    def test_rows_shape(self):
        g = from_description(parse_group("Z(4)"))
        fam = coset_family(g, [parse_formula("tor(2)")])
        rows = shatter_rows(fam, 3)
        assert [n for n, _, _ in rows] == [0, 1, 2, 3]
        assert all(pi <= 2 ** n for n, pi, _ in rows)
        assert rows[0] == (0, 1, 1)

    def test_caps_raise(self):
        fam = SetFamily(4, (0b0101,))
        with pytest.raises(ValueError):
            shatter_function(fam, 7)
        with pytest.raises(ValueError):
            shatter_function(fam, 5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_pi_monotone_and_bounded(self, seed):
        rng = random.Random(seed)
        desc = corpus.random_finite_description(rng, size_cap=64)
        g = from_description(desc)
        f = corpus.random_formula(rng, primes=(2, 3), max_exp=2)
        fam = coset_family(g, [f])
        top = min(3, g.size)
        rows = shatter_rows(fam, top)
        values = [pi for _, pi, _ in rows]
        assert values == sorted(values)
        assert all(pi <= len(fam.sets) for pi in values[1:])
