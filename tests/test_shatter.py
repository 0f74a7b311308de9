"""Concrete finite groups: enumeration, cosets, shatter functions."""

import itertools
import random
import time
from math import comb, gcd, prod
from typing import List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szk import corpus, shatter
from szk.core import PPFormula, Tor
from szk.dsl import parse_formula, parse_group
from szk.shatter import (FinAbGroup, SetFamily, coset_family,
                         from_description, shatter_function, shatter_rows,
                         subgroup_members, vc_dim)
from tests.conftest import within


# Reference: the enumerating forms that the closed forms in szk.shatter
# replaced.  They test every residue, add every member to every coset
# representative and take every trace of every sample.

def _component_allowed(order: int, formula: PPFormula) -> List[int]:
    """Residues of Z(order) satisfying every atom."""
    allowed = []
    for x in range(order):
        ok = True
        for atom in formula.atoms:
            if isinstance(atom, Tor):
                if (atom.m * x) % order != 0:
                    ok = False
                    break
            else:
                g = gcd(atom.p ** atom.r, order)
                if ((atom.p ** atom.s * x) % order) % g != 0:
                    ok = False
                    break
        if ok:
            allowed.append(x)
    return allowed


def ref_subgroup_members(g: FinAbGroup, formula: PPFormula) -> List[int]:
    per_component = [_component_allowed(m, formula) for m in g.orders]
    out = []
    for combo in itertools.product(*per_component):
        out.append(g.index_of(combo))
    return sorted(out)


def ref_coset_family(g: FinAbGroup, formulas: Sequence[PPFormula]) -> SetFamily:
    sets: List[int] = []
    for f in formulas:
        members = ref_subgroup_members(g, f)
        covered = set()
        for a in range(g.size):
            if a in covered:
                continue
            coset = [g.add(a, h) for h in members]
            covered.update(coset)
            mask = 0
            for x in coset:
                mask |= 1 << x
            sets.append(mask)
    return SetFamily(g.size, tuple(sets))


def ref_shatter_function(s: SetFamily, n: int) -> int:
    if n == 0:
        return 1 if s.sets else 0
    best = 0
    for points in itertools.combinations(range(s.carrier_size), n):
        mask = 0
        for x in points:
            mask |= 1 << x
        traces = {c & mask for c in s.sets}
        best = max(best, len(traces))
        if best == 2 ** n:
            break
    return best


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


def _random_orders(rng: random.Random, cap: int) -> tuple:
    """One to four component orders of product at most ``cap``."""
    orders: List[int] = []
    size = 1
    for _ in range(rng.randint(1, 4)):
        m = rng.choice((2, 3, 4, 5, 6, 8, 9, 12, 16, 25, 27, 30, 32, 49, 64))
        if size * m <= cap:
            orders.append(m)
            size *= m
    return tuple(orders) or (rng.randint(2, 40),)


class TestMemberRuns:
    """Member lists are built run by run: the listing equals the
    residue-by-residue one on every kind of component."""

    def test_digit_kinds(self):
        # each component takes every residue, only 0, a stride, or a prefix
        rng = random.Random(11)
        for _ in range(3000):
            orders = _random_orders(rng, 10 ** 4)
            digits = []
            for m in orders:
                d = rng.choice([d for d in range(1, m + 1) if m % d == 0])
                digits.append(rng.choice((range(m), range(0, m, m),
                                          range(0, m, d), range(d))))
            weights = [prod(orders[i + 1:]) for i in range(len(orders))]
            expected = sorted(sum(x * w for x, w in zip(combo, weights))
                              for combo in itertools.product(*digits))
            assert shatter._mixed_radix(orders, digits) == expected, (orders, digits)

    def test_members_against_reference(self):
        rng = random.Random(12)
        for _ in range(300):
            g = FinAbGroup(_random_orders(rng, 10 ** 4))
            for f in _random_formulas(rng, primes=(2, 3, 5, 7), max_exp=3):
                assert subgroup_members(g, f) == ref_subgroup_members(g, f), (
                    g.orders, f)

    @pytest.mark.parametrize("orders", [(2,), (64,), (30,), (10000,), (100, 100),
                                        (4, 4, 25, 25), (3, 9, 27), (9, 9, 9, 9)])
    def test_fixed_orders(self, orders):
        rng = random.Random(repr(orders))
        g = FinAbGroup(orders)
        for _ in range(6):
            for f in _random_formulas(rng, primes=(2, 3, 5), max_exp=3):
                assert subgroup_members(g, f) == ref_subgroup_members(g, f)

    def test_coset_order_unchanged(self):
        rng = random.Random(13)
        for _ in range(60):
            g = FinAbGroup(_random_orders(rng, 300))
            formulas = _random_formulas(rng, primes=(2, 3, 5), max_exp=3)
            assert coset_family(g, formulas) == ref_coset_family(g, formulas)


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
        # the index cosets partition g: n points meet at most n of them, and
        # a missed coset adds the empty trace
        index = len(fam.sets)
        assert values[1:] == [min(n + 1, index) for n in range(1, top + 1)]

    def test_refused_by_samples(self, monkeypatch):
        # 6 pairs of points, each with at most min(4, 2) traces
        fam = SetFamily(4, (0b0101, 0b1010))
        monkeypatch.setattr(shatter, "SAMPLE_CAP", 12)
        assert shatter_function(fam, 2) == 2
        monkeypatch.setattr(shatter, "SAMPLE_CAP", 11)
        with pytest.raises(ValueError,
                           match=r"pi\(2\) needs 6 samples times 2 traces, cap is 11"):
            shatter_function(fam, 2)

    def test_table_refused_before_its_first_row(self, monkeypatch):
        # pi(1) takes 4 points times 2 traces, pi(2) 6 pairs times 2
        fam = SetFamily(4, (0b0101, 0b1010))
        monkeypatch.setattr(shatter, "SAMPLE_CAP", 11)
        computed = []
        monkeypatch.setattr(shatter, "shatter_function",
                            lambda *args: computed.append(args))
        assert len(shatter_rows(fam, 1)) == 2 and len(computed) == 2
        computed.clear()
        with pytest.raises(ValueError,
                           match=r"pi\(2\) needs 6 samples times 2 traces, cap is 11"):
            shatter_rows(fam, 2)
        assert computed == []


# The carriers and formulas of the benchmark's shattering ops.
SHATTER_CARRIERS = ("Z(4) + Z(4)", "Z(8) + Z(2^1)", "Z(4) + Z(2^1)^2",
                    "Z(9) + Z(3^1)", "Z(16)")
SHATTER_FORMULAS = ("tor(1)", "tor(2)", "tor(4)", "div(2,1,0)", "div(2,2,1)",
                    "div(2,3,1)", "div(3,1,0)", "tor(3)")


def _partition_family(rng: random.Random, size: int, parts: int) -> SetFamily:
    """The blocks of ``parts`` random partitions of a ``size``-point carrier,
    so that every point is in ``parts`` sets, with some sets repeated."""
    sets: List[int] = []
    for _ in range(parts):
        blocks = [0] * rng.randint(1, size)
        for x in range(size):
            blocks[rng.randrange(len(blocks))] |= 1 << x
        sets.extend(b for b in blocks if b)
    sets.extend(rng.choice(sets) for _ in range(rng.randint(0, 3)))
    rng.shuffle(sets)
    return SetFamily(size, tuple(sets))


def _random_formulas(rng: random.Random, primes=(2, 3), max_exp=2) -> List[PPFormula]:
    return [PPFormula.top() if rng.random() < 0.2
            else corpus.random_formula(rng, primes=primes, max_exp=max_exp)
            for _ in range(rng.randint(1, 3))]


class TestAgainstReference:
    """The closed forms give the reference's lists, families (set order
    included) and shatter values."""

    @staticmethod
    def _agree(g: FinAbGroup, formulas: Sequence[PPFormula]):
        for f in formulas:
            assert subgroup_members(g, f) == ref_subgroup_members(g, f)
        fam = coset_family(g, formulas)
        assert fam == ref_coset_family(g, formulas)
        # the reference takes every sample: at most 2 * 10^4 of them per n
        for n in range(min(4, g.size) + 1):
            if comb(g.size, n) <= 2 * 10 ** 4:
                assert shatter_function(fam, n) == ref_shatter_function(fam, n)

    def test_corpus_groups(self):
        rng = random.Random(20261018)
        for _ in range(150):
            g = from_description(corpus.random_finite_description(rng, size_cap=48))
            self._agree(g, _random_formulas(rng))

    @pytest.mark.parametrize("orders", [(6,), (12, 10), (9, 6), (2, 15), (30,)])
    def test_orders_not_prime_powers(self, orders):
        rng = random.Random(repr(orders))
        g = FinAbGroup(orders)
        for _ in range(8):
            self._agree(g, _random_formulas(rng, primes=(2, 3, 5), max_exp=3))

    def test_raw_families(self):
        rng = random.Random(7)
        families = [SetFamily(5, ()),
                    SetFamily(1, ()),
                    SetFamily(3, (0, 0)),
                    SetFamily(10, tuple((1 << i) - 1 for i in range(11))),
                    SetFamily(8, (0b1111, 0b1111, 0b11110000, 0b00111100)),
                    # duplicate sets
                    SetFamily(6, (0b101, 0b101, 0b11, 0b11, 0b110000, 0b101)),
                    # points 0-1, 2-3 and 4-5 have equal columns
                    SetFamily(6, (0b000011, 0b001100, 0b110011, 0b111100)),
                    # two distinct columns, so n runs past them
                    SetFamily(6, (0b111000, 0b000111)),
                    SetFamily(5, (0b11111,) * 3),
                    # one set per point (w = 1): singletons and a partition
                    SetFamily(7, tuple(1 << i for i in range(7))),
                    SetFamily(7, (0b1, 0b110, 0b1111000)),
                    # a point in every set
                    SetFamily(6, (0b000011, 0b000101, 0b001001, 0b010001))]
        for _ in range(150):
            size = rng.randint(1, 12)
            families.append(SetFamily(size, tuple(
                rng.getrandbits(size) for _ in range(rng.randint(0, 20)))))
        for _ in range(150):
            families.append(_partition_family(rng, rng.randint(1, 12),
                                              rng.randint(1, 4)))
        for fam in families:
            for n in range(min(4, fam.carrier_size) + 1):
                assert shatter_function(fam, n) == ref_shatter_function(fam, n)

    @pytest.mark.parametrize("carrier", SHATTER_CARRIERS)
    def test_bench_carriers(self, carrier):
        # every one-formula family the benchmark shatters, and a few families
        # of two or three formulas: pi(n) = min(index, n + 1) for one formula
        g = from_description(parse_group(carrier))
        formulas = [parse_formula(t) for t in SHATTER_FORMULAS]
        rng = random.Random(carrier)
        groups = [[f] for f in formulas]
        groups += [rng.sample(formulas, rng.randint(2, 3)) for _ in range(6)]
        for fs in groups:
            fam = coset_family(g, fs)
            assert fam == ref_coset_family(g, fs)
            for n in range(4):
                assert shatter_function(fam, n) == ref_shatter_function(fam, n)
            if len(fs) == 1:
                index = len(fam.sets)
                assert [shatter_function(fam, n) for n in range(1, 4)] == [
                    min(index, n + 1) for n in range(1, 4)]


class TestBoundedTime:
    """The search stops once a sample reaches the column-weight bound."""

    def test_two_formula_family(self):
        # every point is in two sets, so pi(3) <= 1 + 1 + 2 + 2 = 6 bounds the
        # pruning; the search tried about 10^5 samples without it
        g = FinAbGroup((8, 16))
        fam = coset_family(g, [parse_formula("tor(2)"), parse_formula("div(2,1,0)")])
        with within(0.1):
            assert shatter_function(fam, 3) == 5

    def test_one_formula_families(self):
        # one formula: pi(3) = min(index, 4), reached by the first sample of
        # distinct columns; the whole search took about 4 ms for the eight
        g = from_description(parse_group("Z(9) + Z(3^1)"))
        families = [coset_family(g, [parse_formula(t)]) for t in SHATTER_FORMULAS]
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            values = [shatter_function(fam, 3) for fam in families]
            best = min(best, time.perf_counter() - t0)
        assert values == [min(len(fam.sets), 4) for fam in families]
        assert best < 0.0015
