"""Brute-force oracle: pool, family verification, breadth search."""

import random
import time

import pytest

from szk import corpus
from szk.core import tor
from szk.dsl import parse_formula, parse_group, render_formula
from szk.oracle import (PoolOverflowError, breadth_search, candidate_pool,
                        verify_inp)
from szk.rank import dp_rank


def witness_set(result):
    return {render_formula(f) for f in result.witness}


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

    def test_overflow_checked_before_enumeration(self):
        # about 5e9 div atoms: only an arithmetic count can refuse it in time
        start = time.perf_counter()
        with pytest.raises(PoolOverflowError, match="5000150000 formulas"):
            breadth_search(parse_group("Z(2^1)^w"), 100000, 6)
        assert time.perf_counter() - start < 1.0


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
