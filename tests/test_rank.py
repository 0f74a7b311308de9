"""Closed-form rank: case equations, witnesses, classification, vc-density."""

import importlib
import itertools
import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szk import corpus, rank
from szk.core import direct_sum, is_prime, tor
from szk.dsl import parse_group
from szk.oracle import verify_inp
from szk.rank import (classify, dp_rank, gap_count, rank_json, seed_witnesses,
                      vc_density, witnesses_json)

# the package re-exports the function normalize under the module's name
normalize_module = importlib.import_module("szk.normalize")


def dp(text: str):
    return dp_rank(parse_group(text)).dp


class TestGapCount:
    def test_examples(self):
        assert gap_count([]) == 0
        assert gap_count([4]) == 1
        assert gap_count([0, 1]) == 1
        assert gap_count([0, 2]) == 2
        assert gap_count([0, 1, 2, 3, 4]) == 3
        assert gap_count([1, 1, 3]) == 2

    def test_greedy_is_optimal_exhaustively(self):
        universe = range(9)
        for r in range(len(universe) + 1):
            for subset in itertools.combinations(universe, r):
                best = 0
                for k in range(len(subset), 0, -1):
                    if any(all(b - a >= 2 for a, b in zip(pick, pick[1:]))
                           for pick in itertools.combinations(subset, k)):
                        best = k
                        break
                assert gap_count(subset) == best


class TestPinnedRanks:
    @pytest.mark.parametrize("text,value,case", [
        ("0", 0, "finite-group"),
        ("Z(2^3)^2 + Z(5^1)", 0, "finite-group"),
        ("Q", 1, 1),
        ("Z_(2)^w", 1, 1),
        ("Z_(2)^w + Z_(3)^w + Z_(5)^w", 3, 1),
        ("Z_(2)^2 + Z_(3)^2", 1, 1),
        ("Z(2^1)^w", 1, 2),
        ("Z(2^1)^w + Z(2^3)^w", 2, 2),
        ("Z(2^1)^w + Z(2^2)^w", 1, 2),
        ("Z(2^1)^w + Z(3^1)^w", 2, 2),
        ("Z(2^inf)^w", 1, 3),
        ("Z(2^inf)^w + Z(3^inf)^w", 2, 3),
        ("Z(2^3)^w + Z_(5)^2 + Q", 2, 3),
        ("Z(2^1)^w + Z(2^3)^w + Z_(3)^w + Z(5^inf)^w", 3, 3),
        ("tail(2)", 1, 4),
        ("tail(2) + Z(3^inf)^w", 2, 4),
        ("tail(2) + tail(3)", 2, 4),
        ("tail(2) + Z_(3)^w + Z_(5)^w", 3, 4),
        ("Z(2^1)^w + Z(2^3)^w + tail(3)", 3, 4),
    ])
    def test_value_and_case(self, text, value, case):
        report = dp_rank(parse_group(text))
        assert report.dp == value
        assert report.case_tag == case

    @pytest.mark.parametrize("text", [
        "tail(2,w)",
        "forall_p{Z_(P)^w}",
        "forall_p{Z(P^inf)^w}",
        "forall_p{Z(P^1)^w}",
    ])
    def test_infinite_rank(self, text):
        report = dp_rank(parse_group(text))
        assert report.dp is None
        assert report.case_tag == "infinite"

    def test_strong_flags(self):
        assert dp_rank(parse_group("tail(2,w)")).strong is False
        assert dp_rank(parse_group("forall_p{Z(P^inf)^w}")).strong is True
        assert dp_rank(parse_group("forall_p{Z_(P)^w}")).strong is False

    def test_partition(self):
        report = dp_rank(parse_group(
            "tail(2) + Z(3^1)^w + Z(3^2) + Z(5^2)^2"))
        assert report.partition == {"P1": (2,), "P2": (3,), "P3": (5,)}

    def test_epsilons(self):
        report = dp_rank(parse_group("Z(2^3)^w + Z_(5)^2 + Q"))
        assert report.epsilons == {"U": 0, "Exp": 1, "Tf": 1, "D": 0}


class TestCorpusProperties:
    def test_epsilon_equation_agrees_on_corpus(self, finite_dp_corpus):
        # dp_rank raises AssertionError on any disagreement
        for desc in finite_dp_corpus:
            report = dp_rank(desc)
            assert report.dp is not None

    def test_classify_consistent_on_mixed_corpus(self, mixed_corpus):
        for desc in mixed_corpus:
            c = classify(desc)
            report = dp_rank(desc)
            assert c.finite_dp == (report.dp is not None)
            if c.finite_dp:
                assert c.strong
            assert c.dp_minimal == (report.dp == 1)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_direct_sum_subadditive(self, seed):
        rng = random.Random(seed)
        a = corpus.random_description(rng)
        b = corpus.random_description(rng)
        da, db = dp_rank(a).dp, dp_rank(b).dp
        ds = dp_rank(direct_sum(a, b)).dp
        assert max(da, db) <= ds <= da + db

    def test_direct_sum_relations_on_mixed_groups(self, mixed_corpus,
                                                  finite_dp_corpus):
        # strong(A + B) = strong(A) and strong(B), the same for finite dp,
        # and dp(A + B) between max(dp(A), dp(B)) and their sum where finite
        fixtures = ["forall_p{Z_(P)^w}", "forall_p{Z(P^inf)^w}",
                    "forall_p{Z(P^1)^w}", "Z(1000003^2)^w",
                    "Z(2305843009213693951^1)^w + Z_(3)", "tail(2,w)",
                    "Z(2^1)^w + Z(8)^w + tail(3)"]
        groups = (mixed_corpus + finite_dp_corpus
                  + [parse_group(t) for t in fixtures])

        def facts(desc):
            report = rank._rank_of(normalize_module.normalize(desc))
            return report.strong, report.dp

        known = [facts(g) for g in groups]
        rng = random.Random(20261019)
        seen = set()
        for _ in range(12000):
            i, j = rng.randrange(len(groups)), rng.randrange(len(groups))
            (sa, da), (sb, db) = known[i], known[j]
            strong, value = facts(direct_sum(groups[i], groups[j]))
            assert strong == (sa and sb), (groups[i], groups[j])
            finite = da is not None and db is not None
            assert (value is not None) == finite, (groups[i], groups[j])
            if finite:
                assert max(da, db) <= value <= da + db, (groups[i], groups[j])
            seen.add((strong, finite))
        assert seen == {(True, True), (True, False), (False, False)}


class TestOnePass:
    def test_dp_rank_normalizes_once(self, monkeypatch):
        calls = []
        real = normalize_module.normalize

        def counted(desc):
            calls.append(desc)
            return real(desc)

        monkeypatch.setattr(normalize_module, "normalize", counted)
        monkeypatch.setattr(rank, "normalize", counted)
        g = parse_group("Z(2^1)^w + Z(8)^w + tail(3)")
        report = dp_rank(g)
        assert len(calls) == 1
        # the public entry points still answer as they did
        assert report.derived == normalize_module.derived_sets(g)
        assert report.witnesses == seed_witnesses(g)


class TestSeedWitnesses:
    def test_sizes_match_contributions(self):
        report = dp_rank(parse_group(
            "Z(2^1)^w + Z(2^3)^w + Z_(3)^w + Z_(5)^w + Z(7^inf)^w + tail(3)"))
        by_tag = {w.tag: w.formulas for w in report.witnesses}
        assert len(by_tag["tf-quotients"]) == 1          # 5 only: 3 has a tail
        assert len(by_tag["divisible-socles"]) == 1
        assert len(by_tag["cyclic-gaps:2"]) == 2
        assert len(by_tag["unbounded-length"]) == 1

    @pytest.mark.parametrize("primes", [(2,), (3, 7), (2, 3, 5, 7, 11)])
    def test_divisible_socles_moduli(self, primes):
        # tor of the product of the other primes, or of p alone
        desc = parse_group(" + ".join("Z(%d^inf)^w" % p for p in primes))
        fams = {w.tag: w.formulas for w in seed_witnesses(desc)}
        want = [p if len(primes) == 1 else prod(q for q in primes if q != p)
                for p in primes]
        assert fams["divisible-socles"] == tuple(tor(m) for m in want)

    def test_divisible_socles_refused_past_the_digit_limit(self):
        # with the first 1,229 primes the longest modulus, the product of
        # all but 2, has 4,298 digits and prints; one prime more passes the
        # limit, and the family is refused before any modulus is built
        primes = [p for p in range(2, 11000) if is_prime(p)]
        fams = {w.tag: w.formulas for w in seed_witnesses(parse_group(
            " + ".join("Z(%d^inf)^w" % p for p in primes[:1229])))}
        assert len(str(fams["divisible-socles"][0].atoms[0].m)) == 4298
        desc = parse_group(" + ".join("Z(%d^inf)^w" % p for p in primes[:1230]))
        with pytest.raises(ValueError, match="^divisible-socles witness "):
            seed_witnesses(desc)
        assert dp_rank(desc).dp == 1230

    def test_families_verify_against_oracle(self):
        texts = [
            "Z_(2)^w + Z_(3)^w",
            "Z(2^inf)^w + Z(3^inf)^w + Z(5^inf)^w",
            "Z(2^1)^w + Z(2^3)^w",
            "tail(2) + tail(3)",
            "Z(2^1)^w + Z(2^3)^w + Z_(3)^w + Z(5^inf)^w",
        ]
        for text in texts:
            desc = parse_group(text)
            for fam in seed_witnesses(desc):
                verdict = verify_inp(desc, list(fam.formulas))
                assert verdict.valid, (text, fam.tag)

    def test_non_strong_prefix_family(self):
        fams = {w.tag: w.formulas for w in seed_witnesses(parse_group("tail(2,w)"))}
        prefix = fams["non-strong-prefix:2"]
        assert len(prefix) == 3
        verdict = verify_inp(parse_group("tail(2,w)"), list(prefix))
        assert verdict.valid

    def test_corpus_witnesses_verify(self, finite_dp_corpus):
        for desc in finite_dp_corpus[:30]:
            for fam in seed_witnesses(desc):
                assert verify_inp(desc, list(fam.formulas)).valid

    def test_report_builds_no_witnesses(self, monkeypatch, mixed_corpus,
                                        finite_dp_corpus):
        # the report, classify and vc_density read the derived sets alone;
        # only the report's witnesses property builds the families
        def refuse(_ds):
            raise AssertionError("built witness families")

        monkeypatch.setattr(rank, "_seed_witnesses", refuse)
        for desc in mixed_corpus + finite_dp_corpus:
            report = dp_rank(desc)
            assert classify(desc).finite_dp == (report.dp is not None)
            assert vc_density(desc, [1]).values == {1: report.dp}
        with pytest.raises(AssertionError, match="built witness families"):
            report.witnesses

    def test_rank_payload_prints_the_seed_witnesses(self, mixed_corpus,
                                                    finite_dp_corpus):
        for desc in mixed_corpus + finite_dp_corpus:
            assert (rank_json(dp_rank(desc))["witness"]
                    == witnesses_json(seed_witnesses(desc)))


class TestVcDensity:
    def test_linear_in_m(self):
        report = vc_density(parse_group("Z(2^1)^w + Z(3^1)^w"), range(1, 6))
        assert report.values == {m: 2 * m for m in range(1, 6)}

    def test_infinite_rank_propagates(self):
        report = vc_density(parse_group("tail(2,w)"), [1, 2])
        assert report.values == {1: None, 2: None}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            vc_density(parse_group("Q"), [0])
